// Support vector machine with RBF kernel, trained by sequential minimal
// optimization (SMO). Backs the "s" metamodel variant ("RPs"). Probabilities
// are a sigmoid of the decision value, preserving the paper's bnd=0 decision
// threshold (PredictProb > 0.5 <=> decision > 0).
#ifndef REDS_ML_SVM_H_
#define REDS_ML_SVM_H_

#include <vector>

#include "ml/model.h"
#include "util/serialize.h"
#include "util/status.h"

namespace reds::ml {

struct SvmConfig {
  double c = 1.0;        // box constraint
  double gamma = -1.0;   // RBF width; <= 0: median-distance heuristic
  double tol = 1e-3;     // KKT violation tolerance
  int max_passes = 10;   // SMO sweeps without progress before stopping
  int max_iters = 20000; // hard cap on full sweeps
};

class SvmRbf : public Metamodel {
 public:
  explicit SvmRbf(SvmConfig config = {}) : config_(config) {}

  void Fit(const Dataset& d, uint64_t seed) override;
  double PredictProb(const double* x) const override;

  /// Support vectors outer, rows inner over cache-sized row chunks, with
  /// the scalar std::exp; each row still adds bias then the support
  /// vectors' terms in order, so out[i] == PredictProb(row i) bit for bit.
  void PredictBlock(const double* x, int rows, double* out) const override;
  int num_features() const override { return num_features_; }

  /// Signed decision value sum_i alpha_i y_i K(x_i, x) + b.
  double Decision(const double* x) const;

  int num_support_vectors() const { return static_cast<int>(sv_x_.size()); }
  double gamma() const { return gamma_; }

  /// Appends the fitted machine (gamma, bias, support vectors and
  /// coefficients) to `out` in the stable little-endian cache layout.
  void SerializeTo(util::ByteWriter* out) const;

  /// Restores a machine written by SerializeTo.
  Status DeserializeFrom(util::ByteReader* in);

 private:
  double Kernel(const double* a, const double* b) const;

  SvmConfig config_;
  double gamma_ = 1.0;
  double bias_ = 0.0;
  int num_features_ = 0;
  std::vector<std::vector<double>> sv_x_;  // support vectors
  std::vector<double> sv_coef_;            // alpha_i * y_i
};

}  // namespace reds::ml

#endif  // REDS_ML_SVM_H_
