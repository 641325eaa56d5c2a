// Metamodel interface: the intermediate machine-learning model REDS fits on
// the N simulation results and then uses to label L >> N fresh points
// (paper Algorithm 4, lines 2 and 5).
#ifndef REDS_ML_MODEL_H_
#define REDS_ML_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"

namespace reds {
class ColumnIndex;
class BinnedIndex;
}  // namespace reds

namespace reds::ml {

/// Metamodel families used in the paper ("f", "x", "s" suffixes).
enum class MetamodelKind {
  kRandomForest,  // "f"
  kGbt,           // "x" (XGBoost-style gradient boosted trees)
  kSvm,           // "s" (RBF-kernel SVM)
};

/// Returns "f"/"x"/"s", matching the paper's method-name suffixes.
std::string MetamodelSuffix(MetamodelKind kind);

/// Trained probabilistic binary classifier over [0,1]^M inputs.
class Metamodel {
 public:
  virtual ~Metamodel() = default;

  /// Fits the model on d (targets may be fractional; they are binarized at
  /// 0.5 where the learner needs hard labels).
  virtual void Fit(const Dataset& d, uint64_t seed) = 0;

  /// As Fit, optionally reusing prebuilt per-dataset indexes (e.g. the
  /// engine's or a CV loop's shared views of d): tree learners feed them
  /// to the presorted/histogram split search; families without columnar
  /// kernels ignore them. Results are identical either way.
  virtual void Fit(const Dataset& d, uint64_t seed,
                   const ColumnIndex* index,
                   const BinnedIndex* binned = nullptr) {
    (void)index;
    (void)binned;
    Fit(d, seed);
  }

  /// Fits on the given row subset of d. The default materializes the
  /// subset (d.SubsetRows) and runs the plain Fit; learners with columnar
  /// kernels override it to train on *views* through the full-data indexes
  /// instead, which is what keeps k-fold tuning at O(1 fold) extra
  /// residency (see ml/tuning.h). `rows` must be non-empty and ascending
  /// (fold row lists are); overrides rely on that to renumber positions
  /// order-preservingly so their result matches this default bit for bit
  /// where the backend index is exact.
  virtual void FitOnRows(const Dataset& d, const std::vector<int>& rows,
                         uint64_t seed, const ColumnIndex* index,
                         const BinnedIndex* binned) {
    (void)index;
    (void)binned;
    Fit(d.SubsetRows(rows), seed);
  }

  /// Estimated P(y = 1 | x); always in [0, 1]. `x` holds num_features()
  /// doubles.
  virtual double PredictProb(const double* x) const = 0;

  /// PredictProb over a row-major block: `x` holds `rows` consecutive rows
  /// of num_features() doubles and out[i] receives the probability of row
  /// i. Contract: out[i] is bit-identical to PredictProb(row i) -- an
  /// override may reorder work across rows and trees but never a row's own
  /// arithmetic, so there is nothing to configure and nothing to gate.
  /// This default loops over PredictProb, which stays the golden reference.
  virtual void PredictBlock(const double* x, int rows, double* out) const {
    const size_t m = static_cast<size_t>(num_features());
    for (int i = 0; i < rows; ++i) {
      out[i] = PredictProb(x + static_cast<size_t>(i) * m);
    }
  }

  /// Number of input features the model was fit on.
  virtual int num_features() const = 0;

  /// Hard label: PredictProb(x) > 0.5 (the paper's `bnd`, expressed on the
  /// probability scale for every model family).
  double PredictLabel(const double* x) const {
    return PredictProb(x) > 0.5 ? 1.0 : 0.0;
  }
};

}  // namespace reds::ml

#endif  // REDS_ML_MODEL_H_
