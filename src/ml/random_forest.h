// Random forest (Breiman 2001): bagged fully-grown CART trees with per-split
// feature subsampling. PredictProb averages leaf means, approximating
// P(y=1|x) -- exactly what REDS's "RPf"/"RPfp" variants need.
#ifndef REDS_ML_RANDOM_FOREST_H_
#define REDS_ML_RANDOM_FOREST_H_

#include <vector>

#include "ml/cart.h"
#include "ml/model.h"
#include "ml/tree_block.h"
#include "util/serialize.h"
#include "util/status.h"

namespace reds::ml {

struct RandomForestConfig {
  int num_trees = 200;
  int mtry = -1;             // -1: floor(sqrt(M)), the classification default
  int min_samples_leaf = 1;  // fully grown trees, as in Breiman's classifier
  int max_depth = -1;
  double sample_fraction = 1.0;  // bootstrap sample size as share of N
  SplitBackend backend = SplitBackend::kPresorted;
  int fit_threads = 1;       // trees fit in parallel when > 1 (each tree has
                             // its own seed stream, so results are identical)
};

class RandomForest : public Metamodel {
 public:
  explicit RandomForest(RandomForestConfig config = {}) : config_(config) {}

  void Fit(const Dataset& d, uint64_t seed) override;

  /// As Fit, reusing prebuilt indexes of d (e.g. the discovery engine's
  /// shared per-dataset caches); all trees derive their presorted feature
  /// orders from `index` by counting instead of sorting, or share the
  /// `binned` quantization under the histogram backend.
  void Fit(const Dataset& d, uint64_t seed, const ColumnIndex* index,
           const BinnedIndex* binned = nullptr) override;

  /// Subset fit on views: bootstrap draws map into `rows`, and every tree
  /// derives its orders/codes from the full-data indexes (the same
  /// mechanism ordinary bootstrap fits already use), so no fold dataset or
  /// fold index is ever materialized. Trees are bit-identical to the
  /// materializing default where the backend index is exact (presorted
  /// always; histogram in the exact-pack regime). In-bag counts are
  /// recorded at full-data row ids, so OOB accessors pair with `d`, not
  /// the subset. Falls back to the default when the index is missing.
  void FitOnRows(const Dataset& d, const std::vector<int>& rows,
                 uint64_t seed, const ColumnIndex* index,
                 const BinnedIndex* binned) override;

  double PredictProb(const double* x) const override;

  /// QuickScorer over the forest's splits (ml/tree_block.h), one row at a
  /// time; each row still sums the trees' leaf values in tree order before
  /// the divide and clamp, so out[i] == PredictProb(row i) bit for bit.
  void PredictBlock(const double* x, int rows, double* out) const override;
  int num_features() const override { return num_features_; }

  int num_trees() const { return static_cast<int>(trees_.size()); }
  const RegressionTree& tree(int t) const {
    return trees_[static_cast<size_t>(t)];
  }
  const RandomForestConfig& config() const { return config_; }

  /// Out-of-bag probability estimates for the training rows: row i is
  /// averaged over the trees whose bootstrap sample missed i. Rows that were
  /// in every bag get the full-forest prediction. `d` must be the training
  /// dataset passed to Fit; when the recorded bag counts don't match `d`
  /// (wrong dataset, cache-loaded model paired with other data) every row
  /// falls back to the full-forest prediction.
  std::vector<double> OobPredictions(const Dataset& d) const;

  /// Out-of-bag misclassification rate (targets binarized at 0.5). NaN
  /// when the bag counts don't match `d` -- a full-forest fallback here
  /// would masquerade as an (optimistic) OOB estimate.
  double OobError(const Dataset& d) const;

  /// Permutation importance: mean increase in out-of-bag misclassification
  /// when feature j's values are shuffled. One entry per feature; higher
  /// means more important. `seed` drives the permutations.
  std::vector<double> PermutationImportance(const Dataset& d,
                                            uint64_t seed) const;

  /// Appends the fitted forest (trees + in-bag counts, so the OOB metrics
  /// survive a reload) to `out` in the stable little-endian cache layout.
  void SerializeTo(util::ByteWriter* out) const;

  /// Restores a forest written by SerializeTo.
  Status DeserializeFrom(util::ByteReader* in);

 private:
  /// True when the recorded bag counts line up with `d` (one count per
  /// training row per tree) -- the single validity rule behind every OOB
  /// accessor.
  bool OobStateMatches(const Dataset& d) const;

  /// The per-tree config derived from config_ for a dataset with
  /// `num_cols` features (mtry default = floor(sqrt(M))).
  TreeConfig MakeTreeConfig(int num_cols) const;

  /// Rebuilds block_ from trees_ (end of every fit and load).
  void BuildBlockLayout();

  RandomForestConfig config_;
  std::vector<RegressionTree> trees_;
  QuickScorer block_;  // PredictBlock's layout of trees_
  std::vector<std::vector<int>> in_bag_counts_;  // per tree, per training row
  int num_features_ = 0;
};

}  // namespace reds::ml

#endif  // REDS_ML_RANDOM_FOREST_H_
