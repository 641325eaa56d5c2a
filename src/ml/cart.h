// CART-style binary regression tree (exact greedy, variance-reduction
// splitting). With {0,1} targets this is equivalent to Gini splitting; leaf
// values are class-1 probabilities. Building block of the random forest.
//
// Split search runs on one of three backends (TreeConfig::backend): the
// reference sort-per-node scan (kExact), presorted per-feature index arrays
// partitioned down the tree (kPresorted, bit-identical to exact), or binned
// gradient histograms over a BinnedIndex (kHistogram: O(bins) scans with
// parent-minus-sibling subtraction; identical to exact for {0,1} targets
// whenever every feature has at most 256 distinct values -- see
// ml/histogram.h for the precise equivalence contract).
#ifndef REDS_ML_CART_H_
#define REDS_ML_CART_H_

#include <cstdint>
#include <vector>

#include "core/binned_index.h"
#include "core/column_index.h"
#include "core/dataset.h"
#include "ml/histogram.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace reds::ml {

/// Growth limits for a single tree.
struct TreeConfig {
  int max_depth = -1;        // -1: unlimited
  int min_samples_leaf = 1;  // minimal rows per leaf
  int min_samples_split = 2; // minimal rows to attempt a split
  int mtry = -1;             // features sampled per split; -1: all
  double min_gain = 1e-12;   // minimal SSE reduction to accept a split
  SplitBackend backend = SplitBackend::kPresorted;
  int threads = 1;           // feature-parallel split search when > 1
};

/// A fitted regression tree. Nodes are stored in a flat array.
class RegressionTree {
 public:
  /// Fits the tree on the given rows of d (duplicates allowed, enabling
  /// bootstrap samples). `rng` drives mtry feature subsampling. Pass a
  /// prebuilt ColumnIndex of d to derive the per-feature sorted orders by
  /// counting instead of comparison sorts (the forest shares one index
  /// across all trees); when null, orders are sorted per fit. The
  /// histogram backend additionally takes the dataset's BinnedIndex
  /// (built privately when null).
  void Fit(const Dataset& d, const std::vector<int>& rows,
           const TreeConfig& config, Rng* rng,
           const ColumnIndex* index = nullptr,
           const BinnedIndex* binned = nullptr);

  /// Convenience: fit on all rows.
  void Fit(const Dataset& d, const TreeConfig& config, Rng* rng,
           const ColumnIndex* index = nullptr,
           const BinnedIndex* binned = nullptr);

  /// Mean target of the leaf containing x.
  double Predict(const double* x) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_leaves() const;
  int depth() const;
  bool fitted() const { return !nodes_.empty(); }

  /// Appends the fitted tree (flat node array) to `out` in the stable
  /// little-endian cache layout.
  void SerializeTo(util::ByteWriter* out) const;

  /// Restores a tree written by SerializeTo. Validates that split features
  /// lie in [0, num_features), and that children point strictly forward in
  /// the node array (true of every fitted tree, which appends children
  /// after their parent) -- so even a checksum-valid but hostile payload
  /// cannot produce out-of-bounds reads or a non-terminating Predict.
  Status DeserializeFrom(util::ByteReader* in, int num_features);

  struct Node {
    int feature = -1;        // -1: leaf
    double threshold = 0.0;  // go left iff x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;      // leaf prediction (mean target)
  };

  /// The flat node array (root first), for block-inference layouts
  /// (ml/tree_block.h) that re-lay the fitted tree out.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:

  struct FitContext;

  int Build(FitContext* ctx, int begin, int end, int depth);
  int BuildHistogram(FitContext* ctx, int begin, int end, int depth,
                     std::vector<HistBin> hist);
  int BuildReference(const Dataset& d, std::vector<int>* rows, int begin,
                     int end, int depth, const TreeConfig& config, Rng* rng);
  int DepthOf(int node) const;

  std::vector<Node> nodes_;
};

}  // namespace reds::ml

#endif  // REDS_ML_CART_H_
