// Block-inference layouts of the tree ensembles, behind their
// Metamodel::PredictBlock overrides. Each is built once from the flat node
// arrays of ml/tree_wire.h (at the end of Fit and of DeserializeFrom) and
// leaves every row's arithmetic exactly as the per-row pointer walk does:
// the same `x[feature] <= threshold` comparisons select the same leaf, and
// the caller adds the leaf values in tree order.
//
//   * CompleteTrees (GBT). Every tree of depth <= kMaxDepth is padded to a
//     complete binary tree: a leaf above the bottom level is copied into
//     every bottom slot beneath it, so whichever way the padding splits
//     (feature 0, threshold +inf) send a row, it reaches the same value.
//     The walk is branchless, tree-outer and rows-inner over a block.
//   * QuickScorer (RF; Lucchese et al., SIGIR 2015). Per feature, every
//     split of the forest sorted by threshold. Each tree keeps a bitvector
//     over its leaves numbered left to right; a split the row fails
//     (!(x <= threshold)) clears the leaves of its left subtree, and the
//     exit leaf is the lowest surviving bit. Masks span as many 64-bit
//     words as the tree has leaves.
//
// A tree that fits no layout -- deeper than kMaxDepth, or a hand-made
// payload whose nodes share children -- is marked non-flat, and the caller
// keeps its pointer walk for that tree inside the same tree-order loop.
#ifndef REDS_ML_TREE_BLOCK_H_
#define REDS_ML_TREE_BLOCK_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace reds::ml {

class CompleteTrees {
 public:
  static constexpr int kMaxDepth = 8;

  /// Lays out the whole ensemble: tree t's nodes are nodes_of(t).
  template <typename Node, typename NodesOf>
  void Build(size_t num_trees, const NodesOf& nodes_of, double Node::*leaf);

  /// False also for a tree the layout has not seen (a load that failed
  /// half way), which then keeps its pointer walk.
  bool flat(size_t t) const {
    return t < trees_.size() && trees_[t].depth >= 0;
  }

  /// acc[r] += tree t's leaf value for row r of the row-major block `x`
  /// (`m` columns), r in [0, rows). Requires flat(t).
  void AddLeaves(size_t t, const double* x, int m, int rows,
                 double* acc) const;

 private:
  struct Split {
    double threshold = std::numeric_limits<double>::infinity();
    int feature = 0;
  };
  struct Tree {
    int depth = -1;  // -1: not flat
    size_t split_begin = 0;
    size_t leaf_begin = 0;
  };

  template <typename Node>
  void AddTree(const std::vector<Node>& nodes, double Node::*leaf);

  template <int kDepth>
  static void Walk(const Split* split, const double* leaf, const double* x,
                   int m, int rows, double* acc);

  std::vector<Tree> trees_;
  std::vector<Split> split_;  // per tree: 2^depth - 1 slots, heap order
  std::vector<double> leaf_;  // per tree: 2^depth bottom slots
};

class QuickScorer {
 public:
  /// Lays out the whole ensemble: tree t's nodes are nodes_of(t).
  template <typename Node, typename NodesOf>
  void Build(size_t num_trees, const NodesOf& nodes_of, double Node::*leaf,
             int num_features);

  bool flat(size_t t) const { return t < trees_.size() && trees_[t].flat; }

  /// Words of the per-row bitvector Mask fills.
  size_t num_words() const { return init_.size(); }

  /// Rows masked together: a feature's splits are read once per group and
  /// stay cache-resident while each row of the group applies them.
  static constexpr int kGroup = 16;

  /// For each of `rows` (<= kGroup) rows of the row-major block `x` (`m`
  /// columns), fills bitvector r -- num_words() words at
  /// bv + r * num_words() -- with every tree's surviving leaves.
  void Mask(const double* x, int m, int rows, uint64_t* bv) const {
    const size_t words = init_.size();
    const size_t stride = static_cast<size_t>(m);
    for (int r = 0; r < rows; ++r) {
      std::copy(init_.begin(), init_.end(),
                bv + static_cast<size_t>(r) * words);
    }
    for (size_t f = 0; f + 1 < feature_begin_.size(); ++f) {
      const size_t begin = feature_begin_[f];
      const size_t end = feature_begin_[f + 1];
      for (int r = 0; r < rows; ++r) {
        const double v = x[static_cast<size_t>(r) * stride + f];
        uint64_t* row_bv = bv + static_cast<size_t>(r) * words;
        // Thresholds ascend, so the failed splits are a prefix; a NaN
        // value fails every split, as in the pointer walk.
        const size_t cut = static_cast<size_t>(
            std::partition_point(threshold_.data() + begin,
                                 threshold_.data() + end,
                                 [v](double t) { return !(v <= t); }) -
            threshold_.data());
        for (size_t k = begin; k < cut; ++k) row_bv[word_[k]] &= mask_[k];
      }
    }
  }

  /// Exit-leaf value of flat tree t in a bitvector filled by Mask.
  double ExitLeaf(size_t t, const uint64_t* bv) const {
    const Tree& tree = trees_[t];
    size_t w = tree.word_begin;
    while (bv[w] == 0) ++w;  // the exit leaf always survives
    const size_t leaf = (w - tree.word_begin) * 64 +
                        static_cast<size_t>(std::countr_zero(bv[w]));
    return leaf_[tree.leaf_begin + leaf];
  }

 private:
  struct Tree {
    bool flat = false;
    size_t word_begin = 0;
    size_t leaf_begin = 0;
  };
  struct Op {
    int feature;
    double threshold;
    uint32_t word;
    uint64_t mask;
  };

  template <typename Node>
  void AddTree(const std::vector<Node>& nodes, double Node::*leaf,
               std::vector<Op>* ops);

  std::vector<Tree> trees_;
  std::vector<uint64_t> init_;  // all leaves, minus NaN-threshold splits
  std::vector<double> leaf_;    // per flat tree: leaf values, left to right
  // Per feature f: splits [feature_begin_[f], feature_begin_[f + 1]),
  // ascending by threshold.
  std::vector<size_t> feature_begin_;
  std::vector<double> threshold_;
  std::vector<uint32_t> word_;
  std::vector<uint64_t> mask_;
};

// --- CompleteTrees --------------------------------------------------------

// Every layout is built once and then kept next to its model (the engine
// caches many models), so the arrays are trimmed to their exact size.
template <typename Node, typename NodesOf>
void CompleteTrees::Build(size_t num_trees, const NodesOf& nodes_of,
                          double Node::*leaf) {
  trees_.clear();
  split_.clear();
  leaf_.clear();
  trees_.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) AddTree(nodes_of(t), leaf);
  split_.shrink_to_fit();
  leaf_.shrink_to_fit();
}

template <typename Node>
void CompleteTrees::AddTree(const std::vector<Node>& nodes,
                            double Node::*leaf) {
  // Depth by one reverse sweep (children point strictly forward in every
  // fitted or validated tree), so shared children cannot blow it up.
  const int n = static_cast<int>(nodes.size());
  std::vector<int> depth(nodes.size(), 0);
  bool ok = n > 0;
  for (int i = n - 1; i >= 0 && ok; --i) {
    const Node& nd = nodes[static_cast<size_t>(i)];
    if (nd.feature < 0) continue;
    ok = nd.left > i && nd.left < n && nd.right > i && nd.right < n;
    if (ok) {
      depth[static_cast<size_t>(i)] =
          1 + std::max(depth[static_cast<size_t>(nd.left)],
                       depth[static_cast<size_t>(nd.right)]);
      ok = depth[static_cast<size_t>(i)] <= kMaxDepth;
    }
  }
  Tree tree;
  if (!ok) {
    trees_.push_back(tree);
    return;
  }
  tree.depth = depth[0];
  tree.split_begin = split_.size();
  tree.leaf_begin = leaf_.size();
  const size_t first_leaf = (size_t{1} << tree.depth) - 1;
  split_.resize(split_.size() + first_leaf);
  leaf_.resize(leaf_.size() + first_leaf + 1);
  // Place node `node` at heap slot `slot`; a leaf above the bottom level
  // fills both child slots with itself (at most 2^kMaxDepth placements).
  struct Placer {
    const std::vector<Node>& nodes;
    double Node::*leaf;
    Split* split;
    double* leaves;
    size_t first_leaf;
    void Place(int node, size_t slot) const {
      const Node& nd = nodes[static_cast<size_t>(node)];
      if (slot >= first_leaf) {
        leaves[slot - first_leaf] = nd.*leaf;
        return;
      }
      if (nd.feature >= 0) {
        split[slot] = Split{nd.threshold, nd.feature};
        Place(nd.left, 2 * slot + 1);
        Place(nd.right, 2 * slot + 2);
      } else {
        Place(node, 2 * slot + 1);
        Place(node, 2 * slot + 2);
      }
    }
  };
  const Placer placer{nodes, leaf, split_.data() + tree.split_begin,
                      leaf_.data() + tree.leaf_begin, first_leaf};
  placer.Place(0, 0);
  trees_.push_back(tree);
}

template <int kDepth>
void CompleteTrees::Walk(const Split* split, const double* leaf,
                         const double* x, int m, int rows, double* acc) {
  constexpr size_t kFirstLeaf = (size_t{1} << kDepth) - 1;
  for (int r = 0; r < rows; ++r) {
    const double* row = x + static_cast<size_t>(r) * static_cast<size_t>(m);
    size_t slot = 0;
    for (int level = 0; level < kDepth; ++level) {
      const Split& s = split[slot];
      // Left iff x <= threshold, exactly the pointer walk's test.
      slot = 2 * slot + 2 - static_cast<size_t>(row[s.feature] <= s.threshold);
    }
    acc[r] += leaf[slot - kFirstLeaf];
  }
}

inline void CompleteTrees::AddLeaves(size_t t, const double* x, int m,
                                     int rows, double* acc) const {
  const Tree& tree = trees_[t];
  const Split* split = split_.data() + tree.split_begin;
  const double* leaf = leaf_.data() + tree.leaf_begin;
  switch (tree.depth) {
    case 0: return Walk<0>(split, leaf, x, m, rows, acc);
    case 1: return Walk<1>(split, leaf, x, m, rows, acc);
    case 2: return Walk<2>(split, leaf, x, m, rows, acc);
    case 3: return Walk<3>(split, leaf, x, m, rows, acc);
    case 4: return Walk<4>(split, leaf, x, m, rows, acc);
    case 5: return Walk<5>(split, leaf, x, m, rows, acc);
    case 6: return Walk<6>(split, leaf, x, m, rows, acc);
    case 7: return Walk<7>(split, leaf, x, m, rows, acc);
    default: return Walk<kMaxDepth>(split, leaf, x, m, rows, acc);
  }
}

// --- QuickScorer ----------------------------------------------------------

template <typename Node, typename NodesOf>
void QuickScorer::Build(size_t num_trees, const NodesOf& nodes_of,
                        double Node::*leaf, int num_features) {
  trees_.clear();
  init_.clear();
  leaf_.clear();
  trees_.reserve(num_trees);
  std::vector<Op> ops;
  for (size_t t = 0; t < num_trees; ++t) AddTree(nodes_of(t), leaf, &ops);
  init_.shrink_to_fit();
  leaf_.shrink_to_fit();
  // Ties in threshold may land in either order: ANDs commute.
  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.feature != b.feature ? a.feature < b.feature
                                  : a.threshold < b.threshold;
  });
  feature_begin_.assign(static_cast<size_t>(num_features) + 1, 0);
  threshold_.resize(ops.size());
  word_.resize(ops.size());
  mask_.resize(ops.size());
  for (size_t k = 0; k < ops.size(); ++k) {
    ++feature_begin_[static_cast<size_t>(ops[k].feature) + 1];
    threshold_[k] = ops[k].threshold;
    word_[k] = ops[k].word;
    mask_[k] = ops[k].mask;
  }
  for (size_t f = 1; f < feature_begin_.size(); ++f) {
    feature_begin_[f] += feature_begin_[f - 1];
  }
}

template <typename Node>
void QuickScorer::AddTree(const std::vector<Node>& nodes, double Node::*leaf,
                          std::vector<Op>* ops) {
  Tree tree;
  const int n = static_cast<int>(nodes.size());
  // Pre-order walk, left child first, numbering leaves left to right. For
  // a split, its left subtree's leaves are [left_begin, right_begin). A
  // node reached twice (shared children) or an out-of-range child means
  // the nodes do not form a tree: that tree keeps its pointer walk.
  struct Frame {
    int node;
    int right_of;  // the split whose right child this is; -1 otherwise
  };
  std::vector<uint8_t> seen(nodes.size(), 0);
  std::vector<int> left_begin(nodes.size(), 0);
  std::vector<int> right_begin(nodes.size(), 0);
  std::vector<double> leaves;
  std::vector<Frame> stack{{0, -1}};
  bool ok = n > 0;
  while (ok && !stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    ok = frame.node >= 0 && frame.node < n &&
         !seen[static_cast<size_t>(frame.node)];
    if (!ok) break;
    seen[static_cast<size_t>(frame.node)] = 1;
    const int count = static_cast<int>(leaves.size());
    if (frame.right_of >= 0) {
      right_begin[static_cast<size_t>(frame.right_of)] = count;
    }
    const Node& nd = nodes[static_cast<size_t>(frame.node)];
    if (nd.feature < 0) {
      leaves.push_back(nd.*leaf);
      continue;
    }
    left_begin[static_cast<size_t>(frame.node)] = count;
    stack.push_back({nd.right, frame.node});
    stack.push_back({nd.left, -1});
  }
  if (!ok) {
    trees_.push_back(tree);
    return;
  }
  tree.flat = true;
  tree.word_begin = init_.size();
  tree.leaf_begin = leaf_.size();
  leaf_.insert(leaf_.end(), leaves.begin(), leaves.end());
  const size_t num_leaves = leaves.size();
  for (size_t w = 0; w * 64 < num_leaves; ++w) {
    const size_t live = std::min<size_t>(64, num_leaves - w * 64);
    init_.push_back(live == 64 ? ~uint64_t{0} : (uint64_t{1} << live) - 1);
  }
  for (int i = 0; i < n; ++i) {
    const Node& nd = nodes[static_cast<size_t>(i)];
    if (!seen[static_cast<size_t>(i)] || nd.feature < 0) continue;
    // Clear leaves [lo, hi), one op per 64-bit word the range touches.
    const size_t lo = static_cast<size_t>(left_begin[static_cast<size_t>(i)]);
    const size_t hi = static_cast<size_t>(right_begin[static_cast<size_t>(i)]);
    for (size_t w = lo / 64; w * 64 < hi; ++w) {
      const size_t a = std::max(lo, w * 64) - w * 64;
      const size_t b = std::min(hi, w * 64 + 64) - w * 64;
      const uint64_t bits =
          (b - a == 64 ? ~uint64_t{0} : ((uint64_t{1} << (b - a)) - 1)) << a;
      const size_t word = tree.word_begin + w;
      if (std::isnan(nd.threshold)) {
        init_[word] &= ~bits;  // x <= NaN never holds: always failed
      } else {
        ops->push_back(Op{nd.feature, nd.threshold,
                          static_cast<uint32_t>(word), ~bits});
      }
    }
  }
  trees_.push_back(tree);
}

}  // namespace reds::ml

#endif  // REDS_ML_TREE_BLOCK_H_
