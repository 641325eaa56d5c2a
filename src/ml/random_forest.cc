#include "ml/random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>

#include "util/thread_pool.h"

namespace reds::ml {

std::string MetamodelSuffix(MetamodelKind kind) {
  switch (kind) {
    case MetamodelKind::kRandomForest:
      return "f";
    case MetamodelKind::kGbt:
      return "x";
    case MetamodelKind::kSvm:
      return "s";
  }
  return "?";
}

void RandomForest::Fit(const Dataset& d, uint64_t seed) {
  Fit(d, seed, nullptr, nullptr);
}

TreeConfig RandomForest::MakeTreeConfig(int num_cols) const {
  TreeConfig tree_config;
  tree_config.mtry = config_.mtry > 0
                         ? config_.mtry
                         : std::max(1, static_cast<int>(std::sqrt(
                                           static_cast<double>(num_cols))));
  tree_config.min_samples_leaf = config_.min_samples_leaf;
  tree_config.min_samples_split = std::max(2, 2 * config_.min_samples_leaf);
  tree_config.max_depth = config_.max_depth;
  tree_config.backend = config_.backend;
  return tree_config;
}

void RandomForest::Fit(const Dataset& d, uint64_t seed,
                       const ColumnIndex* index, const BinnedIndex* binned) {
  assert(d.num_rows() > 0);
  num_features_ = d.num_cols();
  const TreeConfig tree_config = MakeTreeConfig(d.num_cols());

  // One columnar index (and, for the histogram backend, one quantization)
  // serves every tree; each derives its bootstrap sample's views from the
  // shared structures instead of rebuilding them.
  std::shared_ptr<const ColumnIndex> owned;
  if (config_.backend != SplitBackend::kExact && index == nullptr) {
    owned = ColumnIndex::Build(d);
    index = owned.get();
  }
  std::shared_ptr<const BinnedIndex> owned_binned;
  if (config_.backend == SplitBackend::kHistogram && binned == nullptr) {
    owned_binned = BinnedIndex::Build(*index);
    binned = owned_binned.get();
  }
  if (config_.backend == SplitBackend::kExact) {
    index = nullptr;
    binned = nullptr;
  }

  const int bag_size = std::max(
      1, static_cast<int>(std::lround(config_.sample_fraction * d.num_rows())));

  trees_.assign(static_cast<size_t>(config_.num_trees), RegressionTree());
  in_bag_counts_.assign(static_cast<size_t>(config_.num_trees),
                        std::vector<int>(static_cast<size_t>(d.num_rows()), 0));
  auto fit_tree = [&](int t) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(t)));
    std::vector<int> rows(static_cast<size_t>(bag_size));
    for (auto& r : rows) {
      r = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(d.num_rows())));
      in_bag_counts_[static_cast<size_t>(t)][static_cast<size_t>(r)]++;
    }
    trees_[static_cast<size_t>(t)].Fit(d, rows, tree_config, &rng, index,
                                       binned);
  };
  if (config_.fit_threads > 1) {
    // Trees are seeded independently, so the parallel fit is deterministic
    // and identical to the serial one.
    ParallelFor(0, config_.num_trees, fit_tree, config_.fit_threads);
  } else {
    for (int t = 0; t < config_.num_trees; ++t) fit_tree(t);
  }
  BuildBlockLayout();
}

void RandomForest::FitOnRows(const Dataset& d, const std::vector<int>& rows,
                             uint64_t seed, const ColumnIndex* index,
                             const BinnedIndex* binned) {
  const bool have_views =
      (config_.backend == SplitBackend::kPresorted && index != nullptr) ||
      (config_.backend == SplitBackend::kHistogram && index != nullptr &&
       binned != nullptr);
  if (!have_views) {
    Metamodel::FitOnRows(d, rows, seed, index, binned);
    return;
  }
  assert(!rows.empty());
  num_features_ = d.num_cols();
  const TreeConfig tree_config = MakeTreeConfig(d.num_cols());

  // Bootstrap draws index into `rows`, so each bag is a sample of the
  // subset; RegressionTree::Fit already handles arbitrary row lists with
  // duplicates against the shared full-data index (that is how ordinary
  // bootstrap fits work), so no fold dataset or index is materialized.
  // The draw sequence matches the materializing default's draws over the
  // renumbered subset position for position.
  const int n_fit = static_cast<int>(rows.size());
  const int bag_size = std::max(
      1, static_cast<int>(std::lround(config_.sample_fraction * n_fit)));

  trees_.assign(static_cast<size_t>(config_.num_trees), RegressionTree());
  // Bag counts are recorded at full-data row ids so OobStateMatches pairs
  // the fitted model with `d`; out-of-fold rows read as never-in-bag.
  in_bag_counts_.assign(static_cast<size_t>(config_.num_trees),
                        std::vector<int>(static_cast<size_t>(d.num_rows()), 0));
  auto fit_tree = [&](int t) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(t)));
    std::vector<int> bag(static_cast<size_t>(bag_size));
    for (auto& r : bag) {
      r = rows[rng.UniformInt(static_cast<uint64_t>(n_fit))];
      in_bag_counts_[static_cast<size_t>(t)][static_cast<size_t>(r)]++;
    }
    trees_[static_cast<size_t>(t)].Fit(d, bag, tree_config, &rng, index,
                                       binned);
  };
  if (config_.fit_threads > 1) {
    ParallelFor(0, config_.num_trees, fit_tree, config_.fit_threads);
  } else {
    for (int t = 0; t < config_.num_trees; ++t) fit_tree(t);
  }
  BuildBlockLayout();
}

void RandomForest::BuildBlockLayout() {
  block_.Build(
      trees_.size(),
      [this](size_t t) -> const std::vector<RegressionTree::Node>& {
        return trees_[t].nodes();
      },
      &RegressionTree::Node::value, num_features_);
}

bool RandomForest::OobStateMatches(const Dataset& d) const {
  return in_bag_counts_.size() == trees_.size() && !in_bag_counts_.empty() &&
         in_bag_counts_.front().size() == static_cast<size_t>(d.num_rows());
}

std::vector<double> RandomForest::OobPredictions(const Dataset& d) const {
  assert(!trees_.empty());
  // Hard check (not just an assert): `d` must be the training dataset the
  // bag counts were recorded for. On mismatch -- wrong dataset, or a
  // cache-loaded model paired with other data -- fall back to full-forest
  // predictions instead of indexing past the count vectors.
  if (!OobStateMatches(d)) {
    std::vector<double> out(static_cast<size_t>(d.num_rows()));
    for (int i = 0; i < d.num_rows(); ++i) {
      out[static_cast<size_t>(i)] = PredictProb(d.row(i));
    }
    return out;
  }
  std::vector<double> sum(static_cast<size_t>(d.num_rows()), 0.0);
  std::vector<int> votes(static_cast<size_t>(d.num_rows()), 0);
  for (size_t t = 0; t < trees_.size(); ++t) {
    for (int i = 0; i < d.num_rows(); ++i) {
      if (in_bag_counts_[t][static_cast<size_t>(i)] == 0) {
        sum[static_cast<size_t>(i)] += trees_[t].Predict(d.row(i));
        votes[static_cast<size_t>(i)]++;
      }
    }
  }
  std::vector<double> out(static_cast<size_t>(d.num_rows()));
  for (int i = 0; i < d.num_rows(); ++i) {
    out[static_cast<size_t>(i)] =
        votes[static_cast<size_t>(i)] > 0
            ? sum[static_cast<size_t>(i)] / votes[static_cast<size_t>(i)]
            : PredictProb(d.row(i));
  }
  return out;
}

double RandomForest::OobError(const Dataset& d) const {
  // OobPredictions degrades to full-forest (in-bag) predictions when the
  // bag counts don't match `d`; reporting those as an "OOB" error would be
  // an optimistically biased resubstitution estimate, so make the mismatch
  // visible instead of silently flattering the model.
  if (!OobStateMatches(d)) return std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> prob = OobPredictions(d);
  int wrong = 0;
  for (int i = 0; i < d.num_rows(); ++i) {
    wrong += (prob[static_cast<size_t>(i)] > 0.5) != (d.y(i) > 0.5) ? 1 : 0;
  }
  return static_cast<double>(wrong) / d.num_rows();
}

std::vector<double> RandomForest::PermutationImportance(const Dataset& d,
                                                        uint64_t seed) const {
  // Same hard check as OobPredictions: without matching bag counts there
  // is no out-of-bag signal to permute against, so report zero importance
  // instead of indexing past the count vectors.
  if (!OobStateMatches(d)) {
    return std::vector<double>(static_cast<size_t>(d.num_cols()), 0.0);
  }
  const double baseline = OobError(d);
  std::vector<double> importance(static_cast<size_t>(d.num_cols()), 0.0);
  Rng rng(DeriveSeed(seed, 0x19f0));
  std::vector<double> row(static_cast<size_t>(d.num_cols()));
  for (int j = 0; j < d.num_cols(); ++j) {
    // Shuffled copy of column j.
    std::vector<double> column(static_cast<size_t>(d.num_rows()));
    for (int i = 0; i < d.num_rows(); ++i) column[static_cast<size_t>(i)] = d.x(i, j);
    rng.Shuffle(&column);
    // OOB error with the permuted column.
    std::vector<double> sum(static_cast<size_t>(d.num_rows()), 0.0);
    std::vector<int> votes(static_cast<size_t>(d.num_rows()), 0);
    for (size_t t = 0; t < trees_.size(); ++t) {
      for (int i = 0; i < d.num_rows(); ++i) {
        if (in_bag_counts_[t][static_cast<size_t>(i)] != 0) continue;
        for (int c = 0; c < d.num_cols(); ++c) row[static_cast<size_t>(c)] = d.x(i, c);
        row[static_cast<size_t>(j)] = column[static_cast<size_t>(i)];
        sum[static_cast<size_t>(i)] += trees_[t].Predict(row.data());
        votes[static_cast<size_t>(i)]++;
      }
    }
    int wrong = 0, counted = 0;
    for (int i = 0; i < d.num_rows(); ++i) {
      if (votes[static_cast<size_t>(i)] == 0) continue;
      ++counted;
      const double p = sum[static_cast<size_t>(i)] / votes[static_cast<size_t>(i)];
      wrong += (p > 0.5) != (d.y(i) > 0.5) ? 1 : 0;
    }
    const double permuted_error =
        counted > 0 ? static_cast<double>(wrong) / counted : baseline;
    importance[static_cast<size_t>(j)] = permuted_error - baseline;
  }
  return importance;
}

double RandomForest::PredictProb(const double* x) const {
  assert(!trees_.empty());
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.Predict(x);
  const double p = sum / static_cast<double>(trees_.size());
  return std::clamp(p, 0.0, 1.0);
}

void RandomForest::PredictBlock(const double* x, int rows,
                                double* out) const {
  assert(!trees_.empty());
  const size_t m = static_cast<size_t>(num_features_);
  const size_t words = block_.num_words();
  std::vector<uint64_t> leaves(words * QuickScorer::kGroup);
  for (int begin = 0; begin < rows; begin += QuickScorer::kGroup) {
    const int n = std::min(QuickScorer::kGroup, rows - begin);
    const double* xb = x + static_cast<size_t>(begin) * m;
    block_.Mask(xb, num_features_, n, leaves.data());
    for (int r = 0; r < n; ++r) {
      const double* row = xb + static_cast<size_t>(r) * m;
      const uint64_t* row_leaves =
          leaves.data() + static_cast<size_t>(r) * words;
      double sum = 0.0;
      for (size_t t = 0; t < trees_.size(); ++t) {
        sum += block_.flat(t) ? block_.ExitLeaf(t, row_leaves)
                              : trees_[t].Predict(row);
      }
      const double p = sum / static_cast<double>(trees_.size());
      out[begin + r] = std::clamp(p, 0.0, 1.0);
    }
  }
}

void RandomForest::SerializeTo(util::ByteWriter* out) const {
  out->I32(num_features_);
  out->U64(trees_.size());
  for (const RegressionTree& tree : trees_) tree.SerializeTo(out);
  out->U64(in_bag_counts_.size());
  for (const std::vector<int>& counts : in_bag_counts_) out->VecI32(counts);
}

Status RandomForest::DeserializeFrom(util::ByteReader* in) {
  block_ = QuickScorer();
  num_features_ = in->I32();
  const uint64_t num_trees = in->U64();
  // Zero trees would make PredictProb average over nothing (NaN); every
  // fitted forest has at least one.
  if (!in->ok() || num_features_ <= 0 || num_trees == 0 ||
      num_trees > in->remaining() / 8) {
    return Status::InvalidArgument("corrupt forest: header");
  }
  trees_.assign(static_cast<size_t>(num_trees), RegressionTree());
  for (RegressionTree& tree : trees_) {
    const Status s = tree.DeserializeFrom(in, num_features_);
    if (!s.ok()) return s;
  }
  BuildBlockLayout();
  const uint64_t num_bags = in->U64();
  if (!in->ok() || num_bags != num_trees) {
    return Status::InvalidArgument("corrupt forest: bag counts");
  }
  in_bag_counts_.assign(static_cast<size_t>(num_bags), {});
  for (std::vector<int>& counts : in_bag_counts_) {
    counts = in->VecI32();
    // Every fitted tree records one count per training row: uniform
    // lengths and non-negative entries, or the payload is hostile.
    if (counts.size() != in_bag_counts_.front().size()) {
      return Status::InvalidArgument("corrupt forest: bag count shape");
    }
    for (int c : counts) {
      if (c < 0) return Status::InvalidArgument("corrupt forest: bag count");
    }
  }
  if (!in->ok()) return Status::InvalidArgument("corrupt forest: truncated");
  return Status::OK();
}

}  // namespace reds::ml
