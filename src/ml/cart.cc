#include "ml/cart.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>

#include "ml/order_partition.h"
#include "ml/tree_wire.h"
#include "util/thread_pool.h"

namespace reds::ml {

namespace {

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
  int left_count = 0;
};

}  // namespace

// Presorted fit state. Inputs are gathered once into column-major arrays
// indexed by *position* (0..n) into the fitted row list; order[f] keeps the
// positions of each tree node contiguous and ascending by feature f's value,
// maintained by stable partitioning as the tree splits. pos_of mirrors the
// reference implementation's row array: partitioned unstably with the same
// boolean sequence, it reproduces the reference's permutation, so node sums
// accumulate in the exact same order.
struct RegressionTree::FitContext {
  const TreeConfig* config = nullptr;
  Rng* rng = nullptr;
  int n = 0;
  int num_features = 0;
  std::vector<double> xv;               // xv[f * n + p]: x(rows[p], f)
  std::vector<double> yv;               // yv[p]: y(rows[p])
  std::vector<std::vector<int>> order;  // per feature: positions by value
  std::vector<int> pos_of;              // reference-order view of positions
  std::vector<uint8_t> goes_left;       // per position, scratch
  std::vector<int> scratch;             // partition scratch
  std::unique_ptr<ThreadPool> pool;     // feature-parallel split search
  // Histogram backend only:
  const BinnedIndex* binned = nullptr;
  std::vector<uint8_t> codes;           // codes[f * n + p]: bin of x(rows[p], f)
  int hist_stride = 0;                  // bins reserved per feature slot
  bool subtract = false;                // parent-minus-sibling (off under mtry)
  std::unique_ptr<HistogramPool> hist_pool;
};

void RegressionTree::Fit(const Dataset& d, const std::vector<int>& rows,
                         const TreeConfig& config, Rng* rng,
                         const ColumnIndex* index, const BinnedIndex* binned) {
  nodes_.clear();
  assert(!rows.empty());
  if (config.backend == SplitBackend::kExact) {
    std::vector<int> work(rows);
    BuildReference(d, &work, 0, static_cast<int>(work.size()), 0, config, rng);
    return;
  }

  FitContext ctx;
  ctx.config = &config;
  ctx.rng = rng;
  const int n = static_cast<int>(rows.size());
  ctx.n = n;
  ctx.num_features = d.num_cols();
  ctx.yv.resize(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    ctx.yv[static_cast<size_t>(p)] = d.y(rows[static_cast<size_t>(p)]);
  }
  ctx.xv.resize(static_cast<size_t>(ctx.num_features) * static_cast<size_t>(n));
  for (int f = 0; f < ctx.num_features; ++f) {
    double* col = &ctx.xv[static_cast<size_t>(f) * static_cast<size_t>(n)];
    if (index != nullptr) {
      const std::vector<double>& src = index->column(f);
      for (int p = 0; p < n; ++p) {
        col[p] = src[static_cast<size_t>(rows[static_cast<size_t>(p)])];
      }
    } else {
      for (int p = 0; p < n; ++p) col[p] = d.x(rows[static_cast<size_t>(p)], f);
    }
  }

  if (config.backend == SplitBackend::kHistogram) {
    // Bin codes per position instead of per-feature sorted orders: node
    // histograms are rebuilt (or subtracted) down the tree, so no order
    // arrays need to be partitioned.
    std::shared_ptr<const BinnedIndex> owned_binned;
    if (binned == nullptr) {
      owned_binned = index != nullptr ? BinnedIndex::Build(*index)
                                      : BinnedIndex::Build(d);
      binned = owned_binned.get();
    }
    assert(binned->num_rows() == d.num_rows() &&
           binned->num_cols() == d.num_cols());
    ctx.binned = binned;
    ctx.codes.resize(static_cast<size_t>(ctx.num_features) *
                     static_cast<size_t>(n));
    for (int f = 0; f < ctx.num_features; ++f) {
      uint8_t* col = &ctx.codes[static_cast<size_t>(f) * static_cast<size_t>(n)];
      const ColumnView<uint8_t> src = binned->codes(f);
      for (int p = 0; p < n; ++p) {
        col[p] = src[static_cast<size_t>(rows[static_cast<size_t>(p)])];
      }
    }
    ctx.hist_stride = binned->max_bins();
    ctx.subtract = !(config.mtry > 0 && config.mtry < ctx.num_features);
    ctx.hist_pool = std::make_unique<HistogramPool>(
        static_cast<size_t>(ctx.num_features) *
        static_cast<size_t>(ctx.hist_stride));
    ctx.pos_of.resize(static_cast<size_t>(n));
    std::iota(ctx.pos_of.begin(), ctx.pos_of.end(), 0);
    ctx.goes_left.resize(static_cast<size_t>(n));
    if (config.threads > 1 && ctx.num_features > 1) {
      ctx.pool = std::make_unique<ThreadPool>(config.threads);
    }
    BuildHistogram(&ctx, 0, n, 0, {});
    return;
  }

  ctx.order.resize(static_cast<size_t>(ctx.num_features));
  if (index != nullptr) {
    assert(index->num_rows() == d.num_rows() &&
           index->num_cols() == d.num_cols());
    // Derive each feature's position order from the dataset-wide permutation
    // by counting: bucket the fit positions by row id, then emit buckets in
    // permutation order. O(N + n) per feature, no comparison sort; handles
    // bootstrap duplicates naturally (a row's positions emit adjacently).
    std::vector<int> start(static_cast<size_t>(d.num_rows()) + 1, 0);
    for (int p = 0; p < n; ++p) {
      ++start[static_cast<size_t>(rows[static_cast<size_t>(p)]) + 1];
    }
    for (size_t r = 1; r < start.size(); ++r) start[r] += start[r - 1];
    std::vector<int> slots(static_cast<size_t>(n));
    {
      std::vector<int> cursor(start.begin(), start.end() - 1);
      for (int p = 0; p < n; ++p) {
        slots[static_cast<size_t>(
            cursor[static_cast<size_t>(rows[static_cast<size_t>(p)])]++)] = p;
      }
    }
    for (int f = 0; f < ctx.num_features; ++f) {
      std::vector<int>& ord = ctx.order[static_cast<size_t>(f)];
      ord.reserve(static_cast<size_t>(n));
      for (int r : index->sorted_rows(f)) {
        for (int s = start[static_cast<size_t>(r)];
             s < start[static_cast<size_t>(r) + 1]; ++s) {
          ord.push_back(slots[static_cast<size_t>(s)]);
        }
      }
    }
  } else {
    for (int f = 0; f < ctx.num_features; ++f) {
      std::vector<int>& ord = ctx.order[static_cast<size_t>(f)];
      ord.resize(static_cast<size_t>(n));
      std::iota(ord.begin(), ord.end(), 0);
      const double* col =
          &ctx.xv[static_cast<size_t>(f) * static_cast<size_t>(n)];
      // Tie-break by (row id, position) to reproduce the index-derived
      // order exactly: fits must not depend on whether an index was passed
      // (the engine's cached-vs-inline determinism contract).
      std::sort(ord.begin(), ord.end(), [col, &rows](int a, int b) {
        if (col[a] != col[b]) return col[a] < col[b];
        const int ra = rows[static_cast<size_t>(a)];
        const int rb = rows[static_cast<size_t>(b)];
        if (ra != rb) return ra < rb;
        return a < b;
      });
    }
  }

  ctx.pos_of.resize(static_cast<size_t>(n));
  std::iota(ctx.pos_of.begin(), ctx.pos_of.end(), 0);
  ctx.goes_left.resize(static_cast<size_t>(n));
  ctx.scratch.resize(static_cast<size_t>(n));
  if (config.threads > 1 && ctx.num_features > 1) {
    ctx.pool = std::make_unique<ThreadPool>(config.threads);
  }
  Build(&ctx, 0, n, 0);
}

void RegressionTree::Fit(const Dataset& d, const TreeConfig& config, Rng* rng,
                         const ColumnIndex* index, const BinnedIndex* binned) {
  std::vector<int> rows(static_cast<size_t>(d.num_rows()));
  std::iota(rows.begin(), rows.end(), 0);
  Fit(d, rows, config, rng, index, binned);
}

int RegressionTree::Build(FitContext* ctx, int begin, int end, int depth) {
  const TreeConfig& config = *ctx->config;
  const int n = end - begin;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = begin; i < end; ++i) {
    const double y =
        ctx->yv[static_cast<size_t>(ctx->pos_of[static_cast<size_t>(i)])];
    sum += y;
    sum_sq += y * y;
  }
  const double mean = sum / n;

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_index)].value = mean;

  const bool depth_ok = config.max_depth < 0 || depth < config.max_depth;
  const double sse = sum_sq - sum * sum / n;
  if (!depth_ok || n < config.min_samples_split || sse <= config.min_gain) {
    return node_index;
  }

  // Choose candidate features (mtry subsampling for forests).
  const int num_features = ctx->num_features;
  std::vector<int> features;
  if (config.mtry > 0 && config.mtry < num_features) {
    features = ctx->rng->SampleWithoutReplacement(num_features, config.mtry);
  } else {
    features.resize(static_cast<size_t>(num_features));
    std::iota(features.begin(), features.end(), 0);
  }

  auto search_feature = [&](size_t fi) {
    SplitCandidate cand;
    const int f = features[fi];
    const std::vector<int>& ord = ctx->order[static_cast<size_t>(f)];
    const double* col =
        &ctx->xv[static_cast<size_t>(f) * static_cast<size_t>(ctx->n)];
    double left_sum = 0.0;
    for (int i = 0; i + 1 < n; ++i) {
      const int pos = ord[static_cast<size_t>(begin + i)];
      left_sum += ctx->yv[static_cast<size_t>(pos)];
      // A valid split point lies between distinct x values.
      const int next = ord[static_cast<size_t>(begin + i + 1)];
      if (col[pos] == col[next]) continue;
      const int nl = i + 1;
      const int nr = n - nl;
      if (nl < config.min_samples_leaf || nr < config.min_samples_leaf) continue;
      const double right_sum = sum - left_sum;
      // SSE reduction = sumL^2/nL + sumR^2/nR - sum^2/n (constant terms drop).
      const double gain =
          left_sum * left_sum / nl + right_sum * right_sum / nr - sum * sum / n;
      if (gain > cand.gain) {
        cand.feature = f;
        cand.threshold = 0.5 * (col[pos] + col[next]);
        cand.gain = gain;
        cand.left_count = nl;
      }
    }
    return cand;
  };

  const SplitCandidate best = BestSplitOverFeatures<SplitCandidate>(
      ctx->pool.get(), features.size(), n, search_feature);

  if (best.feature < 0 || best.gain <= config.min_gain) return node_index;

  // Left/right membership per position, from the gathered column values.
  const double* best_col =
      &ctx->xv[static_cast<size_t>(best.feature) * static_cast<size_t>(ctx->n)];
  int nl = 0;
  for (int i = begin; i < end; ++i) {
    const int pos = ctx->pos_of[static_cast<size_t>(i)];
    const uint8_t left = best_col[pos] <= best.threshold ? 1 : 0;
    ctx->goes_left[static_cast<size_t>(pos)] = left;
    nl += left;
  }
  const int mid = begin + nl;
  // Midpoint thresholds between adjacent doubles can round up to the higher
  // value, putting every row on one side; recursing would never terminate.
  if (mid == begin || mid == end) return node_index;  // degenerate (ties)

  // pos_of partitions unstably with the reference's boolean sequence (so
  // node sums downstream accumulate in the same order); the per-feature
  // order arrays partition stably to stay sorted.
  std::partition(ctx->pos_of.data() + begin, ctx->pos_of.data() + end,
                 [&](int pos) {
                   return ctx->goes_left[static_cast<size_t>(pos)] != 0;
                 });
  StablePartitionOrders(&ctx->order, begin, end, ctx->goes_left,
                        &ctx->scratch);

  const int left = Build(ctx, begin, mid, depth + 1);
  const int right = Build(ctx, mid, end, depth + 1);
  nodes_[static_cast<size_t>(node_index)].feature = best.feature;
  nodes_[static_cast<size_t>(node_index)].threshold = best.threshold;
  nodes_[static_cast<size_t>(node_index)].left = left;
  nodes_[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

// Histogram split search. The node's per-feature histograms (target sum +
// count per BinnedIndex bin) come from one contiguous uint8_t scan of the
// node's positions -- or, for the larger child, from subtracting the
// sibling's histogram from the parent's. Split candidates are evaluated
// between consecutive non-empty bins; when every bin holds one distinct
// value this enumerates exactly the exact search's candidates with the same
// thresholds, so the fitted tree is bit-identical to the exact/presorted
// backends (integer-exact sums), and a bounded-quality approximation
// otherwise. `hist` is this node's prebuilt histogram buffer; empty means
// build-by-scan.
int RegressionTree::BuildHistogram(FitContext* ctx, int begin, int end,
                                   int depth, std::vector<HistBin> hist) {
  const TreeConfig& config = *ctx->config;
  const int n = end - begin;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = begin; i < end; ++i) {
    const double y =
        ctx->yv[static_cast<size_t>(ctx->pos_of[static_cast<size_t>(i)])];
    sum += y;
    sum_sq += y * y;
  }
  const double mean = sum / n;

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_index)].value = mean;

  const bool depth_ok = config.max_depth < 0 || depth < config.max_depth;
  const double sse = sum_sq - sum * sum / n;
  if (!depth_ok || n < config.min_samples_split || sse <= config.min_gain) {
    if (!hist.empty()) ctx->hist_pool->Release(std::move(hist));
    return node_index;
  }

  const int num_features = ctx->num_features;
  std::vector<int> features;
  if (config.mtry > 0 && config.mtry < num_features) {
    features = ctx->rng->SampleWithoutReplacement(num_features, config.mtry);
  } else {
    features.resize(static_cast<size_t>(num_features));
    std::iota(features.begin(), features.end(), 0);
  }

  const size_t stride = static_cast<size_t>(ctx->hist_stride);
  if (hist.empty()) {
    hist = ctx->hist_pool->Acquire();
    const int* ids = ctx->pos_of.data() + begin;
    for (int f : features) {
      HistBin* slot = hist.data() + static_cast<size_t>(f) * stride;
      std::fill_n(slot, ctx->binned->num_bins(f), HistBin{});
      AccumulateHistogram(
          &ctx->codes[static_cast<size_t>(f) * static_cast<size_t>(ctx->n)],
          ids, n, ctx->yv.data(), slot);
    }
  }

  auto search_feature = [&](size_t fi) {
    SplitCandidate cand;
    const int f = features[fi];
    const HistBin* hb = hist.data() + static_cast<size_t>(f) * stride;
    const int num_bins = ctx->binned->num_bins(f);
    double left_sum = 0.0;
    int left_count = 0;
    int prev = -1;  // last non-empty bin folded into the left side
    for (int b = 0; b < num_bins; ++b) {
      if (hb[b].count == 0) continue;
      if (prev >= 0) {
        const int nl = left_count;
        const int nr = n - nl;
        if (nl >= config.min_samples_leaf && nr >= config.min_samples_leaf) {
          const double right_sum = sum - left_sum;
          const double gain = left_sum * left_sum / nl +
                              right_sum * right_sum / nr - sum * sum / n;
          if (gain > cand.gain) {
            cand.feature = f;
            // Midpoint between the adjacent non-empty bins, matching the
            // exact search's between-distinct-values threshold when bins
            // are single values.
            cand.threshold = 0.5 * (ctx->binned->bin_last(f, prev) +
                                    ctx->binned->bin_first(f, b));
            cand.gain = gain;
            cand.left_count = nl;
          }
        }
      }
      left_sum += hb[b].g;
      left_count += hb[b].count;
      prev = b;
    }
    return cand;
  };

  const SplitCandidate best = BestSplitOverFeatures<SplitCandidate>(
      ctx->pool.get(), features.size(), n, search_feature);

  if (best.feature < 0 || best.gain <= config.min_gain) {
    ctx->hist_pool->Release(std::move(hist));
    return node_index;
  }

  // Partition by value against the recorded threshold (not by bin code), so
  // training membership always matches Predict's descent rule.
  const double* best_col =
      &ctx->xv[static_cast<size_t>(best.feature) * static_cast<size_t>(ctx->n)];
  int nl = 0;
  for (int i = begin; i < end; ++i) {
    const int pos = ctx->pos_of[static_cast<size_t>(i)];
    const uint8_t left = best_col[pos] <= best.threshold ? 1 : 0;
    ctx->goes_left[static_cast<size_t>(pos)] = left;
    nl += left;
  }
  const int mid = begin + nl;
  if (mid == begin || mid == end) {
    ctx->hist_pool->Release(std::move(hist));
    return node_index;  // degenerate (ties)
  }

  std::partition(ctx->pos_of.data() + begin, ctx->pos_of.data() + end,
                 [&](int pos) {
                   return ctx->goes_left[static_cast<size_t>(pos)] != 0;
                 });

  int left, right;
  if (!ctx->subtract) {
    // mtry changes the candidate set per node, so the parent histogram
    // lacks the children's features; rebuild by scan instead.
    ctx->hist_pool->Release(std::move(hist));
    left = BuildHistogram(ctx, begin, mid, depth + 1, {});
    right = BuildHistogram(ctx, mid, end, depth + 1, {});
  } else {
    // Scan only the smaller child; the larger child's histogram is the
    // parent's minus the sibling's, reusing the parent's buffer.
    const bool left_small = mid - begin <= end - mid;
    const int small_begin = left_small ? begin : mid;
    const int small_n = left_small ? mid - begin : end - mid;
    std::vector<HistBin> small = ctx->hist_pool->Acquire();
    const int* ids = ctx->pos_of.data() + small_begin;
    for (int f : features) {
      HistBin* slot = small.data() + static_cast<size_t>(f) * stride;
      std::fill_n(slot, ctx->binned->num_bins(f), HistBin{});
      AccumulateHistogram(
          &ctx->codes[static_cast<size_t>(f) * static_cast<size_t>(ctx->n)],
          ids, small_n, ctx->yv.data(), slot);
    }
    for (int f : features) {
      HistBin* parent = hist.data() + static_cast<size_t>(f) * stride;
      SubtractHistogram(parent,
                        small.data() + static_cast<size_t>(f) * stride,
                        parent, ctx->binned->num_bins(f));
    }
    std::vector<HistBin> left_hist = left_small ? std::move(small)
                                                : std::move(hist);
    std::vector<HistBin> right_hist = left_small ? std::move(hist)
                                                 : std::move(small);
    left = BuildHistogram(ctx, begin, mid, depth + 1, std::move(left_hist));
    right = BuildHistogram(ctx, mid, end, depth + 1, std::move(right_hist));
  }
  nodes_[static_cast<size_t>(node_index)].feature = best.feature;
  nodes_[static_cast<size_t>(node_index)].threshold = best.threshold;
  nodes_[static_cast<size_t>(node_index)].left = left;
  nodes_[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

int RegressionTree::BuildReference(const Dataset& d, std::vector<int>* rows,
                                   int begin, int end, int depth,
                                   const TreeConfig& config, Rng* rng) {
  const int n = end - begin;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = begin; i < end; ++i) {
    const double y = d.y((*rows)[static_cast<size_t>(i)]);
    sum += y;
    sum_sq += y * y;
  }
  const double mean = sum / n;

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_index)].value = mean;

  const bool depth_ok = config.max_depth < 0 || depth < config.max_depth;
  const double sse = sum_sq - sum * sum / n;
  if (!depth_ok || n < config.min_samples_split || sse <= config.min_gain) {
    return node_index;
  }

  // Choose candidate features (mtry subsampling for forests).
  const int num_features = d.num_cols();
  std::vector<int> features;
  if (config.mtry > 0 && config.mtry < num_features) {
    features = rng->SampleWithoutReplacement(num_features, config.mtry);
  } else {
    features.resize(static_cast<size_t>(num_features));
    std::iota(features.begin(), features.end(), 0);
  }

  SplitCandidate best;
  // (x, row id) like the GBT reference: row-id tie order matches the
  // presorted path's, so both accumulate tied blocks in the same sequence
  // and the fitted trees are bit-identical even for fractional targets.
  std::vector<std::pair<double, int>> vals;
  vals.reserve(static_cast<size_t>(n));
  for (int f : features) {
    vals.clear();
    for (int i = begin; i < end; ++i) {
      const int r = (*rows)[static_cast<size_t>(i)];
      vals.emplace_back(d.x(r, f), r);
    }
    std::sort(vals.begin(), vals.end());
    double left_sum = 0.0;
    for (int i = 0; i + 1 < n; ++i) {
      left_sum += d.y(vals[static_cast<size_t>(i)].second);
      // A valid split point lies between distinct x values.
      if (vals[static_cast<size_t>(i)].first ==
          vals[static_cast<size_t>(i + 1)].first) {
        continue;
      }
      const int nl = i + 1;
      const int nr = n - nl;
      if (nl < config.min_samples_leaf || nr < config.min_samples_leaf) continue;
      const double right_sum = sum - left_sum;
      // SSE reduction = sumL^2/nL + sumR^2/nR - sum^2/n (constant terms drop).
      const double gain =
          left_sum * left_sum / nl + right_sum * right_sum / nr - sum * sum / n;
      if (gain > best.gain) {
        best.feature = f;
        best.threshold = 0.5 * (vals[static_cast<size_t>(i)].first +
                                vals[static_cast<size_t>(i + 1)].first);
        best.gain = gain;
        best.left_count = nl;
      }
    }
  }

  if (best.feature < 0 || best.gain <= config.min_gain) return node_index;

  // Partition rows in place: left part <= threshold.
  auto mid_it = std::partition(
      rows->begin() + begin, rows->begin() + end, [&](int r) {
        return d.x(r, best.feature) <= best.threshold;
      });
  const int mid = static_cast<int>(mid_it - rows->begin());
  if (mid == begin || mid == end) return node_index;  // degenerate (ties)

  const int left = BuildReference(d, rows, begin, mid, depth + 1, config, rng);
  const int right = BuildReference(d, rows, mid, end, depth + 1, config, rng);
  nodes_[static_cast<size_t>(node_index)].feature = best.feature;
  nodes_[static_cast<size_t>(node_index)].threshold = best.threshold;
  nodes_[static_cast<size_t>(node_index)].left = left;
  nodes_[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

double RegressionTree::Predict(const double* x) const {
  assert(fitted());
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<size_t>(node)];
    node = x[nd.feature] <= nd.threshold ? nd.left : nd.right;
  }
  return nodes_[static_cast<size_t>(node)].value;
}

int RegressionTree::num_leaves() const {
  int count = 0;
  for (const Node& nd : nodes_) count += nd.feature < 0 ? 1 : 0;
  return count;
}

int RegressionTree::DepthOf(int node) const {
  const Node& nd = nodes_[static_cast<size_t>(node)];
  if (nd.feature < 0) return 0;
  return 1 + std::max(DepthOf(nd.left), DepthOf(nd.right));
}

int RegressionTree::depth() const { return nodes_.empty() ? 0 : DepthOf(0); }

void RegressionTree::SerializeTo(util::ByteWriter* out) const {
  SerializeTreeNodes(nodes_, &Node::value, out);
}

Status RegressionTree::DeserializeFrom(util::ByteReader* in,
                                       int num_features) {
  return DeserializeTreeNodes(in, num_features, "tree", &Node::value,
                              &nodes_);
}

}  // namespace reds::ml
