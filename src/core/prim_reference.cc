// Reference scalar PRIM: the original full-rescan implementation, kept as
// the golden baseline RunPrim (prim.cc) is verified against
// (tests/prim_equivalence_test.cc) and benchmarked against
// (bench/bench_perf_kernels.cc). Its one departure from the textbook loop
// is the summation contract RunPrim keeps: a candidate sums the removed
// labels ascending by (value, row id), and a peel subtracts that sum once.
// Beside it, the original bumping replicate loop (a private sorted index
// per replicate, a full validation pass per box), the golden baseline of
// core/bumping.cc (tests/bumping_covering_test.cc). Last, the streamed peel
// state rebuilt anew for every candidate, the golden baseline of
// RunPrimStreamed (tests/streamed_prim_test.cc). Not used on any
// production path.
#include "core/prim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/bumping.h"
#include "core/prim_loop.h"
#include "util/rng.h"

namespace reds {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Values of in-box points along one dimension.
void GatherColumn(const Dataset& d, const std::vector<int>& rows, int dim,
                  std::vector<double>* out) {
  out->clear();
  out->reserve(rows.size());
  for (int r : rows) out->push_back(d.x(r, dim));
}

// Smallest element strictly greater than v, or +inf if none.
double NextDistinctAbove(const std::vector<double>& vals, double v) {
  double best = kInf;
  for (double x : vals) {
    if (x > v && x < best) best = x;
  }
  return best;
}

// Largest element strictly smaller than v, or -inf if none.
double NextDistinctBelow(const std::vector<double>& vals, double v) {
  double best = -kInf;
  for (double x : vals) {
    if (x < v && x > best) best = x;
  }
  return best;
}

// Builds the low- or high-side candidate peel for one dimension, cutting off
// roughly an alpha share of the in-box train points. Returns dim = -1 when no
// valid cut exists (e.g. all values equal).
Peel MakeCandidate(const Dataset& train, const std::vector<int>& in_rows,
                   const BoxStats& in_stats, int dim, bool low_side,
                   double alpha, std::vector<double>* scratch) {
  Peel peel;
  const int n = static_cast<int>(in_rows.size());
  const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
  if (k >= n) return peel;  // would empty the box

  GatherColumn(train, in_rows, dim, scratch);
  std::vector<double>& vals = *scratch;
  double bound;
  if (low_side) {
    std::nth_element(vals.begin(), vals.begin() + k, vals.end());
    bound = vals[static_cast<size_t>(k)];  // (k+1)-th smallest
  } else {
    std::nth_element(vals.begin(), vals.begin() + (n - 1 - k), vals.end());
    bound = vals[static_cast<size_t>(n - 1 - k)];  // (k+1)-th largest
  }

  // Count what the cut removes; points equal to the bound stay inside. The
  // removed labels are summed ascending by (value, row id).
  std::vector<std::pair<double, int>> removed;
  auto count_removed = [&](double b) {
    removed.clear();
    for (int r : in_rows) {
      const double x = train.x(r, dim);
      if (low_side ? x < b : x > b) removed.emplace_back(x, r);
    }
    std::sort(removed.begin(), removed.end());
    double rp = 0.0;
    for (const auto& [x, r] : removed) rp += train.y(r);
    peel.removed_n = static_cast<double>(removed.size());
    peel.removed_pos = rp;
  };
  count_removed(bound);

  if (peel.removed_n == 0.0) {
    // Ties swallowed the whole cut: move the bound past the tied block.
    bound = low_side ? NextDistinctAbove(vals, bound)
                     : NextDistinctBelow(vals, bound);
    if (!std::isfinite(bound)) return peel;  // dimension is constant in box
    count_removed(bound);
  }
  if (peel.removed_n >= n) return peel;  // would empty the box

  peel.dim = dim;
  peel.low_side = low_side;
  peel.bound = bound;
  peel.precision_after =
      (in_stats.n_pos - peel.removed_pos) / (in_stats.n - peel.removed_n);
  return peel;
}

// Drops rows violating the peel from `rows`; `stats` loses the peel's
// removed count and label mass at once.
void ApplyPeel(const Dataset& d, const Peel& peel, std::vector<int>* rows,
               BoxStats* stats) {
  size_t kept = 0;
  for (size_t i = 0; i < rows->size(); ++i) {
    const int r = (*rows)[i];
    const double x = d.x(r, peel.dim);
    if (!(peel.low_side ? x < peel.bound : x > peel.bound)) {
      (*rows)[kept++] = r;
    }
  }
  rows->resize(kept);
  stats->n -= peel.removed_n;
  stats->n_pos -= peel.removed_pos;
}

// One pasting expansion candidate: move a bound outward to re-admit roughly
// a paste_alpha share of the current box population.
struct Paste {
  int dim = -1;
  bool low_side = true;
  double bound = 0.0;
  double precision_after = -1.0;
  double added_n = 0.0;
};

// The streamed peel state with nothing kept between candidates but the
// in-box flags: each candidate counting-sorts the in-box rows of its
// column by bin code (row ids ascending within a bin) in one full row
// scan, then picks the boundary bin and sums the removed labels in that
// order.
class StreamedReferenceState {
 public:
  StreamedReferenceState(const BinnedIndex& binned,
                         const std::vector<double>& y)
      : binned_(binned),
        y_(y),
        in_box_(static_cast<size_t>(binned.num_rows()), 1),
        n_(binned.num_rows()) {}

  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const int n = n_;
    const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
    if (k >= n) return peel;  // would empty the box

    // begin[b]: in-box rank of bin b's first row; order: in-box rows by
    // (bin, row id).
    const int bins = binned_.num_bins(dim);
    std::vector<int> begin(static_cast<size_t>(bins) + 1, 0);
    for (int r = 0; r < binned_.num_rows(); ++r) {
      if (in_box_[static_cast<size_t>(r)]) {
        ++begin[static_cast<size_t>(binned_.code(dim, r)) + 1];
      }
    }
    for (int b = 0; b < bins; ++b) {
      begin[static_cast<size_t>(b) + 1] += begin[static_cast<size_t>(b)];
    }
    std::vector<int> order(static_cast<size_t>(n));
    std::vector<int> next(begin.begin(), begin.end() - 1);
    for (int r = 0; r < binned_.num_rows(); ++r) {
      if (in_box_[static_cast<size_t>(r)]) {
        order[static_cast<size_t>(
            next[static_cast<size_t>(binned_.code(dim, r))]++)] = r;
      }
    }
    // The bin holding in-box rank `rank`, and the rows below bin b.
    const auto bin_at = [&](int rank) {
      int b = 0;
      while (begin[static_cast<size_t>(b) + 1] <= rank) ++b;
      return b;
    };
    const auto below = [&](int b) { return begin[static_cast<size_t>(b)]; };

    int b;
    int first, last;  // removed in-box ranks [first, last)
    if (low_side) {
      b = bin_at(k);
      if (below(b) == 0) {
        // Ties swallowed the cut: move past the boundary bin.
        const int q = below(b + 1);
        if (q >= n) return peel;  // dimension is constant in box
        b = bin_at(q);
      }
      first = 0;
      last = below(b);
      peel.bound = binned_.bin_first(dim, b);
    } else {
      b = bin_at(n - 1 - k);
      if (below(b + 1) >= n) {
        // Nothing above the boundary bin: move below it.
        if (below(b) == 0) return peel;  // dimension is constant in box
        b = bin_at(below(b) - 1);
      }
      first = below(b + 1);
      last = n;
      peel.bound = binned_.bin_last(dim, b);
    }
    if (last - first >= n) return peel;  // would empty the box
    double removed_pos = 0.0;
    for (int i = first; i < last; ++i) {
      removed_pos += y_[static_cast<size_t>(order[static_cast<size_t>(i)])];
    }

    peel.dim = dim;
    peel.low_side = low_side;
    peel.bin = b;
    peel.removed_n = last - first;
    peel.removed_pos = removed_pos;
    peel.precision_after =
        (in_stats.n_pos - removed_pos) / (in_stats.n - peel.removed_n);
    return peel;
  }

  void Apply(const Peel& peel) {
    for (int r = 0; r < binned_.num_rows(); ++r) {
      const int b = binned_.code(peel.dim, r);
      if (in_box_[static_cast<size_t>(r)] &&
          (peel.low_side ? b < peel.bin : b > peel.bin)) {
        in_box_[static_cast<size_t>(r)] = 0;
        --n_;
      }
    }
  }

 private:
  const BinnedIndex& binned_;
  const std::vector<double>& y_;
  std::vector<uint8_t> in_box_;  // by row id
  int n_ = 0;                    // rows currently in box
};

}  // namespace

PrimResult RunPrimReference(const Dataset& train, const Dataset& val,
                            const PrimConfig& config) {
  assert(train.num_cols() == val.num_cols());
  assert(train.num_rows() > 0 && val.num_rows() > 0);
  const int dims = train.num_cols();
  const double total_train_pos = train.TotalPositive();
  const double total_val_pos = val.TotalPositive();

  PrimResult result;
  Box box = Box::Unbounded(dims);

  std::vector<int> train_rows(static_cast<size_t>(train.num_rows()));
  std::vector<int> val_rows(static_cast<size_t>(val.num_rows()));
  for (int i = 0; i < train.num_rows(); ++i) train_rows[static_cast<size_t>(i)] = i;
  for (int i = 0; i < val.num_rows(); ++i) val_rows[static_cast<size_t>(i)] = i;
  BoxStats train_stats{static_cast<double>(train.num_rows()), total_train_pos};
  BoxStats val_stats{static_cast<double>(val.num_rows()), total_val_pos};

  auto record = [&]() {
    result.boxes.push_back(box);
    result.train_curve.push_back(
        {Recall(train_stats, total_train_pos), Precision(train_stats)});
    result.val_curve.push_back(
        {Recall(val_stats, total_val_pos), Precision(val_stats)});
  };
  record();

  std::vector<double> scratch;
  while (train_stats.n >= config.min_points && val_stats.n >= config.min_points) {
    Peel best;
    for (int j = 0; j < dims; ++j) {
      for (bool low : {true, false}) {
        const Peel cand = MakeCandidate(train, train_rows, train_stats, j, low,
                                        config.alpha, &scratch);
        if (cand.dim < 0) continue;
        // Highest precision wins; break ties patiently (remove fewer points).
        if (cand.precision_after > best.precision_after ||
            (cand.precision_after == best.precision_after &&
             best.dim >= 0 && cand.removed_n < best.removed_n)) {
          best = cand;
        }
      }
    }
    if (best.dim < 0) break;  // box is a single point block in every dimension

    if (best.low_side) {
      box.set_lo(best.dim, std::max(box.lo(best.dim), best.bound));
    } else {
      box.set_hi(best.dim, std::min(box.hi(best.dim), best.bound));
    }
    ApplyPeel(train, best, &train_rows, &train_stats);
    // Apply the same geometric cut to the validation points.
    {
      size_t kept = 0;
      for (size_t i = 0; i < val_rows.size(); ++i) {
        const int r = val_rows[i];
        const double x = val.x(r, best.dim);
        const bool removed = best.low_side ? x < best.bound : x > best.bound;
        if (removed) {
          val_stats.n -= 1.0;
          val_stats.n_pos -= val.y(r);
        } else {
          val_rows[kept++] = r;
        }
      }
      val_rows.resize(kept);
    }
    if (train_stats.n == 0.0 || val_stats.n == 0.0) {
      // Validation support vanished; the last recorded box stands.
      break;
    }
    record();
  }

  // Select the box with the highest validation precision; first occurrence
  // (the largest box) wins ties, favoring recall.
  int best_index = 0;
  double best_precision = -1.0;
  for (size_t i = 0; i < result.val_curve.size(); ++i) {
    if (result.val_curve[i].precision > best_precision) {
      best_precision = result.val_curve[i].precision;
      best_index = static_cast<int>(i);
    }
  }
  result.best_val_index = best_index;

  if (config.paste) {
    // Pasting phase (Friedman & Fisher): greedily re-expand the selected box
    // while train precision does not drop.
    Box pasted = result.BestBox();
    BoxStats stats = ComputeBoxStats(train, pasted);
    bool improved = true;
    while (improved && stats.n > 0.0) {
      improved = false;
      Paste best_paste;
      const int grow = std::max(
          1, static_cast<int>(std::floor(config.paste_alpha * stats.n)));
      for (int j = 0; j < dims; ++j) {
        for (bool low : {true, false}) {
          const double cur = low ? pasted.lo(j) : pasted.hi(j);
          if (!std::isfinite(cur)) continue;
          // Points outside only through this one bound.
          std::vector<std::pair<double, double>> outside;  // (x_j, y)
          for (int r = 0; r < train.num_rows(); ++r) {
            const double* x = train.row(r);
            bool inside_others = true;
            for (int jj = 0; jj < dims && inside_others; ++jj) {
              if (jj == j) continue;
              inside_others = x[jj] >= pasted.lo(jj) && x[jj] <= pasted.hi(jj);
            }
            if (!inside_others) continue;
            if (low ? x[j] < cur : x[j] > cur) outside.emplace_back(x[j], train.y(r));
          }
          if (outside.empty()) continue;
          std::sort(outside.begin(), outside.end());
          if (!low) std::reverse(outside.begin(), outside.end());
          const int take = std::min<int>(grow, static_cast<int>(outside.size()));
          double add_n = 0.0, add_pos = 0.0;
          for (int t = 0; t < take; ++t) {
            add_n += 1.0;
            add_pos += outside[static_cast<size_t>(t)].second;
          }
          const double new_bound = outside[static_cast<size_t>(take - 1)].first;
          const double precision_after =
              (stats.n_pos + add_pos) / (stats.n + add_n);
          if (precision_after > best_paste.precision_after) {
            best_paste = {j, low, new_bound, precision_after, add_n};
          }
        }
      }
      const double current_precision = Precision(stats);
      if (best_paste.dim >= 0 &&
          best_paste.precision_after >= current_precision &&
          best_paste.added_n > 0.0) {
        if (best_paste.low_side) {
          pasted.set_lo(best_paste.dim, best_paste.bound);
        } else {
          pasted.set_hi(best_paste.dim, best_paste.bound);
        }
        stats = ComputeBoxStats(train, pasted);
        improved = true;
      }
    }
    if (!(pasted == result.BestBox())) {
      result.boxes.push_back(pasted);
      const BoxStats tr = ComputeBoxStats(train, pasted);
      const BoxStats va = ComputeBoxStats(val, pasted);
      result.train_curve.push_back(
          {Recall(tr, total_train_pos), Precision(tr)});
      result.val_curve.push_back({Recall(va, total_val_pos), Precision(va)});
      result.best_val_index = static_cast<int>(result.boxes.size()) - 1;
    }
  }

  return result;
}

void ParetoFilterReference(std::vector<Box>* boxes,
                           std::vector<PrPoint>* curve) {
  assert(boxes->size() == curve->size());
  const size_t n = boxes->size();
  std::vector<bool> dominated(n, false);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n && !dominated[i]; ++j) {
      if (i == j || dominated[j]) continue;
      const bool geq = (*curve)[j].recall >= (*curve)[i].recall &&
                       (*curve)[j].precision >= (*curve)[i].precision;
      const bool strict = (*curve)[j].recall > (*curve)[i].recall ||
                          (*curve)[j].precision > (*curve)[i].precision;
      if (geq && strict) dominated[i] = true;
    }
  }
  // Also drop exact duplicates in PR space (keep the first).
  std::vector<Box> kept_boxes;
  std::vector<PrPoint> kept_curve;
  for (size_t i = 0; i < n; ++i) {
    if (dominated[i]) continue;
    bool duplicate = false;
    for (size_t j = 0; j < kept_curve.size(); ++j) {
      if (kept_curve[j].recall == (*curve)[i].recall &&
          kept_curve[j].precision == (*curve)[i].precision) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    kept_boxes.push_back((*boxes)[i]);
    kept_curve.push_back((*curve)[i]);
  }
  *boxes = std::move(kept_boxes);
  *curve = std::move(kept_curve);
}

BumpingResult RunPrimBumpingReference(const Dataset& train,
                                      const Dataset& val,
                                      const BumpingConfig& config,
                                      uint64_t seed) {
  assert(train.num_rows() > 0);
  const int dims = train.num_cols();
  const int m = config.m > 0 ? std::min(config.m, dims) : dims;

  std::vector<Box> boxes;
  std::vector<PrPoint> curve;
  const double total_val_pos = val.TotalPositive();

  for (int rep = 0; rep < config.q; ++rep) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(rep)));
    const std::vector<int> rows = rng.BootstrapIndices(train.num_rows());
    std::vector<int> columns = rng.SampleWithoutReplacement(dims, m);
    std::sort(columns.begin(), columns.end());

    Dataset d_bs = train.SubsetRows(rows).SelectColumns(columns);
    if (d_bs.TotalPositive() == 0.0 ||
        d_bs.TotalPositive() == d_bs.num_rows()) {
      continue;  // degenerate bootstrap sample
    }
    const PrimResult prim = RunPrim(d_bs, d_bs, config.prim);
    for (const Box& b : prim.ReturnedBoxes()) {
      Box lifted = b.LiftToFullSpace(dims, columns);
      const BoxStats stats = ComputeBoxStats(val, lifted);
      curve.push_back({Recall(stats, total_val_pos), Precision(stats)});
      boxes.push_back(std::move(lifted));
    }
  }

  if (boxes.empty()) {
    // Every bootstrap sample was degenerate; fall back to the full box.
    Box full = Box::Unbounded(dims);
    const BoxStats stats = ComputeBoxStats(val, full);
    curve.push_back({Recall(stats, total_val_pos), Precision(stats)});
    boxes.push_back(std::move(full));
  }

  ParetoFilterReference(&boxes, &curve);

  // Sort by decreasing recall so the sequence reads like a peeling trajectory.
  std::vector<size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return curve[a].recall > curve[b].recall;
  });
  BumpingResult result;
  result.boxes.reserve(boxes.size());
  result.val_curve.reserve(boxes.size());
  for (size_t i : order) {
    result.boxes.push_back(std::move(boxes[i]));
    result.val_curve.push_back(curve[i]);
  }
  return result;
}

PrimResult RunPrimStreamedReference(const BinnedIndex& binned,
                                    const std::vector<double>& y,
                                    const PrimConfig& config,
                                    const Dataset* val) {
  assert(static_cast<int>(y.size()) == binned.num_rows());
  assert(binned.num_rows() > 0);
  double total_pos = 0.0;
  for (double v : y) total_pos += v;
  PrimConfig serial = config;
  serial.threads = 1;
  StreamedReferenceState state(binned, y);
  return RunPeelingPhase(binned.num_cols(),
                         static_cast<double>(binned.num_rows()), total_pos,
                         val, serial, &state);
}

}  // namespace reds
