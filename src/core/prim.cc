// Sorted-index PRIM. Peel candidates are rank selections on per-column
// sorted permutations of the in-box points, maintained incrementally across
// peels (apply = drop a prefix/suffix of the peeled column, compact the
// others through a bitmask); the pasting phase enumerates "outside through
// one bound" points from the full-data permutations guarded by a
// per-dimension violation-count array. Produces the same box sequences as
// the original full-rescan implementation, preserved in prim_reference.cc
// and asserted equivalent in tests/prim_equivalence_test.cc.
#include "core/prim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/prim_loop.h"
#include "obs/trace.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace reds {

namespace {

// Per-dimension sorted views of the in-box training points. sorted_[j]
// holds exactly the rows currently inside the box, ascending by column j
// (ties by row id, inherited from the ColumnIndex permutation).
class PeelState {
 public:
  PeelState(const Dataset& train, const ColumnIndex& index)
      : train_(train),
        index_(index),
        in_box_(static_cast<size_t>(train.num_rows()), 1) {
    sorted_.reserve(static_cast<size_t>(train.num_cols()));
    for (int j = 0; j < train.num_cols(); ++j) {
      sorted_.push_back(index.sorted_rows(j));
    }
  }

  // Builds the low- or high-side candidate peel for one dimension, cutting
  // off roughly an alpha share of the in-box train points. Returns dim = -1
  // when no valid cut exists (e.g. all values equal). Semantics match the
  // reference MakeCandidate: the bound is the (k+1)-th order statistic,
  // points equal to the bound stay inside, and a cut swallowed by ties moves
  // past the tied block.
  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const std::vector<int>& s = sorted_[static_cast<size_t>(dim)];
    const std::vector<double>& col = index_.column(dim);
    const int n = static_cast<int>(s.size());
    const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
    if (k >= n) return peel;  // would empty the box

    double bound;
    double removed_n = 0.0;
    double removed_pos = 0.0;
    if (low_side) {
      bound = col[static_cast<size_t>(s[static_cast<size_t>(k)])];
      // Points removed: the prefix with value < bound.
      int p = LowerBoundRank(s, col, bound);
      if (p == 0) {
        // Ties swallowed the whole cut: move past the tied block.
        const int q = UpperBoundRank(s, col, bound);
        if (q >= n) return peel;  // dimension is constant in box
        bound = col[static_cast<size_t>(s[static_cast<size_t>(q)])];
        p = q;  // no values lie strictly between the old and new bound
      }
      removed_n = p;
      for (int i = 0; i < p; ++i) {
        removed_pos += train_.y(s[static_cast<size_t>(i)]);
      }
    } else {
      bound = col[static_cast<size_t>(s[static_cast<size_t>(n - 1 - k)])];
      // Points removed: the suffix with value > bound.
      int q = UpperBoundRank(s, col, bound);
      if (q >= n) {
        const int p = LowerBoundRank(s, col, bound);
        if (p == 0) return peel;  // dimension is constant in box
        bound = col[static_cast<size_t>(s[static_cast<size_t>(p - 1)])];
        q = p;  // suffix > new bound starts where values >= old bound began
      }
      removed_n = n - q;
      for (int i = q; i < n; ++i) {
        removed_pos += train_.y(s[static_cast<size_t>(i)]);
      }
    }
    if (removed_n >= n) return peel;  // would empty the box

    peel.dim = dim;
    peel.low_side = low_side;
    peel.bound = bound;
    peel.removed_n = removed_n;
    peel.removed_pos = removed_pos;
    peel.precision_after =
        (in_stats.n_pos - removed_pos) / (in_stats.n - removed_n);
    return peel;
  }

  // Drops the rows violating the peel, updating `stats`. The peeled
  // dimension loses a prefix/suffix; every other dimension is compacted
  // through the bitmask, so all views stay exact in-box row sets.
  void Apply(const Peel& peel, BoxStats* stats) {
    std::vector<int>& s = sorted_[static_cast<size_t>(peel.dim)];
    const std::vector<double>& col = index_.column(peel.dim);
    const int n = static_cast<int>(s.size());
    if (peel.low_side) {
      const int p = LowerBoundRank(s, col, peel.bound);
      for (int i = 0; i < p; ++i) {
        in_box_[static_cast<size_t>(s[static_cast<size_t>(i)])] = 0;
      }
      s.erase(s.begin(), s.begin() + p);
    } else {
      const int q = UpperBoundRank(s, col, peel.bound);
      for (int i = q; i < n; ++i) {
        in_box_[static_cast<size_t>(s[static_cast<size_t>(i)])] = 0;
      }
      s.resize(static_cast<size_t>(q));
    }
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
    for (int j = 0; j < static_cast<int>(sorted_.size()); ++j) {
      if (j == peel.dim) continue;
      Compact(&sorted_[static_cast<size_t>(j)]);
    }
  }

 private:
  void Compact(std::vector<int>* s) const {
    size_t kept = 0;
    for (size_t i = 0; i < s->size(); ++i) {
      const int r = (*s)[i];
      if (in_box_[static_cast<size_t>(r)]) (*s)[kept++] = r;
    }
    s->resize(kept);
  }

  const Dataset& train_;
  const ColumnIndex& index_;
  std::vector<std::vector<int>> sorted_;  // [dim] -> in-box rows by value
  std::vector<uint8_t> in_box_;           // by row id
};

// Binned peel state: the quantized counterpart of PeelState. No per-dim
// sorted in-box views are maintained; instead a per-dimension histogram of
// in-box counts per BinnedIndex bin locates each peel's boundary bin in
// O(bins), and short scans of the full-data sorted permutation inside that
// bin (filtered through the in-box bitmask) refine the exact bound, counts,
// and removed-mass sums -- in the same value-then-row-id order as the
// sorted kernel, so every Peel it produces is bit-identical to PeelState's.
// Applying a peel walks only the window of newly removed rows and
// decrements M histogram counters per row: O(removed x M) against the
// sorted kernel's O(N x M) view compaction.
class BinnedPeelState {
 public:
  BinnedPeelState(const Dataset& train, const ColumnIndex& index,
                  const BinnedIndex& binned)
      : train_(train),
        index_(index),
        binned_(binned),
        // +3 padding bytes: the dispatched masked kernels gather mask bytes
        // with 32-bit loads (see util/simd.h), so the bitmask must stay
        // readable 3 bytes past the last row. Padding rows are never
        // indexed; their value is irrelevant.
        in_box_(static_cast<size_t>(train.num_rows()) + 3, 1),
        n_(train.num_rows()) {
    const int m = train.num_cols();
    const int n = train.num_rows();
    lo_rank_.assign(static_cast<size_t>(m), 0);
    hi_rank_.assign(static_cast<size_t>(m), n);
    // Hard {0,1} labels make every y sum integer-exact regardless of
    // accumulation order, so removed-mass sums may come straight from the
    // per-bin aggregates (O(bins) per candidate). Fractional labels fall
    // back to ordered scans that replicate the sorted kernel's exact
    // floating-point accumulation sequence.
    integral_labels_ = true;
    for (int r = 0; r < n && integral_labels_; ++r) {
      const double y = train.y(r);
      integral_labels_ = y == 0.0 || y == 1.0;
    }
    bin_count_.resize(static_cast<size_t>(m));
    bin_pos_.resize(static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) {
      std::vector<int>& counts = bin_count_[static_cast<size_t>(j)];
      std::vector<double>& pos = bin_pos_[static_cast<size_t>(j)];
      counts.resize(static_cast<size_t>(binned.num_bins(j)));
      pos.assign(static_cast<size_t>(binned.num_bins(j)), 0.0);
      const std::vector<int>& sorted = index.sorted_rows(j);
      for (int b = 0; b < binned.num_bins(j); ++b) {
        const int begin = binned.bin_begin_rank(j, b);
        const int len = binned.bin_begin_rank(j, b + 1) - begin;
        counts[static_cast<size_t>(b)] = len;
        if (integral_labels_) {
          // Integer-valued sums are exact in any association, so the
          // dispatched gather-sum (which may reorder) is legal here.
          pos[static_cast<size_t>(b)] =
              util::GatherSum(train.y_data(), sorted.data() + begin, len);
        } else {
          for (int rank = begin; rank < begin + len; ++rank) {
            pos[static_cast<size_t>(b)] +=
                train.y(sorted[static_cast<size_t>(rank)]);
          }
        }
      }
    }
  }

  // Mirrors PeelState::MakeCandidate decision for decision: the bound is
  // the same order statistic, tie-swallowed cuts advance past tied blocks
  // the same way, and removed sums accumulate in the same order.
  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const int n = n_;
    const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
    if (k >= n) return peel;  // would empty the box

    double bound;
    double removed_n = 0.0;
    double removed_pos = 0.0;
    if (low_side) {
      bound = ValueAtInBoxRank(dim, k);
      int p = CountLess(dim, bound);
      if (p == 0) {
        // Ties swallowed the whole cut: move past the tied block.
        const int q = CountLessEq(dim, bound);
        if (q >= n) return peel;  // dimension is constant in box
        bound = ValueAtInBoxRank(dim, q);
        p = q;
      }
      removed_n = p;
      removed_pos =
          integral_labels_ ? PrefixSumFast(dim, p) : SumYFirst(dim, p);
    } else {
      // The high side walks the bins down from the top, so its cost tracks
      // the k rows it cuts, not the n - k rows it keeps.
      bound = ValueAtInBoxTopRank(dim, k);
      int q = n - CountGreater(dim, bound);
      if (q >= n) {
        const int p = CountLess(dim, bound);
        if (p == 0) return peel;  // dimension is constant in box
        bound = ValueAtInBoxRank(dim, p - 1);
        q = p;
      }
      removed_n = n - q;
      // Integral labels: the suffix sum is integer-valued, so summing it
      // from the top equals the in-box total minus the prefix sum.
      removed_pos = integral_labels_ ? SuffixSumFast(dim, n - q)
                                     : SumYTail(dim, q);
    }
    if (removed_n >= n) return peel;  // would empty the box

    peel.dim = dim;
    peel.low_side = low_side;
    peel.bound = bound;
    peel.removed_n = removed_n;
    peel.removed_pos = removed_pos;
    peel.precision_after =
        (in_stats.n_pos - removed_pos) / (in_stats.n - removed_n);
    return peel;
  }

  // Drops the rows the peel cuts off: only the removed window of the peeled
  // dimension's permutation is walked, and each removed row decrements one
  // histogram counter per dimension.
  void Apply(const Peel& peel, BoxStats* stats) {
    const std::vector<int>& sorted = index_.sorted_rows(peel.dim);
    const std::vector<double>& col = index_.column(peel.dim);
    if (peel.low_side) {
      const int new_lo = reds::LowerBoundRank(sorted, col, peel.bound);
      for (int pos = lo_rank_[static_cast<size_t>(peel.dim)]; pos < new_lo;
           ++pos) {
        Remove(sorted[static_cast<size_t>(pos)]);
      }
      lo_rank_[static_cast<size_t>(peel.dim)] = new_lo;
    } else {
      const int new_hi = reds::UpperBoundRank(sorted, col, peel.bound);
      for (int pos = new_hi; pos < hi_rank_[static_cast<size_t>(peel.dim)];
           ++pos) {
        Remove(sorted[static_cast<size_t>(pos)]);
      }
      hi_rank_[static_cast<size_t>(peel.dim)] = new_hi;
    }
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
    // Trim every dimension's window past leading/trailing holes so later
    // scans start at a live row; amortized O(N) per dimension over the run.
    for (size_t j = 0; j < bin_count_.size(); ++j) {
      const std::vector<int>& s = index_.sorted_rows(static_cast<int>(j));
      int& lo = lo_rank_[j];
      int& hi = hi_rank_[j];
      while (lo < hi && !in_box_[static_cast<size_t>(
                            s[static_cast<size_t>(lo)])]) {
        ++lo;
      }
      while (hi > lo && !in_box_[static_cast<size_t>(
                            s[static_cast<size_t>(hi - 1)])]) {
        --hi;
      }
    }
  }

 private:
  // Every in-box row of `dim` lies in its window [lo_rank_, hi_rank_),
  // whose ends are live rows after each Apply's trim, so bins below the
  // code of the first window row and above the code of the last hold no
  // in-box row: bottom-up walks start at FirstBin, top-down ones at
  // LastBin, with the same result as a walk over every bin.
  size_t FirstBin(int dim) const {
    const int r = index_.sorted_rows(dim)[static_cast<size_t>(
        lo_rank_[static_cast<size_t>(dim)])];
    return static_cast<size_t>(binned_.code(dim, r));
  }
  int LastBin(int dim) const {
    const int r = index_.sorted_rows(dim)[static_cast<size_t>(
        hi_rank_[static_cast<size_t>(dim)] - 1)];
    return binned_.code(dim, r);
  }

  void Remove(int r) {
    if (!in_box_[static_cast<size_t>(r)]) return;
    in_box_[static_cast<size_t>(r)] = 0;
    --n_;
    const double y = train_.y(r);
    for (size_t j = 0; j < bin_count_.size(); ++j) {
      const int b = binned_.code(static_cast<int>(j), r);
      --bin_count_[j][static_cast<size_t>(b)];
      bin_pos_[j][static_cast<size_t>(b)] -= y;
    }
  }

  // Sum of y over the first `count` in-box rows of `dim` in value order,
  // assembled from whole-bin aggregates plus an exact scan of the boundary
  // bin. Only valid for integral labels, where the result equals the
  // sequential prefix sum bit-for-bit.
  double PrefixSumFast(int dim, int count) const {
    const std::vector<int>& counts = bin_count_[static_cast<size_t>(dim)];
    const std::vector<double>& pos_sums = bin_pos_[static_cast<size_t>(dim)];
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    int cum = 0;
    double sum = 0.0;
    for (size_t b = FirstBin(dim); b < counts.size(); ++b) {
      if (cum + counts[b] <= count) {
        cum += counts[b];
        sum += pos_sums[b];
        if (cum == count) return sum;
        continue;
      }
      const int need = count - cum;
      const int begin =
          std::max(binned_.bin_begin_rank(dim, static_cast<int>(b)),
                   lo_rank_[static_cast<size_t>(dim)]);
      const int end =
          std::min(binned_.bin_begin_rank(dim, static_cast<int>(b) + 1),
                   hi_rank_[static_cast<size_t>(dim)]);
      // need < counts[b], so the boundary bin's segment holds every row the
      // masked prefix walk takes; integral labels make the dispatched sum
      // exact (util/simd.h).
      sum += util::MaskedPrefixSum(train_.y_data(), in_box_.data(),
                                   sorted.data() + begin, end - begin, need);
      return sum;
    }
    return sum;
  }

  // Sum of y over the last `count` in-box rows of `dim` in value order:
  // whole-bin aggregates from the top bin down, then the boundary bin's
  // aggregate minus a masked prefix sum of its part that stays. Only valid
  // for integral labels, where every association is exact.
  double SuffixSumFast(int dim, int count) const {
    const std::vector<int>& counts = bin_count_[static_cast<size_t>(dim)];
    const std::vector<double>& pos_sums = bin_pos_[static_cast<size_t>(dim)];
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    int cum = 0;
    double sum = 0.0;
    for (int b = LastBin(dim); b >= 0; --b) {
      const int c = counts[static_cast<size_t>(b)];
      if (cum + c <= count) {
        cum += c;
        sum += pos_sums[static_cast<size_t>(b)];
        if (cum == count) return sum;
        continue;
      }
      const int begin = std::max(binned_.bin_begin_rank(dim, b),
                                 lo_rank_[static_cast<size_t>(dim)]);
      const int end = std::min(binned_.bin_begin_rank(dim, b + 1),
                               hi_rank_[static_cast<size_t>(dim)]);
      const int stay = c - (count - cum);
      sum += pos_sums[static_cast<size_t>(b)] -
             util::MaskedPrefixSum(train_.y_data(), in_box_.data(),
                                   sorted.data() + begin, end - begin, stay);
      return sum;
    }
    return sum;
  }

  // Value of the rank-th in-box row of `dim` counted from the top (rank 0 is
  // the largest; equals ValueAtInBoxRank(dim, n - 1 - rank)): suffix counts
  // over the bin histogram pick the bin, then a backward scan of its
  // permutation segment finds the row.
  double ValueAtInBoxTopRank(int dim, int rank) const {
    const std::vector<int>& counts = bin_count_[static_cast<size_t>(dim)];
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    const std::vector<double>& col = index_.column(dim);
    int cum = 0;
    for (int b = LastBin(dim); b >= 0; --b) {
      const int c = counts[static_cast<size_t>(b)];
      if (cum + c <= rank) {
        cum += c;
        continue;
      }
      int need = rank - cum;
      const int begin = std::max(binned_.bin_begin_rank(dim, b),
                                 lo_rank_[static_cast<size_t>(dim)]);
      const int end = std::min(binned_.bin_begin_rank(dim, b + 1),
                               hi_rank_[static_cast<size_t>(dim)]);
      for (int pos = end - 1; pos >= begin; --pos) {
        const int r = sorted[static_cast<size_t>(pos)];
        if (!in_box_[static_cast<size_t>(r)]) continue;
        if (need == 0) return col[static_cast<size_t>(r)];
        --need;
      }
      break;
    }
    assert(false && "in-box rank out of range");
    return 0.0;
  }

  // Value of the rank-th in-box row of `dim` (ascending by value, ties by
  // row id): prefix counts over the bin histogram pick the bin, then a scan
  // of its permutation segment finds the row.
  double ValueAtInBoxRank(int dim, int rank) const {
    const std::vector<int>& counts = bin_count_[static_cast<size_t>(dim)];
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    const std::vector<double>& col = index_.column(dim);
    int cum = 0;
    for (size_t b = FirstBin(dim); b < counts.size(); ++b) {
      const int c = counts[b];
      if (cum + c <= rank) {
        cum += c;
        continue;
      }
      int need = rank - cum;
      const int begin =
          std::max(binned_.bin_begin_rank(dim, static_cast<int>(b)),
                   lo_rank_[static_cast<size_t>(dim)]);
      const int end =
          std::min(binned_.bin_begin_rank(dim, static_cast<int>(b) + 1),
                   hi_rank_[static_cast<size_t>(dim)]);
      for (int pos = begin; pos < end; ++pos) {
        const int r = sorted[static_cast<size_t>(pos)];
        if (!in_box_[static_cast<size_t>(r)]) continue;
        if (need == 0) return col[static_cast<size_t>(r)];
        --need;
      }
      break;
    }
    assert(false && "in-box rank out of range");
    return 0.0;
  }

  // Number of in-box rows of `dim` with value < v (v is a data value):
  // whole bins below v come from the histogram, the boundary bin from an
  // exact scan.
  int CountLess(int dim, double v) const {
    const std::vector<int>& counts = bin_count_[static_cast<size_t>(dim)];
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    const std::vector<double>& col = index_.column(dim);
    int cum = 0;
    for (size_t b = FirstBin(dim); b < counts.size(); ++b) {
      if (binned_.bin_last(dim, static_cast<int>(b)) >= v) {
        if (binned_.bin_first(dim, static_cast<int>(b)) >= v) return cum;
        const int begin =
            std::max(binned_.bin_begin_rank(dim, static_cast<int>(b)),
                     lo_rank_[static_cast<size_t>(dim)]);
        const int end =
            std::min(binned_.bin_begin_rank(dim, static_cast<int>(b) + 1),
                     hi_rank_[static_cast<size_t>(dim)]);
        // The segment is value-sorted, so a full-segment masked count
        // equals the early-break walk; dispatched (util/simd.h).
        cum += util::MaskedCountBelow(col.data(), in_box_.data(),
                                      sorted.data() + begin, end - begin, v,
                                      /*strict=*/true);
        return cum;
      }
      cum += counts[b];
    }
    return cum;
  }

  // Number of in-box rows of `dim` with value <= v.
  int CountLessEq(int dim, double v) const {
    const std::vector<int>& counts = bin_count_[static_cast<size_t>(dim)];
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    const std::vector<double>& col = index_.column(dim);
    int cum = 0;
    for (size_t b = FirstBin(dim); b < counts.size(); ++b) {
      if (binned_.bin_last(dim, static_cast<int>(b)) >= v) {
        if (binned_.bin_first(dim, static_cast<int>(b)) > v) return cum;
        const int begin =
            std::max(binned_.bin_begin_rank(dim, static_cast<int>(b)),
                     lo_rank_[static_cast<size_t>(dim)]);
        const int end =
            std::min(binned_.bin_begin_rank(dim, static_cast<int>(b) + 1),
                     hi_rank_[static_cast<size_t>(dim)]);
        // Value-sorted segment: full-segment masked count == early-break
        // walk, as in CountLess.
        cum += util::MaskedCountBelow(col.data(), in_box_.data(),
                                      sorted.data() + begin, end - begin, v,
                                      /*strict=*/false);
        return cum;
      }
      cum += counts[b];
    }
    return cum;
  }

  // Number of in-box rows of `dim` with value > v (v is a data value),
  // walking down from the top bin: whole bins above v from the histogram,
  // the boundary bin as its count minus an exact masked count of <= v.
  int CountGreater(int dim, double v) const {
    const std::vector<int>& counts = bin_count_[static_cast<size_t>(dim)];
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    const std::vector<double>& col = index_.column(dim);
    int cum = 0;
    for (int b = LastBin(dim); b >= 0; --b) {
      if (binned_.bin_first(dim, b) <= v) {
        if (binned_.bin_last(dim, b) <= v) return cum;
        const int begin = std::max(binned_.bin_begin_rank(dim, b),
                                   lo_rank_[static_cast<size_t>(dim)]);
        const int end = std::min(binned_.bin_begin_rank(dim, b + 1),
                                 hi_rank_[static_cast<size_t>(dim)]);
        cum += counts[static_cast<size_t>(b)] -
               util::MaskedCountBelow(col.data(), in_box_.data(),
                                      sorted.data() + begin, end - begin, v,
                                      /*strict=*/false);
        return cum;
      }
      cum += counts[static_cast<size_t>(b)];
    }
    return cum;
  }

  // Sum of y over the first `count` in-box rows of `dim` in value order --
  // the exact accumulation order of the sorted kernel's prefix sums.
  double SumYFirst(int dim, int count) const {
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    double sum = 0.0;
    int seen = 0;
    for (int pos = lo_rank_[static_cast<size_t>(dim)]; seen < count; ++pos) {
      const int r = sorted[static_cast<size_t>(pos)];
      if (!in_box_[static_cast<size_t>(r)]) continue;
      sum += train_.y(r);
      ++seen;
    }
    return sum;
  }

  // Sum of y over in-box rows of `dim` from in-box rank `from_rank` to the
  // top, accumulated ascending like the sorted kernel's suffix sums.
  double SumYTail(int dim, int from_rank) const {
    const std::vector<int>& counts = bin_count_[static_cast<size_t>(dim)];
    const std::vector<int>& sorted = index_.sorted_rows(dim);
    // Locate the permutation position of in-box rank from_rank, then sum
    // ascending through the remaining window.
    int cum = 0;
    int start = hi_rank_[static_cast<size_t>(dim)];
    for (size_t b = FirstBin(dim); b < counts.size(); ++b) {
      const int c = counts[b];
      if (cum + c <= from_rank) {
        cum += c;
        continue;
      }
      int need = from_rank - cum;
      const int begin =
          std::max(binned_.bin_begin_rank(dim, static_cast<int>(b)),
                   lo_rank_[static_cast<size_t>(dim)]);
      for (int pos = begin;; ++pos) {
        const int r = sorted[static_cast<size_t>(pos)];
        if (!in_box_[static_cast<size_t>(r)]) continue;
        if (need == 0) {
          start = pos;
          break;
        }
        --need;
      }
      break;
    }
    double sum = 0.0;
    for (int pos = start; pos < hi_rank_[static_cast<size_t>(dim)]; ++pos) {
      const int r = sorted[static_cast<size_t>(pos)];
      if (in_box_[static_cast<size_t>(r)]) sum += train_.y(r);
    }
    return sum;
  }

  const Dataset& train_;
  const ColumnIndex& index_;
  const BinnedIndex& binned_;
  std::vector<uint8_t> in_box_;            // by row id
  int n_ = 0;                              // rows currently in box
  bool integral_labels_ = false;           // every y is exactly 0 or 1
  std::vector<int> lo_rank_;               // [dim] first in-window perm rank
  std::vector<int> hi_rank_;               // [dim] one past last window rank
  std::vector<std::vector<int>> bin_count_;   // [dim][bin] in-box rows
  std::vector<std::vector<double>> bin_pos_;  // [dim][bin] in-box y sum
};

// Streamed peel state: PRIM on the quantized plane alone. The dataset
// exists only as BinnedIndex codes, the index's own code-ordered
// permutation, and the label vector -- no raw doubles, no ColumnIndex.
// Candidates treat bins as atomic value blocks: the boundary bin replaces
// the exact order statistic and bounds snap to bin_first/bin_last. With
// one distinct value per bin this reproduces PeelState's decisions exactly
// (same candidate counts, same tie handling, same removed sums); with
// wider bins every cut is within the binning's rank error of the exact
// kernel's.
//
// The in-box aggregates are StreamedBinTotals cells, copied from the
// dataset's prebuilt totals, so a peel pays only for the rows it removes:
// Apply walks the removed window of the peeled dimension's permutation
// once and subtracts each removed row's packed (1 row, y positives) delta
// from every other column's cell, a column at a time.
class CodePeelState {
 public:
  CodePeelState(const BinnedIndex& binned, const std::vector<double>& y,
                const StreamedBinTotals& totals)
      : binned_(binned),
        y_(y),
        in_box_(static_cast<size_t>(binned.num_rows()), 1),
        n_(binned.num_rows()),
        // Integral {0,1} labels make every removed-mass sum an exact
        // integer, read from the cells' positive halves; fractional labels
        // fall back to ordered permutation scans, which accumulate in
        // (bin, row id) order -- the sorted kernel's exact order when bins
        // are single values.
        integral_labels_(totals.integral_labels),
        cells_(totals.cells),
        offset_(totals.offset) {
    assert(binned.has_sorted_rows());
    assert(static_cast<int>(offset_.size()) == binned.num_cols() + 1);
    const int m = binned.num_cols();
    const int n = binned.num_rows();
    lo_rank_.assign(static_cast<size_t>(m), 0);
    hi_rank_.assign(static_cast<size_t>(m), n);
    const size_t block = static_cast<size_t>(std::min(n, kApplyBlock));
    removed_rows_.resize(block);
    removed_delta_.resize(block);
  }

  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const int n = n_;
    const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
    if (k >= n) return peel;  // would empty the box

    const int64_t* cells = Cells(dim);
    const int bins = binned_.num_bins(dim);
    // One walk per candidate. `cut` accumulates the packed cells of the bins
    // the peel removes; its low half is their row count, its high half
    // their positives.
    int64_t cut = 0;
    int b;
    if (low_side) {
      // Bins from the bottom until the one holding in-box rank k.
      b = 0;
      while (StreamedBinTotals::Rows(cut + cells[b]) <= k) cut += cells[b++];
      if (StreamedBinTotals::Rows(cut) == 0) {
        // The cut was swallowed by the boundary bin: move past it, exactly
        // like the exact kernel moves past a tied block.
        cut = cells[b++];
        if (StreamedBinTotals::Rows(cut) >= n) return peel;  // constant
        while (StreamedBinTotals::Rows(cells[b]) == 0) ++b;
      }
      peel.bound = binned_.bin_first(dim, b);
    } else {
      // Bins from the top until the one holding rank k counted from the
      // top, i.e. ascending rank n - 1 - k.
      b = bins - 1;
      while (StreamedBinTotals::Rows(cut + cells[b]) <= k) cut += cells[b--];
      if (StreamedBinTotals::Rows(cut) == 0) {
        // Nothing above the boundary bin: move below it.
        cut = cells[b--];
        if (StreamedBinTotals::Rows(cut) >= n) return peel;  // constant
        while (StreamedBinTotals::Rows(cells[b]) == 0) --b;
      }
      peel.bound = binned_.bin_last(dim, b);
    }
    const int removed = StreamedBinTotals::Rows(cut);
    if (removed >= n) return peel;  // would empty the box
    double removed_pos;
    if (integral_labels_) {
      removed_pos = static_cast<double>(StreamedBinTotals::Positives(cut));
    } else {
      removed_pos = low_side ? SumYFirst(dim, removed)
                             : SumYTail(dim, n - removed);
    }

    peel.dim = dim;
    peel.low_side = low_side;
    peel.bin = b;
    peel.removed_n = removed;
    peel.removed_pos = removed_pos;
    peel.precision_after =
        (in_stats.n_pos - removed_pos) / (in_stats.n - removed);
    return peel;
  }

  void Apply(const Peel& peel, BoxStats* stats) {
    const ColumnView<int> sorted = binned_.sorted_rows(peel.dim);
    const size_t dim = static_cast<size_t>(peel.dim);
    int begin, end;
    if (peel.low_side) {
      begin = lo_rank_[dim];
      end = binned_.bin_begin_rank(peel.dim, peel.bin);
      lo_rank_[dim] = end;
    } else {
      begin = binned_.bin_begin_rank(peel.dim, peel.bin + 1);
      end = hi_rank_[dim];
      hi_rank_[dim] = begin;
    }
    for (int start = begin; start < end; start += kApplyBlock) {
      RemoveBlock(sorted.data() + start, std::min(kApplyBlock, end - start),
                  peel.dim);
    }
    // Every row of the peeled dimension's cut bins is gone now, including
    // those other peels removed earlier.
    int64_t* cells = Cells(peel.dim);
    if (peel.low_side) {
      std::fill(cells, cells + peel.bin, int64_t{0});
    } else {
      std::fill(cells + peel.bin + 1, cells + binned_.num_bins(peel.dim),
                int64_t{0});
    }
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
    for (size_t j = 0; j < lo_rank_.size(); ++j) {
      const ColumnView<int> s = binned_.sorted_rows(static_cast<int>(j));
      int& lo = lo_rank_[j];
      int& hi = hi_rank_[j];
      while (lo < hi && !in_box_[static_cast<size_t>(
                            s[static_cast<size_t>(lo)])]) {
        ++lo;
      }
      while (hi > lo && !in_box_[static_cast<size_t>(
                            s[static_cast<size_t>(hi - 1)])]) {
        --hi;
      }
    }
  }

 private:
  // Rows of a removal window handled per pass: the block's row ids and
  // deltas stay in L1 while every column's cells are updated.
  static constexpr int kApplyBlock = 4096;
  static constexpr int kPrefetchAhead = 32;

  int64_t* Cells(int dim) {
    return cells_.data() + offset_[static_cast<size_t>(dim)];
  }
  const int64_t* Cells(int dim) const {
    return cells_.data() + offset_[static_cast<size_t>(dim)];
  }

  // Removes the still-in-box rows among `rows[0, len)` from every column
  // but `skip_dim`, whose cut bins Apply zeroes outright.
  void RemoveBlock(const int* rows, int len, int skip_dim) {
    int* out = removed_rows_.data();
    int count = 0;
    for (int i = 0; i < len; ++i) {
      const size_t r = static_cast<size_t>(rows[i]);
      out[count] = rows[i];
      count += in_box_[r];
      in_box_[r] = 0;
    }
    n_ -= count;
    int64_t* delta = removed_delta_.data();
    for (int i = 0; i < count; ++i) {
      const double y = y_[static_cast<size_t>(out[i])];
      delta[i] = integral_labels_ ? 1 + (static_cast<int64_t>(y)
                                         << StreamedBinTotals::kPosShift)
                                  : 1;
    }
    for (int j = 0; j < binned_.num_cols(); ++j) {
      if (j == skip_dim) continue;
      const uint8_t* codes = binned_.codes(j).data();
      int64_t* cells = Cells(j);
      // The code reads are a gather over the whole column, which outgrows
      // L2 on large streams; their addresses are known in advance, so
      // fetch them a few dozen rows ahead.
      int i = 0;
      for (; i + kPrefetchAhead < count; ++i) {
        __builtin_prefetch(codes + out[i + kPrefetchAhead]);
        cells[codes[static_cast<size_t>(out[i])]] -= delta[i];
      }
      for (; i < count; ++i) {
        cells[codes[static_cast<size_t>(out[i])]] -= delta[i];
      }
    }
  }

  // Sum of y over the first `count` in-box rows of `dim` in (bin, row id)
  // order -- the sorted kernel's exact accumulation order for single-value
  // bins. Fractional-label path only.
  double SumYFirst(int dim, int count) const {
    const ColumnView<int> sorted = binned_.sorted_rows(dim);
    double sum = 0.0;
    int seen = 0;
    for (int pos = lo_rank_[static_cast<size_t>(dim)]; seen < count; ++pos) {
      const int r = sorted[static_cast<size_t>(pos)];
      if (!in_box_[static_cast<size_t>(r)]) continue;
      sum += y_[static_cast<size_t>(r)];
      ++seen;
    }
    return sum;
  }

  // Sum of y over in-box rows of `dim` from in-box rank `from_rank` up,
  // accumulated ascending. Fractional-label path only.
  double SumYTail(int dim, int from_rank) const {
    const ColumnView<int> sorted = binned_.sorted_rows(dim);
    double sum = 0.0;
    int seen = 0;
    for (int pos = lo_rank_[static_cast<size_t>(dim)];
         pos < hi_rank_[static_cast<size_t>(dim)]; ++pos) {
      const int r = sorted[static_cast<size_t>(pos)];
      if (!in_box_[static_cast<size_t>(r)]) continue;
      if (seen >= from_rank) sum += y_[static_cast<size_t>(r)];
      ++seen;
    }
    return sum;
  }

  const BinnedIndex& binned_;
  const std::vector<double>& y_;
  std::vector<uint8_t> in_box_;            // by row id
  int n_ = 0;                              // rows currently in box
  bool integral_labels_ = false;           // every y is exactly 0 or 1
  std::vector<int64_t> cells_;             // in-box StreamedBinTotals cells
  std::vector<int> offset_;                // [dim] first cell of dim
  std::vector<int> lo_rank_;               // [dim] first in-window perm rank
  std::vector<int> hi_rank_;               // [dim] one past last window rank
  std::vector<int> removed_rows_;          // RemoveBlock buffer
  std::vector<int64_t> removed_delta_;     // RemoveBlock buffer
};

// One pasting expansion candidate: move a bound outward to re-admit roughly
// a paste_alpha share of the current box population.
struct Paste {
  int dim = -1;
  bool low_side = true;
  double bound = 0.0;
  double precision_after = -1.0;
  double added_n = 0.0;
};

// Pasting phase (Friedman & Fisher): greedily re-expand the selected box
// while train precision does not drop. Candidate enumeration walks the
// full-data sorted permutation beyond one bound, keeping rows whose only
// violation is that bound (viol == 1); selection and accounting are
// identical to the reference implementation.
void RunPastePhase(const Dataset& train, const Dataset& val,
                   const ColumnIndex& index, const PrimConfig& config,
                   double total_train_pos, double total_val_pos,
                   PrimResult* result) {
  const int dims = train.num_cols();
  Box pasted = result->BestBox();
  BoxStats stats = ComputeBoxStats(train, pasted);
  std::vector<int> viol = CountBoundViolations(index, pasted);
  std::vector<std::pair<double, double>> outside;  // (x_j, y)

  bool improved = true;
  while (improved && stats.n > 0.0) {
    improved = false;
    Paste best_paste;
    const int grow = std::max(
        1, static_cast<int>(std::floor(config.paste_alpha * stats.n)));
    for (int j = 0; j < dims; ++j) {
      const std::vector<int>& s = index.sorted_rows(j);
      for (bool low : {true, false}) {
        const double cur = low ? pasted.lo(j) : pasted.hi(j);
        if (!std::isfinite(cur)) continue;
        // Points outside only through this one bound.
        outside.clear();
        if (low) {
          const int end = index.LowerBoundRank(j, cur);
          for (int i = 0; i < end; ++i) {
            const int r = s[static_cast<size_t>(i)];
            if (viol[static_cast<size_t>(r)] != 1) continue;
            outside.emplace_back(train.x(r, j), train.y(r));
          }
        } else {
          const int begin = index.UpperBoundRank(j, cur);
          for (int i = begin; i < index.num_rows(); ++i) {
            const int r = s[static_cast<size_t>(i)];
            if (viol[static_cast<size_t>(r)] != 1) continue;
            outside.emplace_back(train.x(r, j), train.y(r));
          }
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
      const int j = best_paste.dim;
      const std::vector<int>& s = index.sorted_rows(j);
      // Rows admitted by the moved bound lose their dimension-j violation.
      int begin, end;
      if (best_paste.low_side) {
        begin = index.LowerBoundRank(j, best_paste.bound);
        end = index.LowerBoundRank(j, pasted.lo(j));
        pasted.set_lo(j, best_paste.bound);
      } else {
        begin = index.UpperBoundRank(j, pasted.hi(j));
        end = index.UpperBoundRank(j, best_paste.bound);
        pasted.set_hi(j, best_paste.bound);
      }
      for (int i = begin; i < end; ++i) {
        --viol[static_cast<size_t>(s[static_cast<size_t>(i)])];
      }
      stats = ComputeBoxStats(train, pasted);
      improved = true;
    }
  }

  if (!(pasted == result->BestBox())) {
    result->boxes.push_back(pasted);
    const BoxStats tr = ComputeBoxStats(train, pasted);
    const BoxStats va = ComputeBoxStats(val, pasted);
    result->train_curve.push_back({Recall(tr, total_train_pos), Precision(tr)});
    result->val_curve.push_back({Recall(va, total_val_pos), Precision(va)});
    result->best_val_index = static_cast<int>(result->boxes.size()) - 1;
  }
}

}  // namespace

std::vector<Box> PrimResult::ReturnedBoxes() const {
  return std::vector<Box>(boxes.begin(),
                          boxes.begin() + best_val_index + 1);
}


PrimResult RunPrim(const Dataset& train, const Dataset& val,
                   const PrimConfig& config, const ColumnIndex* train_index,
                   const BinnedIndex* train_binned) {
  assert(train.num_cols() == val.num_cols());
  assert(train.num_rows() > 0 && val.num_rows() > 0);
  std::shared_ptr<const ColumnIndex> owned;
  if (train_index == nullptr) {
    owned = ColumnIndex::Build(train);
    train_index = owned.get();
  }
  assert(train_index->num_rows() == train.num_rows());
  assert(train_index->num_cols() == train.num_cols());

  PrimResult result;
  if (config.backend == PrimPeelBackend::kBinned) {
    std::shared_ptr<const BinnedIndex> owned_binned;
    if (train_binned == nullptr) {
      owned_binned = BinnedIndex::Build(*train_index);
      train_binned = owned_binned.get();
    }
    assert(train_binned->num_rows() == train.num_rows());
    assert(train_binned->num_cols() == train.num_cols());
    BinnedPeelState state(train, *train_index, *train_binned);
    obs::Span span("prim.peel");
    result = RunPeelingPhase(train.num_cols(),
                             static_cast<double>(train.num_rows()),
                             train.TotalPositive(), &val, config, &state);
  } else {
    PeelState state(train, *train_index);
    obs::Span span("prim.peel");
    result = RunPeelingPhase(train.num_cols(),
                             static_cast<double>(train.num_rows()),
                             train.TotalPositive(), &val, config, &state);
  }

  if (config.paste) {
    obs::Span span("prim.paste");
    RunPastePhase(train, val, *train_index, config, train.TotalPositive(),
                  val.TotalPositive(), &result);
  }
  return result;
}

PrimResult RunPrimStreamed(const BinnedIndex& binned,
                           const std::vector<double>& y,
                           const PrimConfig& config, const Dataset* val,
                           const StreamedBinTotals* totals) {
  assert(binned.has_sorted_rows() &&
         "RunPrimStreamed needs a streamed/deserialized index with its own "
         "permutation");
  assert(static_cast<int>(y.size()) == binned.num_rows());
  assert(binned.num_rows() > 0);
  assert(val == nullptr || val->num_cols() == binned.num_cols());
  assert(val == nullptr || val->num_rows() > 0);
  std::shared_ptr<const StreamedBinTotals> owned;
  if (totals == nullptr) {
    owned = StreamedBinTotals::Build(binned, y);
    totals = owned.get();
  }
  assert(static_cast<int>(totals->offset.size()) == binned.num_cols() + 1);

  // The shared peeling loop on the quantized plane: CodePeelState is just
  // another peel-state backend, so the loop -- candidate selection,
  // validation tracking, box selection -- is the exact code the
  // materialized kernels run. Pasting needs raw training values, so it is
  // skipped.
  CodePeelState state(binned, y, *totals);
  obs::Span span("prim.peel");
  return RunPeelingPhase(binned.num_cols(),
                         static_cast<double>(binned.num_rows()),
                         totals->label_total, val, config, &state);
}

}  // namespace reds
