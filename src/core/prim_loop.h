// Internal: the peel-candidate record, the peel state, the candidate search
// and the generic peeling loop shared by every PRIM kernel. Split out of
// prim.cc so the shard fleet runs the exact same code: the coordinator
// drives RunPeelingPhase over a distributed peel state whose candidates come
// from FindPeel, and every worker applies the chosen peels to its shard
// with PeelState. Box sequences stay bit-identical to the single-process
// kernels by construction, because there is only one search, one removal
// loop and one peeling loop.
#ifndef REDS_CORE_PRIM_LOOP_H_
#define REDS_CORE_PRIM_LOOP_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/binned_index.h"
#include "core/box.h"
#include "core/column_index.h"
#include "core/dataset.h"
#include "core/prim.h"
#include "core/quality.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace reds {

// A candidate peel: restrict dimension `dim` on one side to `bound`.
struct Peel {
  int dim = -1;
  bool low_side = true;   // true: raise lo to `bound`; false: drop hi
  double bound = 0.0;
  int bin = -1;           // boundary bin: bins beyond it go whole
  double removed_n = 0.0;
  double removed_pos = 0.0;
  double precision_after = -1.0;
};

// The candidate search: the low- or high-side peel of one dimension that
// cuts off roughly an alpha share of the in-box rows. Returns dim = -1 when
// no valid cut exists (e.g. all values equal). The bound is the (k+1)-th
// order statistic counted from the cut side, rows equal to it stay inside,
// and a cut swallowed by ties moves past the tied block.
//
// It walks whole bins over the state's in-box bin accessors:
//   int InBoxRows() const;
//   const int64_t* Cells(int dim) const;  // packed StreamedBinTotals cells
//   int FirstBin(int dim) const;          // first and last bins holding an
//   int LastBin(int dim) const;           //   in-box row
//   double Edge(int dim, int b, bool low_side) const;  // whole-bin bound
// A state that holds rows (State::kSeesRows) also refines the boundary bin
// from value columns -- Refines, InBinValue, InBinBeyond, PartPositives --
// and sums fractional labels in order (integral_labels, SumYFirst,
// SumYTail). One without rows (the shard coordinator) cuts whole bins and
// reads the removed positives from the cells, so it needs integral labels.
template <typename State>
Peel FindPeel(const State& state, int dim, bool low_side, double alpha,
              const BoxStats& in_stats) {
  const auto rows = [](int64_t cell) { return StreamedBinTotals::Rows(cell); };
  Peel peel;
  const int n = state.InBoxRows();
  const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
  if (k >= n) return peel;  // would empty the box

  const int64_t* cells = state.Cells(dim);
  const int step = low_side ? 1 : -1;
  // Whole bins from the cut side until the one holding rank k. `cut`
  // accumulates the packed cells of the bins the peel removes whole; its
  // low half is their row count, its high half their positives.
  int64_t cut = 0;
  int b = low_side ? state.FirstBin(dim) : state.LastBin(dim);
  while (rows(cut + cells[b]) <= k) {
    cut += cells[b];
    b += step;
  }
  // `part`: in-box rows of bin b beyond the bound, removed as well.
  int part = 0;
  double bound = state.Edge(dim, b, low_side);
  bool refine = false;
  if constexpr (State::kSeesRows) {
    refine = state.Refines(dim, b);
    if (refine) {
      bound = state.InBinValue(dim, b, k - rows(cut), low_side);
      part = state.InBinBeyond(dim, b, bound, low_side, /*inclusive=*/false);
    }
  }
  if (rows(cut) + part == 0) {
    // Ties swallowed the whole cut: move past the tied block.
    part = rows(cells[b]);
    if constexpr (State::kSeesRows) {
      if (refine) {
        part = state.InBinBeyond(dim, b, bound, low_side, /*inclusive=*/true);
        if (part < rows(cells[b])) {
          bound = state.InBinValue(dim, b, part, low_side);
        }
      }
    }
    if (part == rows(cells[b])) {
      cut = cells[b];
      if (rows(cut) >= n) return peel;  // dimension is constant in box
      part = 0;
      do {
        b += step;
      } while (rows(cells[b]) == 0);
      bound = state.Edge(dim, b, low_side);
      if constexpr (State::kSeesRows) {
        if (state.Refines(dim, b)) {
          bound = state.InBinValue(dim, b, 0, low_side);
        }
      }
    }
  }
  const int removed = rows(cut) + part;
  if (removed >= n) return peel;  // would empty the box
  double removed_pos = static_cast<double>(StreamedBinTotals::Positives(cut));
  if constexpr (State::kSeesRows) {
    if (!state.integral_labels()) {
      removed_pos = low_side ? state.SumYFirst(dim, removed)
                             : state.SumYTail(dim, b, part);
    } else if (part > 0) {
      removed_pos += state.PartPositives(dim, b, part, low_side);
    }
  }

  peel.dim = dim;
  peel.low_side = low_side;
  peel.bound = bound;
  peel.bin = b;
  peel.removed_n = removed;
  peel.removed_pos = removed_pos;
  peel.precision_after =
      (in_stats.n_pos - removed_pos) / (in_stats.n - removed);
  return peel;
}

// The peel state of one process's rows. Every column j has a permutation of
// the rows, ascending by bin code; inside a bin the rows run by (value, row
// id) with value columns (ColumnIndex::sorted_rows) and by row id without,
// on the streamed plan and on a shard worker (BinnedIndex::sorted_rows).
// The in-box aggregates are the rows' StreamedBinTotals cells, copied and
// then kept current, so a peel pays only for the rows it removes: Apply
// subtracts each removed row's packed (1 row, y positives) delta from every
// other column's cell, a column at a time.
//
// FindPeel treats a bin as one value block unless `values` is set and the
// boundary bin holds more than one value. The cut is then refined inside
// that bin from the value column -- the exact order statistic, tie fallback
// and removed sums -- and the peel removes `part` of the bin's in-box rows,
// those beyond the bound. With one value per bin, whole-bin cuts are exact
// too; with wider streamed bins every cut is within the binning's rank
// error of the exact kernel's.
//
// Removed-mass sums: integral {0,1} labels read exact integers from the
// cells' positive halves (plus a masked sum over the refined part);
// fractional labels are summed in permutation order over the removed rows,
// i.e. ascending by (value, row id) on the materialized plan and by
// (bin, row id) on the streamed one -- the orders of the golden references.
class PeelState {
 public:
  static constexpr bool kSeesRows = true;

  PeelState(const BinnedIndex& binned, const double* y,
            const StreamedBinTotals& totals, const ColumnIndex* values)
      : binned_(binned),
        y_(y),
        values_(values),
        // +3 padding bytes: the dispatched masked kernels gather mask bytes
        // with 32-bit loads (see util/simd.h), so the bitmask must stay
        // readable 3 bytes past the last row. Padding rows are never
        // indexed; their value is irrelevant.
        in_box_(static_cast<size_t>(binned.num_rows()) + 3, 1),
        n_(binned.num_rows()),
        integral_labels_(totals.integral_labels),
        cells_(totals.cells),
        offset_(totals.offset) {
    assert(static_cast<int>(offset_.size()) == binned.num_cols() + 1);
    const int m = binned.num_cols();
    const int n = binned.num_rows();
    for (int j = 0; j < m; ++j) {
      sorted_.push_back(values != nullptr ? values->sorted_rows(j).data()
                                          : binned.sorted_rows(j).data());
    }
    lo_rank_.assign(static_cast<size_t>(m), 0);
    hi_rank_.assign(static_cast<size_t>(m), n);
    const size_t block = static_cast<size_t>(std::min(n, kApplyBlock));
    removed_rows_.resize(block);
    removed_delta_.resize(block);
  }

  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    return FindPeel(*this, dim, low_side, alpha, in_stats);
  }

  // Drops the rows the peel cuts off: the whole bins beyond its boundary
  // bin, whose cells in the peeled column are zeroed outright, and the
  // boundary bin's rows beyond the bound, which a refined cut removes too.
  void Apply(const Peel& peel) {
    const size_t dim = static_cast<size_t>(peel.dim);
    const int* sorted = sorted_[dim];
    const int bin_begin = binned_.bin_begin_rank(peel.dim, peel.bin);
    const int bin_end = binned_.bin_begin_rank(peel.dim, peel.bin + 1);
    int64_t* cells = Cells(peel.dim);
    if (peel.low_side) {
      int end = bin_begin;
      if (values_ != nullptr) {
        const double* col = values_->column(peel.dim).data();
        end = static_cast<int>(
            std::partition_point(
                sorted + bin_begin, sorted + bin_end,
                [&](int r) { return col[r] < peel.bound; }) -
            sorted);
      }
      RemoveRows(sorted, lo_rank_[dim], bin_begin, peel.dim);
      RemoveRows(sorted, std::max(lo_rank_[dim], bin_begin), end, -1);
      std::fill(cells, cells + peel.bin, int64_t{0});
      lo_rank_[dim] = end;
    } else {
      int begin = bin_end;
      if (values_ != nullptr) {
        const double* col = values_->column(peel.dim).data();
        begin = static_cast<int>(
            std::partition_point(
                sorted + bin_begin, sorted + bin_end,
                [&](int r) { return col[r] <= peel.bound; }) -
            sorted);
      }
      RemoveRows(sorted, bin_end, hi_rank_[dim], peel.dim);
      RemoveRows(sorted, begin, std::min(hi_rank_[dim], bin_end), -1);
      std::fill(cells + peel.bin + 1, cells + binned_.num_bins(peel.dim),
                int64_t{0});
      hi_rank_[dim] = begin;
    }
    // Trim every dimension's window past leading/trailing holes so walks
    // start at a live row; amortized O(N) per dimension over the run.
    for (size_t j = 0; j < lo_rank_.size(); ++j) {
      const int* s = sorted_[j];
      int& lo = lo_rank_[j];
      int& hi = hi_rank_[j];
      while (lo < hi && !in_box_[static_cast<size_t>(s[lo])]) ++lo;
      while (hi > lo && !in_box_[static_cast<size_t>(s[hi - 1])]) --hi;
    }
  }

  // The in-box cells of every column, at [offset[j], offset[j + 1]) as in
  // the StreamedBinTotals the state was built from.
  const std::vector<int64_t>& cells() const { return cells_; }

  // ---- Bin accessors of FindPeel. ----
  int InBoxRows() const { return n_; }

  const int64_t* Cells(int dim) const {
    return cells_.data() + offset_[static_cast<size_t>(dim)];
  }

  // Every in-box row of `dim` lies in its window [lo_rank_, hi_rank_),
  // whose ends are live rows after each Apply's trim, so bins below the
  // code of the first window row and above the code of the last hold no
  // in-box row.
  int FirstBin(int dim) const {
    const size_t d = static_cast<size_t>(dim);
    return binned_.code(dim, sorted_[d][lo_rank_[d]]);
  }
  int LastBin(int dim) const {
    const size_t d = static_cast<size_t>(dim);
    return binned_.code(dim, sorted_[d][hi_rank_[d] - 1]);
  }

  // The bound of a whole-bin cut at bin b: its value edge facing the box.
  double Edge(int dim, int b, bool low_side) const {
    return low_side ? binned_.bin_first(dim, b) : binned_.bin_last(dim, b);
  }

  // ---- Boundary-bin refiner and fractional-label sums of FindPeel. ----
  // Whether a cut at bin b of `dim` is refined from the value column.
  bool Refines(int dim, int b) const {
    return values_ != nullptr &&
           binned_.bin_first(dim, b) != binned_.bin_last(dim, b);
  }

  bool integral_labels() const { return integral_labels_; }

  // Value of the in-box row of bin b at in-box offset `offset`, counted
  // from the bin's bottom (from_low) or top. Refined bins only.
  double InBinValue(int dim, int b, int offset, bool from_low) const {
    const auto [rows, len] = Segment(dim, b);
    const double* col = values_->column(dim).data();
    for (int i = 0; i < len; ++i) {
      const int r = rows[from_low ? i : len - 1 - i];
      if (in_box_[static_cast<size_t>(r)] && offset-- == 0) return col[r];
    }
    assert(false && "in-bin offset out of range");
    return 0.0;
  }

  // Number of in-box rows of bin b beyond the bound `v` on the cut side
  // (below it on the low side, above it on the high side), counting rows
  // equal to `v` when inclusive. The segment is value-sorted, so a masked
  // count over all of it is exact; dispatched (util/simd.h).
  int InBinBeyond(int dim, int b, double v, bool low_side,
                  bool inclusive) const {
    const auto [rows, len] = Segment(dim, b);
    const int below = util::MaskedCountBelow(
        values_->column(dim).data(), in_box_.data(), rows, len, v,
        /*strict=*/low_side != inclusive);
    return low_side ? below : Rows(Cells(dim)[b]) - below;
  }

  // Positives among the `part` in-box rows of bin b beyond the bound.
  // Integral labels only, where the dispatched sum is exact (util/simd.h).
  double PartPositives(int dim, int b, int part, bool low_side) const {
    const auto [rows, len] = Segment(dim, b);
    if (low_side) {
      return util::MaskedPrefixSum(y_, in_box_.data(), rows, len, part);
    }
    const int64_t cell = Cells(dim)[b];
    return static_cast<double>(StreamedBinTotals::Positives(cell)) -
           util::MaskedPrefixSum(y_, in_box_.data(), rows, len,
                                 Rows(cell) - part);
  }

  // Sum of y over the first `count` in-box rows of `dim` in permutation
  // order. Fractional-label path only.
  double SumYFirst(int dim, int count) const {
    const size_t d = static_cast<size_t>(dim);
    double sum = 0.0;
    int seen = 0;
    for (int pos = lo_rank_[d]; seen < count; ++pos) {
      const int r = sorted_[d][pos];
      if (!in_box_[static_cast<size_t>(r)]) continue;
      sum += y_[r];
      ++seen;
    }
    return sum;
  }

  // Sum of y over the rows a high-side cut at bin b removes -- the top
  // `part` in-box rows of the bin and every in-box row above it -- in
  // permutation order. Fractional-label path only.
  double SumYTail(int dim, int b, int part) const {
    const size_t d = static_cast<size_t>(dim);
    const auto [rows, len] = Segment(dim, b);
    int stay = Rows(Cells(dim)[b]) - part;
    const int* p = rows;
    for (; stay > 0; ++p) stay -= in_box_[static_cast<size_t>(*p)];
    double sum = 0.0;
    for (const int* end = sorted_[d] + hi_rank_[d]; p < end; ++p) {
      if (in_box_[static_cast<size_t>(*p)]) sum += y_[*p];
    }
    return sum;
  }

 private:
  // Rows of a removal window handled per pass: the block's row ids and
  // deltas stay in L1 while every column's cells are updated.
  static constexpr int kApplyBlock = 4096;
  static constexpr int kPrefetchAhead = 32;

  static int Rows(int64_t cell) { return StreamedBinTotals::Rows(cell); }

  int64_t* Cells(int dim) {
    return cells_.data() + offset_[static_cast<size_t>(dim)];
  }

  // The stretch of `dim`'s window that bin b covers: it holds every in-box
  // row of the bin.
  std::pair<const int*, int> Segment(int dim, int b) const {
    const size_t d = static_cast<size_t>(dim);
    const int begin = std::max(binned_.bin_begin_rank(dim, b), lo_rank_[d]);
    const int end = std::min(binned_.bin_begin_rank(dim, b + 1), hi_rank_[d]);
    return {sorted_[d] + begin, end - begin};
  }

  // Removes the still-in-box rows among permutation ranks [begin, end) of
  // a column from every column's cells but `skip_dim`'s (-1: none).
  void RemoveRows(const int* sorted, int begin, int end, int skip_dim) {
    for (int start = begin; start < end; start += kApplyBlock) {
      RemoveBlock(sorted + start, std::min(kApplyBlock, end - start),
                  skip_dim);
    }
  }

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
      const double y = y_[out[i]];
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

  const BinnedIndex& binned_;
  std::vector<const int*> sorted_;         // [dim] code-ordered permutation
  const double* y_;                        // by row id
  const ColumnIndex* values_;              // null: cut whole bins
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

// The peeling loop, generic over the peel state (every state exposes the
// same MakeCandidate/Apply interface). The training data lives entirely
// inside the state -- this loop only needs its shape and label mass -- so
// the same code runs materialized and streamed datasets (PeelState, with
// and without value columns), sharded ones (shard::FleetPeelState) and the
// streamed golden reference.
// `val` may be null (the streamed D_val = D case): validation stats then
// mirror the training stats and the geometric validation cut is exactly
// the applied peel, so there is nothing separate to track.
template <typename State>
PrimResult RunPeelingPhase(int dims, double train_rows,
                           double total_train_pos, const Dataset* val,
                           const PrimConfig& config, State* state) {
  const bool external_val = val != nullptr;
  const double total_val_pos =
      external_val ? val->TotalPositive() : total_train_pos;

  PrimResult result;
  Box box = Box::Unbounded(dims);

  std::vector<int> val_rows;
  BoxStats train_stats{train_rows, total_train_pos};
  BoxStats val_stats = train_stats;
  if (external_val) {
    val_rows.resize(static_cast<size_t>(val->num_rows()));
    for (int i = 0; i < val->num_rows(); ++i) {
      val_rows[static_cast<size_t>(i)] = i;
    }
    val_stats = {static_cast<double>(val->num_rows()), total_val_pos};
  }

  auto record = [&]() {
    result.boxes.push_back(box);
    result.train_curve.push_back(
        {Recall(train_stats, total_train_pos), Precision(train_stats)});
    const BoxStats& v = external_val ? val_stats : train_stats;
    result.val_curve.push_back({Recall(v, total_val_pos), Precision(v)});
  };
  record();

  std::unique_ptr<ThreadPool> pool;
  std::vector<Peel> candidates;
  while (train_stats.n >= config.min_points &&
         (!external_val || val_stats.n >= config.min_points)) {
    Peel best;
    // Highest precision wins; break ties patiently (remove fewer points).
    auto consider = [&best](const Peel& cand) {
      if (cand.dim < 0) return;
      if (cand.precision_after > best.precision_after ||
          (cand.precision_after == best.precision_after &&
           best.dim >= 0 && cand.removed_n < best.removed_n)) {
        best = cand;
      }
    };
    const bool parallel = config.threads > 1 && dims > 1 &&
                          train_stats.n * dims >= kPrimParallelMinWork;
    if (parallel) {
      // Block-parallel candidate evaluation: one task per dimension, then
      // a serial selection pass in dimension order, so the chosen peel is
      // exactly the serial loop's.
      if (pool == nullptr) pool = std::make_unique<ThreadPool>(config.threads);
      candidates.assign(static_cast<size_t>(2 * dims), Peel());
      for (int j = 0; j < dims; ++j) {
        pool->Submit([state, j, &config, &train_stats, &candidates] {
          candidates[static_cast<size_t>(2 * j)] =
              state->MakeCandidate(j, true, config.alpha, train_stats);
          candidates[static_cast<size_t>(2 * j + 1)] =
              state->MakeCandidate(j, false, config.alpha, train_stats);
        });
      }
      pool->Wait();
      for (const Peel& cand : candidates) consider(cand);
    } else {
      for (int j = 0; j < dims; ++j) {
        for (bool low : {true, false}) {
          consider(state->MakeCandidate(j, low, config.alpha, train_stats));
        }
      }
    }
    if (best.dim < 0) break;  // box is a single point block in every dimension

    if (best.low_side) {
      box.set_lo(best.dim, std::max(box.lo(best.dim), best.bound));
    } else {
      box.set_hi(best.dim, std::min(box.hi(best.dim), best.bound));
    }
    state->Apply(best);
    train_stats.n -= best.removed_n;
    train_stats.n_pos -= best.removed_pos;
    // Apply the same geometric cut to the validation points.
    if (external_val) {
      size_t kept = 0;
      for (size_t i = 0; i < val_rows.size(); ++i) {
        const int r = val_rows[i];
        const double x = val->x(r, best.dim);
        const bool removed = best.low_side ? x < best.bound : x > best.bound;
        if (removed) {
          val_stats.n -= 1.0;
          val_stats.n_pos -= val->y(r);
        } else {
          val_rows[kept++] = r;
        }
      }
      val_rows.resize(kept);
    }
    if (train_stats.n == 0.0 || (external_val && val_stats.n == 0.0)) {
      // Support vanished; the last recorded box stands.
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
  return result;
}

}  // namespace reds

#endif  // REDS_CORE_PRIM_LOOP_H_
