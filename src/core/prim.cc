// PRIM peeling (prim.h). One peel state serves both data plans. It keeps
// the in-box rows of every (column, bin) as packed StreamedBinTotals cells,
// finds each candidate's boundary bin in O(bins), and applies a peel by
// walking only the removed stretch of the peeled column's code-ordered
// permutation. On the materialized plan it also reads the ColumnIndex value
// columns and refines a cut inside a bin that holds more than one value,
// which makes its boxes the exact kernel's bit for bit (RunPrimReference,
// tests/prim_equivalence_test.cc); on the streamed plan it cuts whole bins
// (RunPrimStreamedReference, tests/streamed_prim_test.cc). The pasting
// phase enumerates "outside through one bound" points from the full-data
// permutations guarded by a per-dimension violation-count array.
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

// The peel state. Every column j has a permutation sorted_[j] of the rows,
// ascending by bin code; inside a bin the rows run by (value, row id) on the
// materialized plan (ColumnIndex::sorted_rows) and by row id on the streamed
// one (BinnedIndex::sorted_rows). The in-box aggregates are the dataset's
// StreamedBinTotals cells, copied and then kept current, so a peel pays
// only for the rows it removes: Apply subtracts each removed row's packed
// (1 row, y positives) delta from every other column's cell, a column at a
// time.
//
// Candidates treat a bin as one value block unless `values_` is set and the
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
  PeelState(const BinnedIndex& binned, std::vector<const int*> sorted,
            const double* y, const StreamedBinTotals& totals,
            const ColumnIndex* values)
      : binned_(binned),
        sorted_(std::move(sorted)),
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
    assert(static_cast<int>(sorted_.size()) == binned.num_cols());
    assert(static_cast<int>(offset_.size()) == binned.num_cols() + 1);
    const int m = binned.num_cols();
    const int n = binned.num_rows();
    lo_rank_.assign(static_cast<size_t>(m), 0);
    hi_rank_.assign(static_cast<size_t>(m), n);
    const size_t block = static_cast<size_t>(std::min(n, kApplyBlock));
    removed_rows_.resize(block);
    removed_delta_.resize(block);
  }

  // Builds the low- or high-side candidate peel for one dimension, cutting
  // off roughly an alpha share of the in-box rows. Returns dim = -1 when no
  // valid cut exists (e.g. all values equal). The bound is the (k+1)-th
  // order statistic counted from the cut side, rows equal to it stay
  // inside, and a cut swallowed by ties moves past the tied block.
  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const int n = n_;
    const int k = std::max(1, static_cast<int>(std::floor(alpha * n)));
    if (k >= n) return peel;  // would empty the box

    const int64_t* cells = Cells(dim);
    const int step = low_side ? 1 : -1;
    // Whole bins from the cut side until the one holding rank k. `cut`
    // accumulates the packed cells of the bins the peel removes whole; its
    // low half is their row count, its high half their positives.
    int64_t cut = 0;
    int b = low_side ? FirstBin(dim) : LastBin(dim);
    while (Rows(cut + cells[b]) <= k) {
      cut += cells[b];
      b += step;
    }
    // `part`: in-box rows of bin b beyond the bound, removed as well.
    int part = 0;
    double bound;
    const bool refine = Refines(dim, b);
    if (refine) {
      bound = InBinValue(dim, b, k - Rows(cut), low_side);
      part = InBinBeyond(dim, b, bound, low_side, /*inclusive=*/false);
    } else {
      bound = Edge(dim, b, low_side);
    }
    if (Rows(cut) + part == 0) {
      // Ties swallowed the whole cut: move past the tied block.
      part = refine ? InBinBeyond(dim, b, bound, low_side, /*inclusive=*/true)
                    : Rows(cells[b]);
      if (part < Rows(cells[b])) {
        bound = InBinValue(dim, b, part, low_side);
      } else {
        cut = cells[b];
        if (Rows(cut) >= n) return peel;  // dimension is constant in box
        part = 0;
        do {
          b += step;
        } while (Rows(cells[b]) == 0);
        bound = Refines(dim, b) ? InBinValue(dim, b, 0, low_side)
                                : Edge(dim, b, low_side);
      }
    }
    const int removed = Rows(cut) + part;
    if (removed >= n) return peel;  // would empty the box
    double removed_pos;
    if (integral_labels_) {
      removed_pos = static_cast<double>(StreamedBinTotals::Positives(cut));
      if (part > 0) removed_pos += PartPositives(dim, b, part, low_side);
    } else {
      removed_pos = low_side ? SumYFirst(dim, removed) : SumYTail(dim, b, part);
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

  // Drops the rows the peel cuts off: the whole bins beyond its boundary
  // bin, whose cells in the peeled column are zeroed outright, and the
  // boundary bin's rows beyond the bound, which a refined cut removes too.
  void Apply(const Peel& peel, BoxStats* stats) {
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
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
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

 private:
  // Rows of a removal window handled per pass: the block's row ids and
  // deltas stay in L1 while every column's cells are updated.
  static constexpr int kApplyBlock = 4096;
  static constexpr int kPrefetchAhead = 32;

  static int Rows(int64_t cell) { return StreamedBinTotals::Rows(cell); }

  int64_t* Cells(int dim) {
    return cells_.data() + offset_[static_cast<size_t>(dim)];
  }
  const int64_t* Cells(int dim) const {
    return cells_.data() + offset_[static_cast<size_t>(dim)];
  }

  // Every in-box row of `dim` lies in its window [lo_rank_, hi_rank_),
  // whose ends are live rows after each Apply's trim, so bins below the
  // code of the first window row and above the code of the last hold no
  // in-box row: walks from the bottom start at FirstBin, walks from the top
  // at LastBin.
  int FirstBin(int dim) const {
    const size_t d = static_cast<size_t>(dim);
    return binned_.code(dim, sorted_[d][lo_rank_[d]]);
  }
  int LastBin(int dim) const {
    const size_t d = static_cast<size_t>(dim);
    return binned_.code(dim, sorted_[d][hi_rank_[d] - 1]);
  }

  // Whether a cut at bin b of `dim` is refined from the value column.
  bool Refines(int dim, int b) const {
    return values_ != nullptr &&
           binned_.bin_first(dim, b) != binned_.bin_last(dim, b);
  }

  // The bound of a whole-bin cut at bin b: its value edge facing the box.
  double Edge(int dim, int b, bool low_side) const {
    return low_side ? binned_.bin_first(dim, b) : binned_.bin_last(dim, b);
  }

  // The stretch of `dim`'s window that bin b covers: it holds every in-box
  // row of the bin.
  std::pair<const int*, int> Segment(int dim, int b) const {
    const size_t d = static_cast<size_t>(dim);
    const int begin = std::max(binned_.bin_begin_rank(dim, b), lo_rank_[d]);
    const int end = std::min(binned_.bin_begin_rank(dim, b + 1), hi_rank_[d]);
    return {sorted_[d] + begin, end - begin};
  }

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

  const BinnedIndex& binned_;
  const std::vector<const int*> sorted_;   // [dim] code-ordered permutation
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

  std::shared_ptr<const BinnedIndex> owned_binned;
  if (train_binned == nullptr) {
    owned_binned = BinnedIndex::Build(*train_index);
    train_binned = owned_binned.get();
  }
  assert(train_binned->num_rows() == train.num_rows());
  assert(train_binned->num_cols() == train.num_cols());
  const auto totals = StreamedBinTotals::Build(*train_binned, train.y_data());
  std::vector<const int*> sorted;
  for (int j = 0; j < train.num_cols(); ++j) {
    sorted.push_back(train_index->sorted_rows(j).data());
  }
  PeelState state(*train_binned, std::move(sorted), train.y_data(), *totals,
                  train_index);
  PrimResult result;
  {
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
    owned = StreamedBinTotals::Build(binned, y.data());
    totals = owned.get();
  }
  assert(static_cast<int>(totals->offset.size()) == binned.num_cols() + 1);

  // The materialized plan's peel state and loop, without value columns:
  // cuts stay whole bins. Pasting needs raw training values, so it is
  // skipped.
  std::vector<const int*> sorted;
  for (int j = 0; j < binned.num_cols(); ++j) {
    sorted.push_back(binned.sorted_rows(j).data());
  }
  PeelState state(binned, std::move(sorted), y.data(), *totals,
                  /*values=*/nullptr);
  obs::Span span("prim.peel");
  return RunPeelingPhase(binned.num_cols(),
                         static_cast<double>(binned.num_rows()),
                         totals->label_total, val, config, &state);
}

}  // namespace reds
