// PRIM peeling (prim.h). RunPrim and RunPrimStreamed drive one peel state,
// core/prim_loop.h's PeelState, with and without ColumnIndex value columns;
// their boxes match RunPrimReference (tests/prim_equivalence_test.cc) and
// RunPrimStreamedReference (tests/streamed_prim_test.cc) bit for bit. The
// pasting phase enumerates "outside through one bound" points from the
// full-data permutations guarded by a per-dimension violation-count array.
#include "core/prim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "core/prim_loop.h"
#include "obs/trace.h"

namespace reds {

namespace {

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
  PeelState state(*train_binned, train.y_data(), *totals, train_index);
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
  PeelState state(binned, y.data(), *totals, /*values=*/nullptr);
  obs::Span span("prim.peel");
  return RunPeelingPhase(binned.num_cols(),
                         static_cast<double>(binned.num_rows()),
                         totals->label_total, val, config, &state);
}

}  // namespace reds
