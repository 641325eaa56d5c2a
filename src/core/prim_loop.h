// Internal: the peel-candidate record and the generic peeling loop shared
// by every PRIM peel state. Split out of prim.cc so the shard coordinator can
// drive the exact same loop over a distributed peel state (shard/) -- box
// sequences stay bit-identical to the single-process kernels by
// construction, because there is only one loop.
#ifndef REDS_CORE_PRIM_LOOP_H_
#define REDS_CORE_PRIM_LOOP_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "core/box.h"
#include "core/dataset.h"
#include "core/prim.h"
#include "core/quality.h"
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

// The peeling loop, generic over the peel state (every state exposes the
// same MakeCandidate/Apply interface). The training data lives entirely
// inside the state -- this loop only needs its shape and label mass -- so
// the same code runs materialized and streamed datasets (prim.cc's
// PeelState, with and without value columns), sharded ones
// (shard::FleetPeelState) and the streamed golden reference.
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
    state->Apply(best, &train_stats);
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
