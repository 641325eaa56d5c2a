#include "core/bumping.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>

#include "util/rng.h"

namespace reds {

void ParetoFilter(std::vector<Box>* boxes, std::vector<PrPoint>* curve) {
  assert(boxes->size() == curve->size());
  const size_t n = boxes->size();
  const std::vector<PrPoint>& pr = *curve;
  // A point is dominated iff some point is >= in both coordinates and > in
  // one (a dominated dominator passes its dominance on, so the reference's
  // skip of already-dominated points changes nothing). A NaN coordinate
  // makes every comparison false: such a point neither dominates nor is
  // dominated, and never equals a kept point, so it always survives.
  // Every other point is swept by descending recall. Within a group of
  // equal recall, a point survives iff its precision is the group maximum
  // and beats every precision of strictly larger recall; the survivors of
  // a group are then exact duplicates of each other, and the first one in
  // input order is kept.
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<bool> keep(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(pr[i].recall) || std::isnan(pr[i].precision)) {
      keep[i] = true;
    } else {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (pr[a].recall != pr[b].recall) return pr[a].recall > pr[b].recall;
    if (pr[a].precision != pr[b].precision) {
      return pr[a].precision > pr[b].precision;
    }
    return a < b;
  });
  bool any_above = false;
  double best_above = 0.0;  // max precision over strictly larger recall
  for (size_t g = 0; g < order.size();) {
    const double recall = pr[order[g]].recall;
    size_t end = g + 1;
    while (end < order.size() && pr[order[end]].recall == recall) ++end;
    const double group_best = pr[order[g]].precision;
    if (!any_above || group_best > best_above) {
      keep[order[g]] = true;
      best_above = group_best;
    }
    any_above = true;
    g = end;
  }
  std::vector<Box> kept_boxes;
  std::vector<PrPoint> kept_curve;
  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    kept_boxes.push_back(std::move((*boxes)[i]));
    kept_curve.push_back(pr[i]);
  }
  *boxes = std::move(kept_boxes);
  *curve = std::move(kept_curve);
}

const Box& BumpingResult::BestBox() const {
  return boxes[static_cast<size_t>(BestIndex())];
}

int BumpingResult::BestIndex() const {
  int best = 0;
  for (size_t i = 1; i < val_curve.size(); ++i) {
    if (val_curve[i].precision > val_curve[static_cast<size_t>(best)].precision) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

BumpingResult RunPrimBumping(const Dataset& train, const Dataset& val,
                             const BumpingConfig& config, uint64_t seed,
                             const ColumnIndex* train_index) {
  assert(train.num_rows() > 0);
  const int dims = train.num_cols();
  const int m = config.m > 0 ? std::min(config.m, dims) : dims;
  std::shared_ptr<const ColumnIndex> owned;
  if (train_index == nullptr) {
    owned = ColumnIndex::Build(train);
    train_index = owned.get();
  }
  assert(train_index->num_rows() == train.num_rows());
  assert(train_index->num_cols() == dims);

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
    const auto index = ColumnIndex::Resample(*train_index, rows, columns);
    const PrimResult prim = RunPrim(d_bs, d_bs, config.prim, index.get());
    // The returned boxes are nested (until a pasted last box), so they
    // are scored incrementally.
    std::vector<Box> lifted;
    for (const Box& b : prim.ReturnedBoxes()) {
      lifted.push_back(b.LiftToFullSpace(dims, columns));
    }
    const std::vector<BoxStats> stats = ComputeBoxStatsSequence(val, lifted);
    for (size_t i = 0; i < lifted.size(); ++i) {
      curve.push_back({Recall(stats[i], total_val_pos), Precision(stats[i])});
      boxes.push_back(std::move(lifted[i]));
    }
  }

  if (boxes.empty()) {
    // Every bootstrap sample was degenerate; fall back to the full box.
    Box full = Box::Unbounded(dims);
    const BoxStats stats = ComputeBoxStats(val, full);
    curve.push_back({Recall(stats, total_val_pos), Precision(stats)});
    boxes.push_back(std::move(full));
  }

  ParetoFilter(&boxes, &curve);

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

}  // namespace reds
