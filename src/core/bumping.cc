#include "core/bumping.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>

#include "util/rng.h"

namespace reds {

void ParetoFilter(std::vector<Box>* boxes, std::vector<PrPoint>* curve) {
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
