// PRIM with bumping (Kwakkel & Cunningham 2016; paper Algorithm 2):
// Q bootstrap repetitions on random feature subsets, keeping the boxes not
// dominated in (precision, recall) on the validation data.
#ifndef REDS_CORE_BUMPING_H_
#define REDS_CORE_BUMPING_H_

#include <cstdint>
#include <vector>

#include "core/column_index.h"
#include "core/dataset.h"
#include "core/prim.h"

namespace reds {

struct BumpingConfig {
  int q = 50;                 // bootstrap repetitions
  int m = -1;                 // inputs per subset; -1: all M
  PrimConfig prim;            // inner PRIM configuration
};

/// Pareto front of boxes over (recall, precision) on the validation data,
/// sorted by decreasing recall (so the "last" box is the most precise one).
struct BumpingResult {
  std::vector<Box> boxes;
  std::vector<PrPoint> val_curve;  // aligned with `boxes`

  /// Highest-precision non-dominated box (ties: higher recall).
  const Box& BestBox() const;
  int BestIndex() const;
};

/// Runs PRIM with bumping. `seed` drives the bootstrap and feature subsets.
/// Each replicate's index is derived from `train_index` (an index of
/// `train`; built once per call when null) by ColumnIndex::Resample, and
/// each replicate's nested returned boxes are scored on `val`
/// incrementally. Bit-identical to RunPrimBumpingReference.
BumpingResult RunPrimBumping(const Dataset& train, const Dataset& val,
                             const BumpingConfig& config, uint64_t seed,
                             const ColumnIndex* train_index = nullptr);

/// The original replicate loop: every replicate sorts a private index and
/// every returned box is scored by a full ComputeBoxStats pass. Kept as the
/// golden reference for equivalence tests and the kernel bench
/// (core/prim_reference.cc); not used on any production path.
BumpingResult RunPrimBumpingReference(const Dataset& train,
                                      const Dataset& val,
                                      const BumpingConfig& config,
                                      uint64_t seed);

/// Removes boxes dominated in (recall, precision); ties kept once (the
/// first in input order), survivors in input order. O(n log n). Exposed
/// for tests.
void ParetoFilter(std::vector<Box>* boxes, std::vector<PrPoint>* curve);

/// The original O(n^2) pairwise filter: the golden reference ParetoFilter
/// must match (core/prim_reference.cc); RunPrimBumpingReference uses it.
void ParetoFilterReference(std::vector<Box>* boxes,
                           std::vector<PrPoint>* curve);

}  // namespace reds

#endif  // REDS_CORE_BUMPING_H_
