// k-fold cross-validated grid tuning for the metamodels, mimicking the
// paper's use of caret's default hyperparameter optimization (Section 8.4.3)
// at laptop scale. Folds are row-id views over one full-data columnar/binned
// index that the tree learners scan; both are built once per tuning run and
// shared by the whole grid, caret-style.
#ifndef REDS_ML_TUNING_H_
#define REDS_ML_TUNING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/binned_index.h"
#include "core/column_index.h"
#include "core/dataset.h"
#include "ml/histogram.h"
#include "ml/model.h"

namespace reds::ml {

/// Grid sizes for tuning: kQuick shrinks grids and ensemble sizes so the
/// default bench runs stay fast; kFull approximates the paper's setting.
enum class TuningBudget { kQuick, kFull };

struct TuningConfig {
  TuningBudget budget = TuningBudget::kQuick;
  int folds = 5;
  /// Split-search kernel every tree candidate in the grid runs on. The
  /// REDS metamodel paths (FitMetamodel) always tune presorted.
  SplitBackend backend = SplitBackend::kPresorted;
};

/// Splits rows into k folds (round-robin over a shuffled permutation) and
/// returns fold ids per row.
std::vector<int> FoldAssignment(int n, int k, uint64_t seed);

/// Tunes the given metamodel family by grid search with k-fold CV on
/// log-loss, then refits the winning configuration on all of d. Every grid
/// candidate is evaluated on the same folds, fit through row views over
/// one shared full-data index (prebuilt `index`/`binned` of d are reused
/// when given), so tuning residency stays O(1 fold) regardless of k. When
/// `cell_losses` is given it receives every grid cell's mean CV loss in
/// cell order; the first minimum wins, and the winner refits with seed
/// DeriveSeed(seed, 0xf17).
std::unique_ptr<Metamodel> TuneAndFit(
    MetamodelKind kind, const Dataset& d, uint64_t seed,
    const TuningConfig& config = {}, const ColumnIndex* index = nullptr,
    const BinnedIndex* binned = nullptr,
    std::vector<double>* cell_losses = nullptr);

/// An unfitted model with grid cell `cell`'s hyperparameters, in
/// TuneAndFit's cell order.
std::unique_ptr<Metamodel> TuningCellModel(MetamodelKind kind, int cell,
                                           int num_features,
                                           const TuningConfig& config);

/// Fits the family with library defaults (no tuning) on the presorted
/// split search. A prebuilt ColumnIndex of d (e.g. the engine's shared
/// per-dataset cache) feeds the tree learners; when null they build their
/// own.
std::unique_ptr<Metamodel> FitDefault(MetamodelKind kind, const Dataset& d,
                                      uint64_t seed,
                                      TuningBudget budget = TuningBudget::kQuick,
                                      const ColumnIndex* index = nullptr);

/// TuneAndFit when `tune`, else FitDefault: the single dispatch both the
/// inline REDS path and the engine's metamodel cache use, so cached and
/// uncached fits cannot drift apart. `index` feeds the untuned fit and the
/// tuned path's fold row views alike.
std::unique_ptr<Metamodel> FitMetamodel(MetamodelKind kind, const Dataset& d,
                                        uint64_t seed, bool tune,
                                        TuningBudget budget,
                                        const ColumnIndex* index = nullptr);

}  // namespace reds::ml

#endif  // REDS_ML_TUNING_H_
