#include "ml/tuning.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "ml/gbt.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/svm.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace reds::ml {

std::vector<int> FoldAssignment(int n, int k, uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0xf01d5ULL));
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  rng.Shuffle(&perm);
  std::vector<int> fold(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    fold[static_cast<size_t>(perm[static_cast<size_t>(i)])] = i % k;
  }
  return fold;
}

namespace {

using ModelFactory = std::function<std::unique_ptr<Metamodel>()>;

// Row-id views of one CV fold: the ascending training rows and the
// held-out rows. Candidates fit through these plus the shared full-data
// indexes, so nothing fold-sized is ever copied.
struct CvFoldRows {
  std::vector<int> train_rows;
  std::vector<int> test_rows;
};

// The fold membership is computed once per tuning run so every grid
// candidate is scored on identical folds (caret's protocol). Degenerate
// folds (empty train or test side) are dropped.
std::vector<CvFoldRows> BuildFoldRows(int n, int folds, uint64_t seed) {
  const std::vector<int> fold = FoldAssignment(n, folds, seed);
  std::vector<CvFoldRows> out;
  for (int f = 0; f < folds; ++f) {
    CvFoldRows rows;
    for (int i = 0; i < n; ++i) {
      (fold[static_cast<size_t>(i)] == f ? rows.test_rows : rows.train_rows)
          .push_back(i);
    }
    if (rows.train_rows.empty() || rows.test_rows.empty()) continue;
    out.push_back(std::move(rows));
  }
  return out;
}

// Points `index`/`binned` at full-data views of d for the tree families,
// building into the owned pointers whatever the caller did not pass. One
// view pair serves every fold of every candidate.
void EnsureFoldIndexes(const Dataset& d, const TuningConfig& config,
                       bool tree_family, const ColumnIndex** index,
                       const BinnedIndex** binned,
                       std::shared_ptr<const ColumnIndex>* owned_index,
                       std::shared_ptr<const BinnedIndex>* owned_binned) {
  if (!tree_family) return;
  if (*index == nullptr) {
    *owned_index = ColumnIndex::Build(d);
    *index = owned_index->get();
  }
  if (config.backend == SplitBackend::kHistogram && *binned == nullptr) {
    *owned_binned = BinnedIndex::Build(**index);
    *binned = owned_binned->get();
  }
}

// Mean held-out log-loss of a candidate fit through per-fold row views
// over the shared full-data indexes: peak tuning residency is the one
// transient fit working set, not k fold matrices.
double CrossValidate(const ModelFactory& factory, const Dataset& d,
                     const std::vector<CvFoldRows>& folds, int num_folds,
                     uint64_t seed, const ColumnIndex* index,
                     const BinnedIndex* binned) {
  double total = 0.0;
  const size_t m = static_cast<size_t>(d.num_cols());
  for (size_t f = 0; f < folds.size(); ++f) {
    auto model = factory();
    model->FitOnRows(d, folds[f].train_rows,
                     DeriveSeed(seed, static_cast<uint64_t>(f) + 101), index,
                     binned);
    const std::vector<int>& held_out = folds[f].test_rows;
    // Gather the held-out rows into one block for PredictBlock.
    std::vector<double> x(held_out.size() * m), prob(held_out.size()), y;
    y.reserve(held_out.size());
    for (size_t i = 0; i < held_out.size(); ++i) {
      std::copy_n(d.row(held_out[i]), m, x.data() + i * m);
      y.push_back(d.y(held_out[i]) > 0.5 ? 1.0 : 0.0);
    }
    model->PredictBlock(x.data(), static_cast<int>(held_out.size()),
                        prob.data());
    total += LogLoss(prob, y);
  }
  return total / num_folds;
}

std::unique_ptr<Metamodel> PickBest(const std::vector<ModelFactory>& grid,
                                    const Dataset& d, uint64_t seed,
                                    const TuningConfig& config,
                                    bool tree_family,
                                    const ColumnIndex* index,
                                    const BinnedIndex* binned,
                                    std::vector<double>* cell_losses) {
  const std::vector<CvFoldRows> fold_rows =
      BuildFoldRows(d.num_rows(), config.folds, seed);
  std::shared_ptr<const ColumnIndex> owned_index;
  std::shared_ptr<const BinnedIndex> owned_binned;
  EnsureFoldIndexes(d, config, tree_family, &index, &binned, &owned_index,
                    &owned_binned);
  if (cell_losses != nullptr) cell_losses->clear();
  double best_loss = std::numeric_limits<double>::infinity();
  size_t best = 0;
  for (size_t g = 0; g < grid.size(); ++g) {
    const double loss =
        CrossValidate(grid[g], d, fold_rows, config.folds,
                      DeriveSeed(seed, static_cast<uint64_t>(g)), index,
                      binned);
    if (cell_losses != nullptr) cell_losses->push_back(loss);
    if (loss < best_loss) {
      best_loss = loss;
      best = g;
    }
  }
  auto model = grid[best]();
  // The winner refits on all of d; passing the shared full-data views is
  // bit-identical to letting Fit build its own (they are constructed the
  // same way).
  model->Fit(d, DeriveSeed(seed, 0xf17ULL), index, binned);
  return model;
}

int DefaultMtry(int m) {
  return std::max(1, static_cast<int>(std::sqrt(static_cast<double>(m))));
}

// The deterministic grid enumeration shared by TuneAndFit and
// TuningCellModel. Cell order is part of the contract: PickBest's per-cell
// seeds and its first-wins argmin follow it, so a reference that refits
// TuningCellModel(winner) reproduces TuneAndFit's model.
std::vector<ModelFactory> BuildTuningGrid(MetamodelKind kind, int m,
                                          const TuningConfig& config) {
  const bool full = config.budget == TuningBudget::kFull;
  std::vector<ModelFactory> grid;
  switch (kind) {
    case MetamodelKind::kRandomForest: {
      std::vector<int> mtry_grid = {DefaultMtry(m), std::max(1, m / 3),
                                    std::max(1, 2 * m / 3)};
      std::sort(mtry_grid.begin(), mtry_grid.end());
      mtry_grid.erase(std::unique(mtry_grid.begin(), mtry_grid.end()),
                      mtry_grid.end());
      for (int mtry : mtry_grid) {
        RandomForestConfig c;
        c.num_trees = full ? 500 : 100;
        c.mtry = mtry;
        c.backend = config.backend;
        grid.push_back([c] { return std::make_unique<RandomForest>(c); });
      }
      break;
    }
    case MetamodelKind::kGbt: {
      const std::vector<int> depths = full ? std::vector<int>{2, 4, 6}
                                           : std::vector<int>{2, 4};
      const std::vector<int> rounds = full ? std::vector<int>{50, 150}
                                           : std::vector<int>{50, 100};
      const std::vector<double> etas = full ? std::vector<double>{0.1, 0.3}
                                            : std::vector<double>{0.3};
      for (int depth : depths) {
        for (int nr : rounds) {
          for (double eta : etas) {
            GbtConfig c;
            c.max_depth = depth;
            c.num_rounds = nr;
            c.eta = eta;
            c.backend = config.backend;
            grid.push_back(
                [c] { return std::make_unique<GradientBoostedTrees>(c); });
          }
        }
      }
      break;
    }
    case MetamodelKind::kSvm: {
      const std::vector<double> cs =
          full ? std::vector<double>{0.25, 1.0, 4.0, 16.0}
               : std::vector<double>{1.0, 4.0};
      for (double c_val : cs) {
        SvmConfig c;
        c.c = c_val;
        grid.push_back([c] { return std::make_unique<SvmRbf>(c); });
      }
      break;
    }
  }
  return grid;
}

}  // namespace

std::unique_ptr<Metamodel> FitDefault(MetamodelKind kind, const Dataset& d,
                                      uint64_t seed, TuningBudget budget,
                                      const ColumnIndex* index) {
  const bool full = budget == TuningBudget::kFull;
  switch (kind) {
    case MetamodelKind::kRandomForest: {
      RandomForestConfig config;
      config.num_trees = full ? 500 : 100;
      auto model = std::make_unique<RandomForest>(config);
      model->Fit(d, seed, index);
      return model;
    }
    case MetamodelKind::kGbt: {
      GbtConfig config;
      config.num_rounds = full ? 150 : 80;
      config.max_depth = 4;
      config.eta = 0.3;
      auto model = std::make_unique<GradientBoostedTrees>(config);
      model->Fit(d, seed, index);
      return model;
    }
    case MetamodelKind::kSvm: {
      SvmConfig config;
      auto model = std::make_unique<SvmRbf>(config);
      model->Fit(d, seed);
      return model;
    }
  }
  return nullptr;
}

std::unique_ptr<Metamodel> TuneAndFit(MetamodelKind kind, const Dataset& d,
                                      uint64_t seed,
                                      const TuningConfig& config,
                                      const ColumnIndex* index,
                                      const BinnedIndex* binned,
                                      std::vector<double>* cell_losses) {
  obs::Span span("metamodel.tune");
  const std::vector<ModelFactory> grid =
      BuildTuningGrid(kind, d.num_cols(), config);
  return PickBest(grid, d, seed, config, kind != MetamodelKind::kSvm, index,
                  binned, cell_losses);
}

std::unique_ptr<Metamodel> TuningCellModel(MetamodelKind kind, int cell,
                                           int num_features,
                                           const TuningConfig& config) {
  return BuildTuningGrid(kind, num_features,
                         config)[static_cast<size_t>(cell)]();
}

std::unique_ptr<Metamodel> FitMetamodel(MetamodelKind kind, const Dataset& d,
                                        uint64_t seed, bool tune,
                                        TuningBudget budget,
                                        const ColumnIndex* index) {
  if (tune) {
    TuningConfig config;
    config.budget = budget;
    return TuneAndFit(kind, d, seed, config, index);
  }
  return FitDefault(kind, d, seed, budget, index);
}

}  // namespace reds::ml
