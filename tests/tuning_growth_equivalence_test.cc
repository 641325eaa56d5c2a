// Equivalence contracts behind the warm-path optimizations:
//  - CV tuning (row views over one shared full-data index) must score every
//    grid cell, pick the same cell and produce the same final model as the
//    reference below, which copies every fold matrix;
//  - FitOnRows on a shared index must be bit-identical to materializing the
//    subset, for every tree family.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "ml/gbt.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/tuning.h"
#include "util/rng.h"

namespace reds {
namespace {

Dataset MakeData(int n, int dim, uint64_t seed, bool fractional = false,
                 int distinct_values = 0) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) {
      v = distinct_values > 0
              ? static_cast<double>(rng.UniformInt(
                    static_cast<uint64_t>(distinct_values))) /
                    distinct_values
              : rng.Uniform();
    }
    const double p = (x[0] < 0.45 && x[1] > 0.3) ? 0.85 : 0.15;
    d.AddRow(x, fractional ? rng.LogitNormal(p > 0.5 ? 1.0 : -1.0, 0.8)
                           : (rng.Bernoulli(p) ? 1.0 : 0.0));
  }
  return d;
}

void ExpectSamePredictions(const ml::Metamodel& a, const ml::Metamodel& b,
                           const Dataset& probe, const char* what) {
  for (int i = 0; i < probe.num_rows(); ++i) {
    ASSERT_EQ(a.PredictProb(probe.row(i)), b.PredictProb(probe.row(i)))
        << what << " row " << i;
  }
}

// The reference tuning plan: every fold's training rows are copied with
// SubsetRows and each of the first `cells` grid cells is fit on the copy,
// with TuneAndFit's fold assignment, seed streams and held-out log-loss.
// Returns the per-cell CV losses and the refit winner (first minimum wins).
std::unique_ptr<ml::Metamodel> TuneOnFoldCopies(ml::MetamodelKind kind,
                                                const Dataset& d,
                                                uint64_t seed,
                                                const ml::TuningConfig& config,
                                                int cells,
                                                std::vector<double>* losses) {
  const std::vector<int> fold =
      ml::FoldAssignment(d.num_rows(), config.folds, seed);
  losses->assign(static_cast<size_t>(cells), 0.0);
  for (int g = 0; g < cells; ++g) {
    const uint64_t g_seed = DeriveSeed(seed, static_cast<uint64_t>(g));
    uint64_t f_index = 0;
    for (int f = 0; f < config.folds; ++f) {
      std::vector<int> train_rows, test_rows;
      for (int r = 0; r < d.num_rows(); ++r) {
        (fold[static_cast<size_t>(r)] == f ? test_rows : train_rows)
            .push_back(r);
      }
      if (train_rows.empty() || test_rows.empty()) continue;
      auto model = ml::TuningCellModel(kind, g, d.num_cols(), config);
      model->Fit(d.SubsetRows(train_rows), DeriveSeed(g_seed, f_index + 101));
      ++f_index;
      std::vector<double> prob, y;
      for (int r : test_rows) {
        prob.push_back(model->PredictProb(d.row(r)));
        y.push_back(d.y(r) > 0.5 ? 1.0 : 0.0);
      }
      (*losses)[static_cast<size_t>(g)] += ml::LogLoss(prob, y);
    }
    (*losses)[static_cast<size_t>(g)] /= config.folds;
  }
  const auto best = std::min_element(losses->begin(), losses->end());
  auto winner = ml::TuningCellModel(
      kind, static_cast<int>(best - losses->begin()), d.num_cols(), config);
  winner->Fit(d, DeriveSeed(seed, 0xf17ULL));
  return winner;
}

// Per-cell losses, winner and refit of TuneAndFit against TuneOnFoldCopies.
void ExpectSameTuning(ml::MetamodelKind kind, const Dataset& d, uint64_t seed,
                      const ml::TuningConfig& config, const Dataset& probe,
                      const char* what) {
  std::vector<double> tuned_losses;
  const auto tuned =
      ml::TuneAndFit(kind, d, seed, config, nullptr, nullptr, &tuned_losses);
  ASSERT_NE(tuned, nullptr);
  ASSERT_GE(tuned_losses.size(), 2u) << what;
  std::vector<double> losses;
  const auto reference =
      TuneOnFoldCopies(kind, d, seed, config,
                       static_cast<int>(tuned_losses.size()), &losses);
  for (size_t g = 0; g < losses.size(); ++g) {
    EXPECT_EQ(tuned_losses[g], losses[g]) << what << " cell " << g;
  }
  ExpectSamePredictions(*tuned, *reference, probe, what);
}

TEST(StreamedTuningTest, SameWinnerAndModelAsFoldCopiesAcrossSeeds) {
  // Presorted backend: fold views are exact, so tuning must be
  // bit-identical to the fold-copy reference -- same per-cell CV losses,
  // same winner, same refit.
  const Dataset d = MakeData(500, 4, 301);
  const Dataset probe = MakeData(200, 4, 302);
  for (const auto kind :
       {ml::MetamodelKind::kGbt, ml::MetamodelKind::kRandomForest,
        ml::MetamodelKind::kSvm}) {
    for (uint64_t seed : {11u, 23u, 37u}) {
      ml::TuningConfig config;
      config.folds = 3;
      ExpectSameTuning(kind, d, seed, config, probe, "presorted");
    }
  }
}

TEST(StreamedTuningTest, SameModelOnHistogramBackendWithinBinBudget) {
  // Exact-pack regime (40 distinct values << 256 bins): the full-data
  // quantization the fold views share agrees with any fold-built one, so
  // histogram tuning is bit-identical to the fold-copy reference too.
  const Dataset d = MakeData(600, 4, 311, /*fractional=*/false, 40);
  const Dataset probe = MakeData(200, 4, 312);
  for (uint64_t seed : {7u, 19u}) {
    ml::TuningConfig config;
    config.folds = 3;
    config.backend = ml::SplitBackend::kHistogram;
    ExpectSameTuning(ml::MetamodelKind::kGbt, d, seed, config, probe,
                     "histogram");
  }
}

TEST(StreamedTuningTest, FitOnRowsMatchesMaterializedSubset) {
  // The streamed plan's primitive: fitting on an ascending row view over
  // the full-data index must equal fitting on the copied subset.
  const Dataset d = MakeData(700, 4, 321, /*fractional=*/false, 30);
  const Dataset probe = MakeData(150, 4, 322);
  std::vector<int> rows;
  for (int r = 0; r < d.num_rows(); ++r) {
    if (r % 3 != 0) rows.push_back(r);  // a CV training fold's shape
  }
  const Dataset subset = d.SubsetRows(rows);
  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);

  for (const auto backend :
       {ml::SplitBackend::kPresorted, ml::SplitBackend::kHistogram}) {
    ml::GbtConfig gc;
    gc.num_rounds = 15;
    gc.max_depth = 3;
    gc.backend = backend;
    ml::GradientBoostedTrees streamed(gc), materialized(gc);
    streamed.FitOnRows(d, rows, 41, index.get(), binned.get());
    materialized.Fit(subset, 41);
    ExpectSamePredictions(streamed, materialized, probe, "gbt FitOnRows");

    ml::RandomForestConfig rc;
    rc.num_trees = 15;
    rc.backend = backend;
    ml::RandomForest rf_streamed(rc), rf_materialized(rc);
    rf_streamed.FitOnRows(d, rows, 43, index.get(), binned.get());
    rf_materialized.Fit(subset, 43);
    ExpectSamePredictions(rf_streamed, rf_materialized, probe,
                          "rf FitOnRows");
  }
}

}  // namespace
}  // namespace reds
