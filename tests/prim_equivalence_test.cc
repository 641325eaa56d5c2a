// Golden equivalence: the sorted-index kernels (PRIM peeling + pasting, BI
// beam refinement, presorted CART/GBT split search) must reproduce the
// reference scalar implementations' results across seeds, alphas, and label
// types. Hard {0,1} labels make every internal sum exact, so equality is
// bitwise; fractional labels may reorder floating-point accumulation, so
// those cases assert near-equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/best_interval.h"
#include "core/prim.h"
#include "ml/cart.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "util/rng.h"

namespace reds {
namespace {

Dataset MakeData(int n, int dim, uint64_t seed, bool fractional,
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

void ExpectSamePrimResult(const PrimResult& a, const PrimResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.boxes.size(), b.boxes.size()) << label;
  EXPECT_EQ(a.best_val_index, b.best_val_index) << label;
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    EXPECT_TRUE(a.boxes[i] == b.boxes[i]) << label << " box " << i;
    EXPECT_EQ(a.train_curve[i].recall, b.train_curve[i].recall) << label;
    EXPECT_EQ(a.train_curve[i].precision, b.train_curve[i].precision) << label;
    EXPECT_EQ(a.val_curve[i].recall, b.val_curve[i].recall) << label;
    EXPECT_EQ(a.val_curve[i].precision, b.val_curve[i].precision) << label;
  }
}

TEST(PrimEquivalenceTest, SameBoxSequenceAcrossSeedsAndAlphas) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (double alpha : {0.03, 0.05, 0.1, 0.2}) {
      const Dataset d = MakeData(600, 5, seed, /*fractional=*/false);
      PrimConfig config;
      config.alpha = alpha;
      const PrimResult ref = RunPrimReference(d, d, config);
      const PrimResult opt = RunPrim(d, d, config);
      ExpectSamePrimResult(ref, opt,
                           "seed=" + std::to_string(seed) +
                               " alpha=" + std::to_string(alpha));
    }
  }
}

TEST(PrimEquivalenceTest, SameBoxSequenceWithProbabilityLabels) {
  // REDS "p" variants peel fractional targets; sums there are accumulated
  // in a different order than the reference, so allow curve values to agree
  // only to a few ulps while the geometry must match exactly.
  for (uint64_t seed : {11u, 12u, 13u}) {
    const Dataset d = MakeData(600, 5, seed, /*fractional=*/true);
    PrimConfig config;
    config.alpha = 0.07;
    const PrimResult ref = RunPrimReference(d, d, config);
    const PrimResult opt = RunPrim(d, d, config);
    ASSERT_EQ(ref.boxes.size(), opt.boxes.size()) << seed;
    EXPECT_EQ(ref.best_val_index, opt.best_val_index) << seed;
    for (size_t i = 0; i < ref.boxes.size(); ++i) {
      EXPECT_TRUE(ref.boxes[i] == opt.boxes[i]) << "seed " << seed
                                                << " box " << i;
      EXPECT_NEAR(ref.val_curve[i].precision, opt.val_curve[i].precision,
                  1e-12);
      EXPECT_NEAR(ref.val_curve[i].recall, opt.val_curve[i].recall, 1e-12);
    }
  }
}

TEST(PrimEquivalenceTest, SameResultWithTiesAndPasting) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    // Discretized inputs produce heavy ties, exercising the tie-advance and
    // tie-block logic on both sides.
    const Dataset d = MakeData(500, 4, seed, /*fractional=*/false, 8);
    PrimConfig config;
    config.alpha = 0.05;
    config.paste = true;
    config.paste_alpha = 0.02;
    const PrimResult ref = RunPrimReference(d, d, config);
    const PrimResult opt = RunPrim(d, d, config);
    ExpectSamePrimResult(ref, opt, "paste seed=" + std::to_string(seed));
  }
}

TEST(PrimEquivalenceTest, PrebuiltIndexMatchesInternalBuild) {
  const Dataset d = MakeData(400, 4, 31, /*fractional=*/false);
  const auto index = ColumnIndex::Build(d);
  PrimConfig config;
  config.paste = true;
  const PrimResult with_index = RunPrim(d, d, config, index.get());
  const PrimResult without = RunPrim(d, d, config);
  ExpectSamePrimResult(with_index, without, "prebuilt index");
}

TEST(PrimEquivalenceTest, SeparateValidationData) {
  const Dataset train = MakeData(500, 4, 41, /*fractional=*/false);
  const Dataset val = MakeData(300, 4, 42, /*fractional=*/false);
  PrimConfig config;
  config.alpha = 0.05;
  const PrimResult ref = RunPrimReference(train, val, config);
  const PrimResult opt = RunPrim(train, val, config);
  ExpectSamePrimResult(ref, opt, "train != val");
}

TEST(PrimEquivalenceTest, BinnedBackendMatchesSortedBitForBit) {
  // The quantized peel state must reproduce the sorted-index kernel's boxes
  // and curves exactly -- including fractional labels, where the in-bin
  // exact refinement keeps the removed-mass sums in the same accumulation
  // order -- across continuous, tie-heavy, and pasted runs.
  for (uint64_t seed : {121u, 122u, 123u}) {
    for (bool fractional : {false, true}) {
      for (int distinct : {0, 6}) {
        const Dataset d = MakeData(700, 5, seed, fractional, distinct);
        PrimConfig sorted_config;
        sorted_config.backend = PrimPeelBackend::kSorted;
        sorted_config.paste = true;
        PrimConfig binned_config = sorted_config;
        binned_config.backend = PrimPeelBackend::kBinned;
        const PrimResult sorted_run = RunPrim(d, d, sorted_config);
        const PrimResult binned_run = RunPrim(d, d, binned_config);
        ExpectSamePrimResult(sorted_run, binned_run,
                             "seed=" + std::to_string(seed) +
                                 " fractional=" + std::to_string(fractional) +
                                 " distinct=" + std::to_string(distinct));
      }
    }
  }
}

TEST(PrimEquivalenceTest, BinnedBackendWithMoreRowsThanBins) {
  // More rows than bins forces real quantization (multiple values per bin),
  // exercising the in-bin refinement on every peel.
  const Dataset d = MakeData(3000, 4, 131, /*fractional=*/true);
  PrimConfig sorted_config;
  sorted_config.backend = PrimPeelBackend::kSorted;
  PrimConfig binned_config = sorted_config;
  binned_config.backend = PrimPeelBackend::kBinned;
  const PrimResult sorted_run = RunPrim(d, d, sorted_config);
  const PrimResult binned_run = RunPrim(d, d, binned_config);
  ExpectSamePrimResult(sorted_run, binned_run, "3000 rows");
}

TEST(PrimEquivalenceTest, PrebuiltBinnedIndexMatchesPrivateBuild) {
  const Dataset d = MakeData(500, 4, 141, /*fractional=*/false);
  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  PrimConfig config;
  const PrimResult with_indexes = RunPrim(d, d, config, index.get(),
                                          binned.get());
  const PrimResult without = RunPrim(d, d, config);
  ExpectSamePrimResult(with_indexes, without, "prebuilt binned index");
}

TEST(PrimEquivalenceTest, ParallelCandidateEvaluationMatchesSerial) {
  // Enough rows that the in-box workload clears kPrimParallelMinWork for
  // many peels; the parallel path must select the identical peel sequence.
  const Dataset d = MakeData(9000, 6, 151, /*fractional=*/false);
  for (PrimPeelBackend backend :
       {PrimPeelBackend::kSorted, PrimPeelBackend::kBinned}) {
    PrimConfig serial_config;
    serial_config.backend = backend;
    PrimConfig parallel_config = serial_config;
    parallel_config.threads = 4;
    const PrimResult serial_run = RunPrim(d, d, serial_config);
    const PrimResult parallel_run = RunPrim(d, d, parallel_config);
    ExpectSamePrimResult(serial_run, parallel_run, "parallel candidates");
  }
}

// Data whose best peels are mostly high-side cuts: positives sit low in
// x0 and x1, x2 piles a fifth of its rows onto its top value (the high
// side's tie fallback), and x3 is constant (no valid cut on either side).
// `distinct` > 0 snaps x0, x1 to that many values.
Dataset HighSideData(int n, uint64_t seed, bool fractional, int distinct) {
  Rng rng(seed);
  Dataset d(4);
  auto draw = [&] {
    return distinct > 0 ? static_cast<double>(rng.UniformInt(
                              static_cast<uint64_t>(distinct))) /
                              distinct
                        : rng.Uniform();
  };
  for (int i = 0; i < n; ++i) {
    const double x[4] = {draw(), draw(), std::min(rng.Uniform(), 0.8), 0.5};
    const bool in_box = x[0] < 0.55 && x[1] < 0.6 && x[2] < 0.8;
    d.AddRow(x, fractional ? rng.LogitNormal(in_box ? 1.2 : -1.2, 0.7)
                           : (rng.Bernoulli(in_box ? 0.8 : 0.1) ? 1.0 : 0.0));
  }
  return d;
}

TEST(PrimEquivalenceTest, BinnedHighSideCutsInsidePartlyEmptiedBins) {
  // More rows than bins (and, with 900 distinct values, more values than
  // bins): high-side bounds land inside bins that earlier peels on other
  // dimensions have partly emptied. Hard labels take the binned kernel's
  // top-down suffix sum and must match the reference bit for bit;
  // fractional labels take SumYTail and must match the sorted kernel bit
  // for bit (the reference sums in row order, so only its geometry is
  // compared exactly).
  for (int distinct : {0, 900}) {
    for (double alpha : {0.03, 0.1}) {
      const std::string label = "distinct=" + std::to_string(distinct) +
                                " alpha=" + std::to_string(alpha);
      PrimConfig config;
      config.alpha = alpha;
      config.backend = PrimPeelBackend::kBinned;
      PrimConfig sorted_config = config;
      sorted_config.backend = PrimPeelBackend::kSorted;

      const Dataset hard = HighSideData(2500, 161, false, distinct);
      ExpectSamePrimResult(RunPrimReference(hard, hard, config),
                           RunPrim(hard, hard, config), "hard " + label);

      const Dataset frac = HighSideData(2500, 162, true, distinct);
      const PrimResult binned = RunPrim(frac, frac, config);
      ExpectSamePrimResult(RunPrim(frac, frac, sorted_config), binned,
                           "fractional " + label);
      const PrimResult ref = RunPrimReference(frac, frac, config);
      ASSERT_EQ(ref.boxes.size(), binned.boxes.size()) << label;
      for (size_t i = 0; i < ref.boxes.size(); ++i) {
        EXPECT_TRUE(ref.boxes[i] == binned.boxes[i]) << label << " box " << i;
        EXPECT_NEAR(ref.val_curve[i].precision, binned.val_curve[i].precision,
                    1e-12);
      }
    }
  }
}

TEST(PrimEquivalenceTest, BinnedHighSideTiesAtTheTopAndConstantColumns) {
  // Small boxes where x2's top value holds more than the cut (q >= n, the
  // fallback moves below the tied block) and x3 is constant in the box
  // (no candidate); a separate validation set and min_points = 5 let the
  // peel run deep into single-bin boxes.
  for (uint64_t seed : {171u, 172u, 173u}) {
    for (bool fractional : {false, true}) {
      const std::string label = "seed=" + std::to_string(seed) +
                                " fractional=" + std::to_string(fractional);
      const Dataset train = HighSideData(400, seed, fractional, 7);
      const Dataset val = HighSideData(300, seed + 50, fractional, 7);
      PrimConfig config;
      config.alpha = 0.2;
      config.min_points = 5;
      PrimConfig sorted_config = config;
      sorted_config.backend = PrimPeelBackend::kSorted;
      const PrimResult binned = RunPrim(train, val, config);
      ExpectSamePrimResult(RunPrim(train, val, sorted_config), binned, label);
      if (!fractional) {
        ExpectSamePrimResult(RunPrimReference(train, val, config), binned,
                             label + " vs reference");
      }
    }
  }
}

TEST(BiEquivalenceTest, SameBoxAcrossSeedsAndBeamSizes) {
  for (uint64_t seed : {51u, 52u, 53u}) {
    for (int beam : {1, 3}) {
      const Dataset d = MakeData(400, 4, seed, /*fractional=*/false, 12);
      BiConfig config;
      config.beam_size = beam;
      const BiResult ref = RunBiReference(d, config);
      const BiResult opt = RunBi(d, config);
      EXPECT_TRUE(ref.box == opt.box)
          << "seed " << seed << " beam " << beam;
      EXPECT_EQ(ref.wracc, opt.wracc);
    }
  }
}

TEST(BiEquivalenceTest, IndexedRefinementMatchesScalarPerDimension) {
  const Dataset d = MakeData(350, 4, 61, /*fractional=*/true);
  const auto index = ColumnIndex::Build(d);
  Box box = Box::Unbounded(4);
  box.set_lo(0, 0.2);
  box.set_hi(0, 0.9);
  box.set_hi(2, 0.7);
  const std::vector<int> viol = CountBoundViolations(*index, box);
  for (int j = 0; j < 4; ++j) {
    const Box ref = BestIntervalForDimension(d, box, j);
    const Box opt = BestIntervalForDimensionIndexed(d, *index, box, j, viol);
    EXPECT_TRUE(ref == opt) << "dim " << j;
  }
}

TEST(CartEquivalenceTest, PresortedTreeMatchesReference) {
  const Dataset d = MakeData(800, 5, 71, /*fractional=*/false, 20);
  const Dataset probe = MakeData(300, 5, 72, /*fractional=*/false);
  // Bootstrap rows with duplicates plus mtry subsampling, the forest's use.
  Rng bootstrap_rng(73);
  const std::vector<int> rows = bootstrap_rng.BootstrapIndices(d.num_rows());
  ml::TreeConfig config;
  config.mtry = 2;
  config.max_depth = 12;

  ml::RegressionTree reference;
  {
    ml::TreeConfig ref_config = config;
    ref_config.backend = ml::SplitBackend::kExact;
    Rng rng(99);
    reference.Fit(d, rows, ref_config, &rng);
  }
  ml::RegressionTree sorted_fit;
  {
    Rng rng(99);
    sorted_fit.Fit(d, rows, config, &rng);
  }
  ml::RegressionTree indexed_fit;
  {
    const auto index = ColumnIndex::Build(d);
    Rng rng(99);
    indexed_fit.Fit(d, rows, config, &rng, index.get());
  }
  EXPECT_EQ(reference.num_nodes(), sorted_fit.num_nodes());
  EXPECT_EQ(reference.num_nodes(), indexed_fit.num_nodes());
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(reference.Predict(probe.row(i)),
                     sorted_fit.Predict(probe.row(i)));
    EXPECT_DOUBLE_EQ(reference.Predict(probe.row(i)),
                     indexed_fit.Predict(probe.row(i)));
  }
}

TEST(CartEquivalenceTest, PresortedMatchesReferenceOnFractionalTies) {
  // Tie-heavy fractional targets expose accumulation order: both paths now
  // walk tied blocks in (value, row id) order, so even here the fitted
  // trees are bit-identical.
  for (uint64_t seed : {161u, 165u, 169u}) {
    const Dataset d = MakeData(300, 4, seed, /*fractional=*/true, 5);
    const Dataset probe = MakeData(150, 4, seed + 1000, /*fractional=*/true);
    ml::TreeConfig config;
    ml::RegressionTree reference;
    {
      ml::TreeConfig ref_config = config;
      ref_config.backend = ml::SplitBackend::kExact;
      Rng rng(3);
      reference.Fit(d, ref_config, &rng);
    }
    ml::RegressionTree sorted_fit;
    {
      Rng rng(3);
      sorted_fit.Fit(d, config, &rng);
    }
    ASSERT_EQ(reference.num_nodes(), sorted_fit.num_nodes()) << seed;
    for (int i = 0; i < probe.num_rows(); ++i) {
      EXPECT_DOUBLE_EQ(reference.Predict(probe.row(i)),
                       sorted_fit.Predict(probe.row(i)))
          << seed;
    }
  }
}

TEST(CartEquivalenceTest, IndexedFitMatchesSortedFitOnFractionalLabels) {
  // Fractional targets make accumulation order visible at the ulp level, so
  // the no-index sort must reproduce the index-derived tie order exactly:
  // the engine passes a shared index, the inline path does not, and both
  // must produce the same model.
  const Dataset d = MakeData(700, 4, 171, /*fractional=*/true, 10);
  const Dataset probe = MakeData(200, 4, 172, /*fractional=*/true);
  Rng bootstrap_rng(173);
  const std::vector<int> rows = bootstrap_rng.BootstrapIndices(d.num_rows());
  ml::TreeConfig config;
  config.mtry = 2;
  ml::RegressionTree sorted_fit;
  {
    Rng rng(7);
    sorted_fit.Fit(d, rows, config, &rng);
  }
  ml::RegressionTree indexed_fit;
  {
    const auto index = ColumnIndex::Build(d);
    Rng rng(7);
    indexed_fit.Fit(d, rows, config, &rng, index.get());
  }
  ASSERT_EQ(sorted_fit.num_nodes(), indexed_fit.num_nodes());
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(sorted_fit.Predict(probe.row(i)),
                     indexed_fit.Predict(probe.row(i)));
  }
}

TEST(CartEquivalenceTest, FeatureParallelSearchMatchesSerial) {
  // Node sizes above the parallel threshold so the pool path actually runs.
  const Dataset d = MakeData(6000, 6, 81, /*fractional=*/false);
  const Dataset probe = MakeData(200, 6, 82, /*fractional=*/false);
  ml::TreeConfig config;
  config.max_depth = 6;
  ml::RegressionTree serial;
  {
    Rng rng(5);
    serial.Fit(d, config, &rng);
  }
  ml::RegressionTree parallel;
  {
    ml::TreeConfig par_config = config;
    par_config.threads = 4;
    Rng rng(5);
    parallel.Fit(d, par_config, &rng);
  }
  EXPECT_EQ(serial.num_nodes(), parallel.num_nodes());
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(serial.Predict(probe.row(i)),
                     parallel.Predict(probe.row(i)));
  }
}

TEST(GbtEquivalenceTest, PresortedFitMatchesReference) {
  const Dataset d = MakeData(700, 5, 91, /*fractional=*/false, 25);
  const Dataset probe = MakeData(300, 5, 92, /*fractional=*/false);
  ml::GbtConfig config;
  config.num_rounds = 30;
  config.max_depth = 4;
  config.subsample = 0.8;  // exercises the in-bag filtered orders
  config.colsample = 0.8;

  ml::GbtConfig ref_config = config;
  ref_config.backend = ml::SplitBackend::kExact;
  ml::GradientBoostedTrees reference(ref_config);
  reference.Fit(d, 7);
  ml::GradientBoostedTrees sorted_fit(config);
  sorted_fit.Fit(d, 7);
  ASSERT_EQ(reference.num_trees(), sorted_fit.num_trees());
  // Identical accumulation orders throughout make the model bit-identical.
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(reference.PredictMargin(probe.row(i)),
                     sorted_fit.PredictMargin(probe.row(i)));
  }
}

TEST(GbtEquivalenceTest, SharedIndexAndParallelSearchMatch) {
  const Dataset d = MakeData(5000, 6, 101, /*fractional=*/false);
  const Dataset probe = MakeData(200, 6, 102, /*fractional=*/false);
  ml::GbtConfig config;
  config.num_rounds = 5;
  config.max_depth = 3;
  ml::GradientBoostedTrees plain(config);
  plain.Fit(d, 11);
  ml::GradientBoostedTrees with_index(config);
  {
    const auto index = ColumnIndex::Build(d);
    with_index.Fit(d, 11, index.get());
  }
  ml::GbtConfig par_config = config;
  par_config.threads = 4;
  ml::GradientBoostedTrees parallel(par_config);
  parallel.Fit(d, 11);
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(plain.PredictMargin(probe.row(i)),
                     with_index.PredictMargin(probe.row(i)));
    EXPECT_DOUBLE_EQ(plain.PredictMargin(probe.row(i)),
                     parallel.PredictMargin(probe.row(i)));
  }
}

TEST(RandomForestEquivalenceTest, PresortedForestMatchesReference) {
  const Dataset d = MakeData(500, 5, 111, /*fractional=*/false, 15);
  const Dataset probe = MakeData(200, 5, 112, /*fractional=*/false);
  ml::RandomForestConfig config;
  config.num_trees = 25;

  ml::RandomForestConfig ref_config = config;
  ref_config.backend = ml::SplitBackend::kExact;
  ml::RandomForest reference(ref_config);
  reference.Fit(d, 13);
  ml::RandomForest sorted_fit(config);
  sorted_fit.Fit(d, 13);
  ml::RandomForestConfig par_config = config;
  par_config.fit_threads = 4;
  ml::RandomForest parallel(par_config);
  parallel.Fit(d, 13);
  for (int i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(reference.PredictProb(probe.row(i)),
                     sorted_fit.PredictProb(probe.row(i)));
    EXPECT_DOUBLE_EQ(reference.PredictProb(probe.row(i)),
                     parallel.PredictProb(probe.row(i)));
  }
  // OOB bookkeeping must agree too (same bootstrap streams).
  const std::vector<double> ref_oob = reference.OobPredictions(d);
  const std::vector<double> opt_oob = sorted_fit.OobPredictions(d);
  for (int i = 0; i < d.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(ref_oob[static_cast<size_t>(i)],
                     opt_oob[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace reds
