// End-to-end tests for REDS (Algorithm 4): relabeling properties, the
// headline improvement over plain PRIM at small N, and the semi-supervised
// entry point.
#include <gtest/gtest.h>

#include "core/binned_index.h"
#include "core/prim.h"
#include "core/quality.h"
#include "core/reds.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "obs/trace.h"

namespace reds {
namespace {

RedsConfig QuickConfig(ml::MetamodelKind kind, bool prob, int l) {
  RedsConfig config;
  config.metamodel = kind;
  config.tune_metamodel = false;
  config.probability_labels = prob;
  config.num_new_points = l;
  return config;
}

TEST(RedsTest, RelabelProducesRequestedPoints) {
  auto f = fun::MakeFunction("ellipse");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 200, fun::DesignKind::kLatinHypercube, 1);
  const RedsRelabeling r =
      RedsRelabel(d, QuickConfig(ml::MetamodelKind::kGbt, false, 3000), 2);
  EXPECT_EQ(r.new_data.num_rows(), 3000);
  EXPECT_EQ(r.new_data.num_cols(), d.num_cols());
  for (int i = 0; i < r.new_data.num_rows(); ++i) {
    EXPECT_TRUE(r.new_data.y(i) == 0.0 || r.new_data.y(i) == 1.0);
  }
  EXPECT_NE(r.metamodel, nullptr);
}

TEST(RedsTest, ProbabilityLabelsAreFractional) {
  auto f = fun::MakeFunction("ellipse");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 200, fun::DesignKind::kLatinHypercube, 3);
  const RedsRelabeling r =
      RedsRelabel(d, QuickConfig(ml::MetamodelKind::kRandomForest, true, 2000), 4);
  bool any_fractional = false;
  for (int i = 0; i < r.new_data.num_rows(); ++i) {
    EXPECT_GE(r.new_data.y(i), 0.0);
    EXPECT_LE(r.new_data.y(i), 1.0);
    any_fractional =
        any_fractional || (r.new_data.y(i) > 0.0 && r.new_data.y(i) < 1.0);
  }
  EXPECT_TRUE(any_fractional);
}

TEST(RedsTest, LabelsAgreeWithMetamodel) {
  auto f = fun::MakeFunction("borehole");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 150, fun::DesignKind::kLatinHypercube, 5);
  const RedsRelabeling r =
      RedsRelabel(d, QuickConfig(ml::MetamodelKind::kGbt, false, 500), 6);
  for (int i = 0; i < 50; ++i) {
    const double p = r.metamodel->PredictProb(r.new_data.row(i));
    EXPECT_EQ(r.new_data.y(i), p > 0.5 ? 1.0 : 0.0);
  }
}

TEST(RedsTest, SemiSupervisedRelabelsGivenPoints) {
  auto f = fun::MakeFunction("ellipse");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 200, fun::DesignKind::kLatinHypercube, 7);
  // Unlabeled pool: 500 fresh points.
  Rng rng(8);
  std::vector<double> pool(500 * 15);
  for (auto& v : pool) v = rng.Uniform();
  const RedsRelabeling r = RedsRelabelPoints(
      d, pool, QuickConfig(ml::MetamodelKind::kRandomForest, false, 1), 9);
  EXPECT_EQ(r.new_data.num_rows(), 500);
  EXPECT_DOUBLE_EQ(r.new_data.x(0, 0), pool[0]);
}

TEST(RedsTest, CustomSamplerIsUsed) {
  auto f = fun::MakeFunction("ellipse");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 150, fun::DesignKind::kLatinHypercube, 10);
  RedsConfig config = QuickConfig(ml::MetamodelKind::kGbt, false, 400);
  config.sampler = [](Rng*, int dim, double* out) {
    for (int j = 0; j < dim; ++j) out[j] = 0.25;  // degenerate distribution
  };
  const RedsRelabeling r = RedsRelabel(d, config, 11);
  for (int i = 0; i < r.new_data.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(r.new_data.x(i, 0), 0.25);
  }
}

TEST(RedsTest, StreamedRelabelingMatchesMaterializedRows) {
  auto f = fun::MakeFunction("ellipse");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 150, fun::DesignKind::kLatinHypercube, 12);
  for (const bool prob : {false, true}) {
    const RedsConfig config =
        QuickConfig(ml::MetamodelKind::kGbt, prob, 900);
    const RedsRelabeling materialized = RedsRelabel(d, config, 13);
    RedsStreamedRelabeling streamed = RedsRelabelStreamed(d, config, 13);
    ASSERT_NE(streamed.new_data, nullptr);
    EXPECT_EQ(streamed.new_data->num_rows_hint(), 900);
    // Odd block size: rows must not depend on block boundaries.
    auto drained = ReadAll(streamed.new_data.get(), /*block_rows=*/77);
    ASSERT_TRUE(drained.ok());
    ASSERT_EQ(drained->num_rows(), materialized.new_data.num_rows());
    for (int i = 0; i < drained->num_rows(); ++i) {
      for (int j = 0; j < drained->num_cols(); ++j) {
        ASSERT_EQ(drained->x(i, j), materialized.new_data.x(i, j))
            << "prob=" << prob << " row " << i;
      }
      ASSERT_EQ(drained->y(i), materialized.new_data.y(i))
          << "prob=" << prob << " row " << i;
    }
    // A second pass (Reset) replays the identical stream.
    auto again = ReadAll(streamed.new_data.get(), /*block_rows=*/901);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->num_rows(), drained->num_rows());
    for (int i = 0; i < again->num_rows(); ++i) {
      ASSERT_EQ(again->y(i), drained->y(i));
    }
  }
}

TEST(RedsTest, SinglePassLabelCacheIsBitIdenticalToPureReplay) {
  // The fused single-pass stream (labels computed once in the sketch pass
  // and served from the O(L) cache in the coding pass) must be invisible
  // to everything downstream: identical bins, identical labels, identical
  // PRIM boxes -- only the labeling-pass count may differ.
  auto f = fun::MakeFunction("ellipse");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 150, fun::DesignKind::kLatinHypercube, 40);
  StreamedDataset results[2];
  int label_passes[2] = {0, 0};
  for (const bool fused : {false, true}) {
    RedsConfig config = QuickConfig(ml::MetamodelKind::kGbt, false, 1200);
    config.cache_stream_labels = fused;
    obs::Trace trace(fused ? "fused" : "replay");
    obs::TraceBinding binding(&trace);
    RedsStreamedRelabeling streamed = RedsRelabelStreamed(d, config, 41);
    Result<StreamedDataset> built =
        BinnedIndex::BuildStreamed(streamed.new_data.get());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    results[fused ? 1 : 0] = std::move(built).value();
    label_passes[fused ? 1 : 0] = trace.CountEvents("relabel.label_pass");
  }
#ifndef REDS_OBS_NOOP
  // Pure replay labels once per pass (sketch + coding); the fused stream
  // labels exactly once in total.
  EXPECT_EQ(label_passes[0], 2);
  EXPECT_EQ(label_passes[1], 1);
#endif
  EXPECT_EQ(results[0].y, results[1].y);
  EXPECT_EQ(results[0].fingerprint, results[1].fingerprint);
  EXPECT_EQ(results[0].input_fingerprint, results[1].input_fingerprint);
  const BinnedIndex& replay = *results[0].index;
  const BinnedIndex& fused = *results[1].index;
  ASSERT_EQ(replay.num_cols(), fused.num_cols());
  for (int j = 0; j < replay.num_cols(); ++j) {
    ASSERT_EQ(replay.num_bins(j), fused.num_bins(j));
    EXPECT_TRUE(replay.codes(j) == fused.codes(j)) << "col " << j;
  }
  PrimConfig prim;
  const PrimResult a = RunPrimStreamed(replay, results[0].y, prim, &d);
  const PrimResult b = RunPrimStreamed(fused, results[1].y, prim, &d);
  ASSERT_EQ(a.ReturnedBoxes().size(), b.ReturnedBoxes().size());
  EXPECT_TRUE(a.BestBox() == b.BestBox())
      << "single-pass and two-pass streamed REDS must peel identical boxes";
}

TEST(RedsTest, MetamodelLabelIsTheSingleSourceOfTruth) {
  auto f = fun::MakeFunction("ellipse");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 150, fun::DesignKind::kLatinHypercube, 14);
  const RedsRelabeling hard =
      RedsRelabel(d, QuickConfig(ml::MetamodelKind::kGbt, false, 300), 15);
  const RedsRelabeling soft =
      RedsRelabel(d, QuickConfig(ml::MetamodelKind::kGbt, true, 300), 15);
  for (int i = 0; i < hard.new_data.num_rows(); ++i) {
    EXPECT_EQ(hard.new_data.y(i),
              MetamodelLabel(*hard.metamodel, hard.new_data.row(i), false));
    EXPECT_EQ(soft.new_data.y(i),
              MetamodelLabel(*soft.metamodel, soft.new_data.row(i), true));
  }
}

TEST(RedsTest, BlockLabelsMatchThePerRowMetamodelLabelLoop) {
  // Every relabeling path labels through Metamodel::PredictBlock; each
  // label must still equal the per-row MetamodelLabel reference bit for
  // bit, for every family, hard and probability labels alike.
  auto f = fun::MakeFunction("borehole");
  const Dataset d =
      fun::MakeScenarioDataset(**f, 200, fun::DesignKind::kLatinHypercube, 16);
  for (const ml::MetamodelKind kind :
       {ml::MetamodelKind::kRandomForest, ml::MetamodelKind::kGbt,
        ml::MetamodelKind::kSvm}) {
    for (const bool prob : {false, true}) {
      SCOPED_TRACE(ml::MetamodelSuffix(kind) + (prob ? " p" : " hard"));
      const RedsConfig config = QuickConfig(kind, prob, 2500);
      const RedsRelabeling materialized = RedsRelabel(d, config, 17);
      int mismatches = 0;
      for (int i = 0; i < materialized.new_data.num_rows(); ++i) {
        mismatches += materialized.new_data.y(i) !=
                              MetamodelLabel(*materialized.metamodel,
                                             materialized.new_data.row(i), prob)
                          ? 1
                          : 0;
      }
      EXPECT_EQ(mismatches, 0) << "materialized";

      RedsStreamedRelabeling streamed = RedsRelabelStreamed(d, config, 17);
      ASSERT_NE(streamed.metamodel, nullptr);
      // Two passes: the first labels per block, the second replays the
      // cached labels; block sizes that split the stream unevenly.
      for (const int block_rows : {77, 1024}) {
        auto drained = ReadAll(streamed.new_data.get(), block_rows);
        ASSERT_TRUE(drained.ok());
        ASSERT_EQ(drained->num_rows(), 2500);
        mismatches = 0;
        for (int i = 0; i < drained->num_rows(); ++i) {
          mismatches +=
              drained->y(i) != MetamodelLabel(*streamed.metamodel,
                                              drained->row(i), prob)
                  ? 1
                  : 0;
        }
        EXPECT_EQ(mismatches, 0) << "streamed, block_rows " << block_rows;
      }

      const std::vector<double> points(
          materialized.new_data.row(0),
          materialized.new_data.row(0) + 700 * d.num_cols());
      const RedsRelabeling pointwise = RedsRelabelPoints(d, points, config, 17);
      mismatches = 0;
      for (int i = 0; i < pointwise.new_data.num_rows(); ++i) {
        mismatches += pointwise.new_data.y(i) !=
                              MetamodelLabel(*pointwise.metamodel,
                                             pointwise.new_data.row(i), prob)
                          ? 1
                          : 0;
      }
      EXPECT_EQ(mismatches, 0) << "points";
    }
  }
}

// The headline claim (Figure 2 / Section 9): at small N, PRIM on
// metamodel-relabeled data beats PRIM on the raw data. We check PR AUC on an
// independent test set, averaged over repetitions, on a function where the
// effect is strong (high-dimensional "morris").
TEST(RedsTest, ImprovesPrimOnMorrisAtSmallN) {
  auto f = fun::MakeFunction("morris");
  const Dataset test =
      fun::MakeScenarioDataset(**f, 4000, fun::DesignKind::kLatinHypercube, 99);
  double auc_plain = 0.0, auc_reds = 0.0;
  const int reps = 3;
  for (int rep = 0; rep < reps; ++rep) {
    const Dataset d = fun::MakeScenarioDataset(
        **f, 400, fun::DesignKind::kLatinHypercube, 100 + rep);
    PrimConfig prim;
    const PrimResult plain = RunPrim(d, d, prim);
    auc_plain += PrAucOnData(plain.ReturnedBoxes(), test);

    const RedsRelabeling r = RedsRelabel(
        d, QuickConfig(ml::MetamodelKind::kGbt, false, 20000), 200 + rep);
    const PrimResult reds_run = RunPrim(r.new_data, r.new_data, prim);
    auc_reds += PrAucOnData(reds_run.ReturnedBoxes(), test);
  }
  EXPECT_GT(auc_reds / reps, auc_plain / reps)
      << "REDS should dominate plain PRIM on morris at N=400";
}

}  // namespace
}  // namespace reds
