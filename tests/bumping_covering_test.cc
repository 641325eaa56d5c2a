// Tests for PRIM with bumping (Pareto filtering, feature subsets, golden
// equivalence of the derived-index replicate loop against
// RunPrimBumpingReference) and the covering approach.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/bumping.h"
#include "core/covering.h"
#include "core/prim.h"
#include "core/quality.h"
#include "util/rng.h"

namespace reds {
namespace {

Dataset TwoBoxData(int n, uint64_t seed) {
  // Two planted boxes in 3-D: x0 < 0.3 (strong) and x1 > 0.8 (smaller).
  Rng rng(seed);
  Dataset d(3);
  for (int i = 0; i < n; ++i) {
    const double x[3] = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    const bool pos = x[0] < 0.3 || x[1] > 0.8;
    d.AddRow(x, pos ? 1.0 : 0.0);
  }
  return d;
}

TEST(ParetoFilterTest, RemovesDominatedBoxes) {
  std::vector<Box> boxes(3, Box::Unbounded(1));
  std::vector<PrPoint> curve{{0.9, 0.5}, {0.5, 0.4}, {0.3, 0.9}};
  // The middle point is dominated by the first (lower recall AND precision).
  ParetoFilter(&boxes, &curve);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.9);
  EXPECT_DOUBLE_EQ(curve[1].recall, 0.3);
}

TEST(ParetoFilterTest, KeepsIncomparablePoints) {
  std::vector<Box> boxes(2, Box::Unbounded(1));
  std::vector<PrPoint> curve{{0.9, 0.5}, {0.5, 0.8}};
  ParetoFilter(&boxes, &curve);
  EXPECT_EQ(curve.size(), 2u);
}

TEST(ParetoFilterTest, DeduplicatesEqualPoints) {
  std::vector<Box> boxes(3, Box::Unbounded(1));
  std::vector<PrPoint> curve{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}};
  ParetoFilter(&boxes, &curve);
  EXPECT_EQ(curve.size(), 1u);
}

// The O(n log n) filter keeps the reference's survivors in the reference's
// order -- the first of each exact duplicate included -- on random curves
// drawn from a few levels (ties and duplicates everywhere), all-equal
// curves, signed zeros and NaN coordinates.
TEST(ParetoFilterTest, MatchesReferenceOnTiesAndDuplicates) {
  Rng rng(91);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(60));
    const int levels = 1 + static_cast<int>(rng.UniformInt(6));
    std::vector<Box> boxes;
    std::vector<PrPoint> curve;
    for (int i = 0; i < n; ++i) {
      Box b = Box::Unbounded(1);
      b.set_lo(0, i);  // identifies the input position
      boxes.push_back(b);
      PrPoint p{static_cast<double>(rng.UniformInt(levels)) / levels,
                static_cast<double>(rng.UniformInt(levels)) / levels};
      if (trial % 4 == 1) p = {0.5, 0.25};  // all-equal curve
      if (trial % 4 == 2 && rng.Bernoulli(0.2)) {
        p.recall = rng.Bernoulli(0.5) ? -0.0 : 0.0;
      }
      if (trial % 4 == 3 && rng.Bernoulli(0.1)) {
        (rng.Bernoulli(0.5) ? p.recall : p.precision) = nan;
      }
      curve.push_back(p);
    }
    std::vector<Box> ref_boxes = boxes;
    std::vector<PrPoint> ref_curve = curve;
    ParetoFilterReference(&ref_boxes, &ref_curve);
    ParetoFilter(&boxes, &curve);
    ASSERT_EQ(boxes.size(), ref_boxes.size()) << "trial " << trial;
    for (size_t i = 0; i < boxes.size(); ++i) {
      EXPECT_EQ(boxes[i].lo(0), ref_boxes[i].lo(0)) << "trial " << trial;
      EXPECT_EQ(std::memcmp(&curve[i], &ref_curve[i], sizeof(PrPoint)), 0)
          << "trial " << trial;
    }
  }
}

TEST(BumpingTest, CurveIsParetoAndSortedByRecall) {
  const Dataset d = TwoBoxData(500, 1);
  BumpingConfig config;
  config.q = 15;
  const BumpingResult r = RunPrimBumping(d, d, config, 7);
  ASSERT_FALSE(r.boxes.empty());
  for (size_t i = 1; i < r.val_curve.size(); ++i) {
    EXPECT_LE(r.val_curve[i].recall, r.val_curve[i - 1].recall);
    // On a Pareto front sorted by decreasing recall, precision increases.
    EXPECT_GE(r.val_curve[i].precision + 1e-12, r.val_curve[i - 1].precision);
  }
}

TEST(BumpingTest, FeatureSubsetsRestrictOnlyChosenColumns) {
  const Dataset d = TwoBoxData(400, 2);
  BumpingConfig config;
  config.q = 10;
  config.m = 1;  // every box may restrict at most one input
  const BumpingResult r = RunPrimBumping(d, d, config, 8);
  for (const Box& b : r.boxes) EXPECT_LE(b.NumRestricted(), 1);
}

TEST(BumpingTest, BestBoxHasHighestPrecision) {
  const Dataset d = TwoBoxData(500, 3);
  BumpingConfig config;
  config.q = 12;
  const BumpingResult r = RunPrimBumping(d, d, config, 9);
  const int best = r.BestIndex();
  for (const auto& p : r.val_curve) {
    EXPECT_LE(p.precision,
              r.val_curve[static_cast<size_t>(best)].precision + 1e-12);
  }
}

TEST(BumpingTest, DeterministicForSameSeed) {
  const Dataset d = TwoBoxData(300, 4);
  BumpingConfig config;
  config.q = 8;
  const BumpingResult a = RunPrimBumping(d, d, config, 42);
  const BumpingResult b = RunPrimBumping(d, d, config, 42);
  ASSERT_EQ(a.boxes.size(), b.boxes.size());
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    EXPECT_TRUE(a.boxes[i] == b.boxes[i]);
  }
}

// Mixed-resolution data for the golden comparisons: continuous columns, a
// few-valued column (ties across parent rows), and hard or fractional
// labels with roughly `pos_share` positives.
Dataset GoldenData(int n, uint64_t seed, bool fractional,
                   double pos_share = 0.35) {
  Rng rng(seed);
  Dataset d(4);
  for (int i = 0; i < n; ++i) {
    const double x[4] = {rng.Uniform(), rng.Uniform(),
                         static_cast<double>(rng.UniformInt(5)) / 5.0,
                         rng.Uniform()};
    const bool in_box = x[0] < 0.4 && x[2] >= 0.4;
    const double p = in_box ? 0.85 : pos_share * 0.5;
    d.AddRow(x, fractional ? rng.LogitNormal(in_box ? 1.0 : -1.0, 0.8)
                           : (rng.Bernoulli(p) ? 1.0 : 0.0));
  }
  return d;
}

// RunPrimBumping, with and without a parent index, must equal the golden
// replicate loop bit for bit: boxes and validation curve.
void ExpectSameAsReference(const Dataset& train, const Dataset& val,
                           const BumpingConfig& config, uint64_t seed,
                           const std::string& label) {
  const BumpingResult ref =
      RunPrimBumpingReference(train, val, config, seed);
  const auto index = ColumnIndex::Build(train);
  for (const ColumnIndex* parent : {static_cast<const ColumnIndex*>(nullptr),
                                    index.get()}) {
    const std::string where =
        label + (parent == nullptr ? " (own index)" : " (parent index)");
    const BumpingResult opt =
        RunPrimBumping(train, val, config, seed, parent);
    ASSERT_EQ(opt.boxes.size(), ref.boxes.size()) << where;
    ASSERT_EQ(opt.val_curve.size(), ref.val_curve.size()) << where;
    for (size_t i = 0; i < ref.boxes.size(); ++i) {
      EXPECT_TRUE(opt.boxes[i] == ref.boxes[i]) << where << " box " << i;
      EXPECT_EQ(opt.val_curve[i].recall, ref.val_curve[i].recall)
          << where << " box " << i;
      EXPECT_EQ(opt.val_curve[i].precision, ref.val_curve[i].precision)
          << where << " box " << i;
    }
  }
}

TEST(BumpingGoldenTest, HardAndFractionalLabels) {
  for (bool fractional : {false, true}) {
    for (uint64_t seed : {101u, 102u}) {
      const Dataset d = GoldenData(300, seed, fractional);
      BumpingConfig config;
      config.q = 12;
      ExpectSameAsReference(d, d, config, seed + 7,
                            "fractional=" + std::to_string(fractional) +
                                " seed=" + std::to_string(seed));
    }
  }
}

TEST(BumpingGoldenTest, SeparateValidationData) {
  for (bool fractional : {false, true}) {
    const Dataset train = GoldenData(260, 111, fractional);
    const Dataset val = GoldenData(410, 112, fractional);
    BumpingConfig config;
    config.q = 10;
    config.prim.alpha = 0.1;
    ExpectSameAsReference(train, val, config, 113,
                          "train != val fractional=" +
                              std::to_string(fractional));
  }
}

TEST(BumpingGoldenTest, FeatureSubsets) {
  const Dataset d = GoldenData(320, 121, /*fractional=*/false);
  for (int m : {1, 2, 3}) {
    BumpingConfig config;
    config.q = 10;
    config.m = m;
    ExpectSameAsReference(d, d, config, 122, "m=" + std::to_string(m));
  }
}

TEST(BumpingGoldenTest, PastedTrajectoriesAreNotNested) {
  // Pasting widens the selected box, so the returned sequence's last box
  // may leave its predecessor; the incremental scorer must restart.
  for (bool fractional : {false, true}) {
    const Dataset train = GoldenData(300, 131, fractional);
    const Dataset val = GoldenData(200, 132, fractional);
    BumpingConfig config;
    config.q = 12;
    config.prim.alpha = 0.1;
    config.prim.paste = true;
    config.prim.paste_alpha = 0.05;
    ExpectSameAsReference(train, val, config, 133,
                          "paste fractional=" + std::to_string(fractional));
    ExpectSameAsReference(train, train, config, 134,
                          "paste val=train fractional=" +
                              std::to_string(fractional));
  }
}

TEST(BumpingGoldenTest, DegenerateReplicates) {
  // Three positives in 40 rows: many bootstraps draw none and are skipped.
  Dataset sparse(3);
  Rng rng(141);
  for (int i = 0; i < 40; ++i) {
    const double x[3] = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    sparse.AddRow(x, i % 13 == 5 ? 1.0 : 0.0);
  }
  BumpingConfig config;
  config.q = 20;
  config.prim.min_points = 5;
  ExpectSameAsReference(sparse, sparse, config, 142, "sparse positives");

  // No positives at all: every replicate is degenerate and both fall back
  // to the unbounded box.
  Dataset none(2);
  for (int i = 0; i < 30; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    none.AddRow(x, 0.0);
  }
  ExpectSameAsReference(none, none, config, 143, "no positives");
  const BumpingResult r = RunPrimBumping(none, none, config, 143);
  ASSERT_EQ(r.boxes.size(), 1u);
  EXPECT_EQ(r.boxes[0].NumRestricted(), 0);
}

TEST(CoveringTest, FindsBothPlantedSubgroups) {
  const Dataset d = TwoBoxData(1500, 5);
  PrimConfig prim;
  const CoveringResult r = RunCovering(
      d,
      [&prim](const Dataset& data) {
        return RunPrim(data, data, prim).BestBox();
      },
      3);
  ASSERT_GE(r.boxes.size(), 2u);
  // Together the first two boxes should cover most positives.
  EXPECT_GT(r.coverage_share[0] + r.coverage_share[1], 0.7);
  // Each discovered subgroup is fairly pure.
  EXPECT_GT(r.precision[0], 0.8);
}

TEST(CoveringTest, StopsWhenNoPositivesRemain) {
  Rng rng(6);
  Dataset d(2);
  for (int i = 0; i < 200; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    d.AddRow(x, x[0] < 0.2 ? 1.0 : 0.0);
  }
  const CoveringResult r = RunCovering(
      d,
      [](const Dataset& data) { return RunPrim(data, data, {}).BestBox(); },
      10);
  EXPECT_LT(r.boxes.size(), 10u);
}

TEST(CoveringTest, RespectsMaxSubgroups) {
  const Dataset d = TwoBoxData(800, 7);
  const CoveringResult r = RunCovering(
      d,
      [](const Dataset& data) { return RunPrim(data, data, {}).BestBox(); },
      1);
  EXPECT_EQ(r.boxes.size(), 1u);
}

}  // namespace
}  // namespace reds
