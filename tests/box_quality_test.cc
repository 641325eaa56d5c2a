// Tests for Dataset, Box geometry and the quality measures of Section 4.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/box.h"
#include "core/dataset.h"
#include "core/prim.h"
#include "core/quality.h"
#include "util/rng.h"

namespace reds {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeToyData() {
  // 2-D grid; positives in the lower-left quadrant.
  Dataset d(2);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      const double x[2] = {i / 10.0, j / 10.0};
      d.AddRow(x, (x[0] < 0.5 && x[1] < 0.5) ? 1.0 : 0.0);
    }
  }
  return d;
}

TEST(DatasetTest, BasicAccessors) {
  Dataset d(3);
  EXPECT_EQ(d.num_rows(), 0);
  const double r1[3] = {0.1, 0.2, 0.3};
  d.AddRow(r1, 1.0);
  d.AddRow(std::vector<double>{0.4, 0.5, 0.6}, 0.25);
  EXPECT_EQ(d.num_rows(), 2);
  EXPECT_DOUBLE_EQ(d.x(1, 2), 0.6);
  EXPECT_DOUBLE_EQ(d.y(1), 0.25);
  EXPECT_DOUBLE_EQ(d.TotalPositive(), 1.25);
  EXPECT_DOUBLE_EQ(d.PositiveShare(), 0.625);
}

TEST(DatasetTest, SubsetRowsAllowsDuplicates) {
  Dataset d = MakeToyData();
  const Dataset sub = d.SubsetRows({0, 0, 5});
  EXPECT_EQ(sub.num_rows(), 3);
  EXPECT_DOUBLE_EQ(sub.x(0, 0), sub.x(1, 0));
}

TEST(DatasetTest, SelectColumnsKeepsTargets) {
  Dataset d = MakeToyData();
  const Dataset sub = d.SelectColumns({1});
  EXPECT_EQ(sub.num_cols(), 1);
  EXPECT_EQ(sub.num_rows(), d.num_rows());
  EXPECT_DOUBLE_EQ(sub.TotalPositive(), d.TotalPositive());
  EXPECT_DOUBLE_EQ(sub.x(3, 0), d.x(3, 1));
}

TEST(DatasetTest, ColumnRange) {
  Dataset d = MakeToyData();
  std::vector<double> lo, hi;
  d.ColumnRange(&lo, &hi);
  EXPECT_DOUBLE_EQ(lo[0], 0.0);
  EXPECT_DOUBLE_EQ(hi[0], 0.9);
}

TEST(BoxTest, UnboundedContainsEverything) {
  const Box b = Box::Unbounded(3);
  EXPECT_EQ(b.NumRestricted(), 0);
  const double x[3] = {-1e30, 0.0, 1e30};
  EXPECT_TRUE(b.Contains(x));
}

TEST(BoxTest, ContainsIsInclusive) {
  Box b = Box::Unbounded(2);
  b.set_lo(0, 0.2);
  b.set_hi(0, 0.8);
  const double on_lo[2] = {0.2, 0.0};
  const double below[2] = {0.19999, 0.0};
  EXPECT_TRUE(b.Contains(on_lo));
  EXPECT_FALSE(b.Contains(below));
}

TEST(BoxTest, NumRestrictedCountsEitherSide) {
  Box b = Box::Unbounded(4);
  b.set_lo(0, 0.1);
  b.set_hi(2, 0.9);
  b.set_lo(3, 0.2);
  b.set_hi(3, 0.7);
  EXPECT_EQ(b.NumRestricted(), 3);
}

TEST(BoxTest, ClampedVolumeClampsInfinities) {
  Box b = Box::Unbounded(2);
  b.set_lo(0, 0.5);  // [0.5, inf) x (-inf, inf) over [0,1]^2 -> 0.5
  const std::vector<double> lo{0.0, 0.0}, hi{1.0, 1.0};
  EXPECT_NEAR(b.ClampedVolume(lo, hi), 0.5, 1e-12);
}

TEST(BoxTest, IntersectCanBeEmpty) {
  Box a = Box::Unbounded(1);
  a.set_hi(0, 0.3);
  Box b = Box::Unbounded(1);
  b.set_lo(0, 0.6);
  const std::vector<double> lo{0.0}, hi{1.0};
  EXPECT_DOUBLE_EQ(a.Intersect(b).ClampedVolume(lo, hi), 0.0);
}

TEST(BoxTest, LiftToFullSpace) {
  Box sub = Box::Unbounded(2);
  sub.set_lo(0, 0.1);
  sub.set_hi(1, 0.9);
  const Box full = sub.LiftToFullSpace(5, {1, 3});
  EXPECT_EQ(full.dim(), 5);
  EXPECT_DOUBLE_EQ(full.lo(1), 0.1);
  EXPECT_DOUBLE_EQ(full.hi(3), 0.9);
  EXPECT_FALSE(full.IsRestricted(0));
  EXPECT_FALSE(full.IsRestricted(2));
  EXPECT_FALSE(full.IsRestricted(4));
}

TEST(BoxTest, StatsSequenceMatchesPerBoxStats) {
  // Fractional labels make the summation order visible. Row 0's NaN input
  // passes every bound on its dimension (no comparison excludes it), as in
  // ComputeBoxStats.
  Rng rng(7);
  Dataset d(3);
  d.AddRow(std::vector<double>{0.35, std::nan(""), 0.5}, 0.625);
  for (int i = 1; i < 400; ++i) {
    const double x[3] = {rng.Uniform(), rng.Uniform(),
                         static_cast<double>(rng.UniformInt(4)) / 4.0};
    d.AddRow(x, rng.LogitNormal(x[0] < 0.5 ? 1.0 : -1.0, 0.9));
  }
  auto make = [](double lo0, double hi0, double lo1, double hi1, double lo2,
                 double hi2) {
    Box b = Box::Unbounded(3);
    b.set_lo(0, lo0);
    b.set_hi(0, hi0);
    b.set_lo(1, lo1);
    b.set_hi(1, hi1);
    b.set_lo(2, lo2);
    b.set_hi(2, hi2);
    return b;
  };
  const std::vector<Box> boxes = {
      Box::Unbounded(3),
      make(0.1, kInf, -kInf, kInf, -kInf, kInf),   // raise a lo
      make(0.1, 0.9, -kInf, kInf, -kInf, kInf),    // drop a hi
      make(0.1, 0.9, 0.2, 0.8, 0.25, 0.75),        // several bounds at once
      make(0.1, 0.9, 0.2, 0.8, 0.25, 0.75),        // unchanged
      make(0.05, 0.9, 0.2, 0.8, 0.25, 0.75),       // widened lo: rescan
      make(0.05, 0.95, 0.2, 0.8, 0.25, 0.75),      // widened hi: rescan
      make(0.3, 0.4, 0.3, 0.35, 0.5, 0.5),         // nested, tiny
      make(0.6, 0.7, 0.3, 0.35, 0.5, 0.5),         // disjoint: rescan
      make(0.65, 0.64, -kInf, kInf, -kInf, kInf),  // empty
      Box::Unbounded(3),                           // restart
      make(-kInf, 0.5, -kInf, kInf, 0.5, kInf),
  };
  const std::vector<BoxStats> seq = ComputeBoxStatsSequence(d, boxes);
  ASSERT_EQ(seq.size(), boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    const BoxStats one = ComputeBoxStats(d, boxes[i]);
    EXPECT_EQ(seq[i].n, one.n) << "box " << i;
    EXPECT_EQ(seq[i].n_pos, one.n_pos) << "box " << i;
  }
  EXPECT_TRUE(ComputeBoxStatsSequence(d, {}).empty());
}

TEST(BoxTest, ToStringRendersRule) {
  Box b = Box::Unbounded(3);
  b.set_lo(0, 0.25);
  b.set_hi(0, 0.75);
  b.set_hi(2, 0.5);
  const std::string s = b.ToString();
  EXPECT_NE(s.find("a1"), std::string::npos);
  EXPECT_NE(s.find("AND"), std::string::npos);
  EXPECT_EQ(Box::Unbounded(2).ToString(), "(any)");
}

TEST(QualityTest, PrecisionRecallOnToyData) {
  Dataset d = MakeToyData();
  Box b = Box::Unbounded(2);
  b.set_hi(0, 0.45);
  b.set_hi(1, 0.45);
  const BoxStats stats = ComputeBoxStats(d, b);
  EXPECT_DOUBLE_EQ(stats.n, 25.0);
  EXPECT_DOUBLE_EQ(stats.n_pos, 25.0);
  EXPECT_DOUBLE_EQ(Precision(stats), 1.0);
  EXPECT_DOUBLE_EQ(Recall(stats, d.TotalPositive()), 1.0);
}

TEST(QualityTest, FractionalTargetsSupported) {
  Dataset d(1);
  const double x0[1] = {0.1}, x1[1] = {0.9};
  d.AddRow(x0, 0.75);
  d.AddRow(x1, 0.25);
  Box b = Box::Unbounded(1);
  b.set_hi(0, 0.5);
  const BoxStats stats = ComputeBoxStats(d, b);
  EXPECT_DOUBLE_EQ(stats.n, 1.0);
  EXPECT_DOUBLE_EQ(stats.n_pos, 0.75);
  EXPECT_DOUBLE_EQ(Precision(stats), 0.75);
  EXPECT_DOUBLE_EQ(Recall(stats, d.TotalPositive()), 0.75);
}

TEST(QualityTest, WraccMatchesDefinition) {
  Dataset d = MakeToyData();  // N = 100, N+ = 25
  Box b = Box::Unbounded(2);
  b.set_hi(0, 0.45);
  b.set_hi(1, 0.45);
  const BoxStats stats = ComputeBoxStats(d, b);
  // WRAcc = n/N (n+/n - N+/N) = 0.25 * (1 - 0.25).
  EXPECT_NEAR(WRAcc(stats, 100.0, 25.0), 0.1875, 1e-12);
  EXPECT_DOUBLE_EQ(WRAcc({0.0, 0.0}, 100.0, 25.0), 0.0);
}

TEST(QualityTest, WraccOfFullBoxIsZero) {
  Dataset d = MakeToyData();
  EXPECT_NEAR(WRAcc(ComputeBoxStats(d, Box::Unbounded(2)), 100.0, 25.0), 0.0,
              1e-12);
}

TEST(QualityTest, PrAucOfPerfectCurve) {
  // Constant precision 1 from recall 0 to 1 -> area 1.
  const double auc = PrAuc({{1.0, 1.0}, {0.5, 1.0}, {0.1, 1.0}});
  EXPECT_NEAR(auc, 1.0, 1e-12);
}

TEST(QualityTest, PrAucTrapezoid) {
  // Two points: (recall 1, prec 0.5), (recall 0.5, prec 1).
  // Left extension: 0.5 * 1.0 = 0.5; trapezoid 0.5..1: 0.5 * 0.75 = 0.375.
  const double auc = PrAuc({{1.0, 0.5}, {0.5, 1.0}});
  EXPECT_NEAR(auc, 0.875, 1e-12);
}

TEST(QualityTest, PrAucEmptyIsZero) { EXPECT_DOUBLE_EQ(PrAuc({}), 0.0); }

TEST(QualityTest, ConsistencyIdenticalBoxes) {
  Box b = Box::Unbounded(2);
  b.set_lo(0, 0.2);
  b.set_hi(0, 0.8);
  const std::vector<double> lo{0.0, 0.0}, hi{1.0, 1.0};
  EXPECT_NEAR(Consistency(b, b, lo, hi), 1.0, 1e-12);
}

TEST(QualityTest, ConsistencyDisjointBoxesIsZero) {
  Box a = Box::Unbounded(1);
  a.set_hi(0, 0.3);
  Box b = Box::Unbounded(1);
  b.set_lo(0, 0.6);
  EXPECT_DOUBLE_EQ(Consistency(a, b, {0.0}, {1.0}), 0.0);
}

TEST(QualityTest, ConsistencyPartialOverlap) {
  Box a = Box::Unbounded(1);
  a.set_lo(0, 0.0);
  a.set_hi(0, 0.6);
  Box b = Box::Unbounded(1);
  b.set_lo(0, 0.4);
  b.set_hi(0, 1.0);
  // overlap 0.2, union 1.0.
  EXPECT_NEAR(Consistency(a, b, {0.0}, {1.0}), 0.2, 1e-12);
}

TEST(QualityTest, ConsistencyIsSymmetric) {
  Box a = Box::Unbounded(2);
  a.set_hi(0, 0.7);
  Box b = Box::Unbounded(2);
  b.set_lo(1, 0.2);
  const std::vector<double> lo{0.0, 0.0}, hi{1.0, 1.0};
  EXPECT_DOUBLE_EQ(Consistency(a, b, lo, hi), Consistency(b, a, lo, hi));
}

TEST(QualityTest, MeanPairwiseConsistencySingleBoxIsOne) {
  EXPECT_DOUBLE_EQ(
      MeanPairwiseConsistency({Box::Unbounded(1)}, {0.0}, {1.0}), 1.0);
}

TEST(QualityTest, IrrelevantRestrictedCount) {
  Box b = Box::Unbounded(4);
  b.set_lo(0, 0.1);
  b.set_lo(1, 0.1);
  b.set_lo(3, 0.1);
  const std::vector<bool> relevant{true, false, true, false};
  EXPECT_EQ(NumIrrelevantRestricted(b, relevant), 2);
}

TEST(QualityTest, PrAucOnDataMatchesManual) {
  Dataset d = MakeToyData();
  Box b1 = Box::Unbounded(2);
  Box b2 = b1;
  b2.set_hi(0, 0.45);
  b2.set_hi(1, 0.45);
  const double auc = PrAucOnData({b1, b2}, d);
  // Points: (1, 0.25) and (1, 1)?? b2 has recall 1 precision 1 -> curve is
  // dominated by (1,1); left extension 1*1 = 1 but the (1, 0.25) point also
  // sits at recall 1. Sorted by recall both at 1 -> area = 1*precision_first.
  EXPECT_GT(auc, 0.9);
  EXPECT_LE(auc, 1.0 + 1e-12);
}

// PrAucOnData scores a trajectory incrementally (ComputeBoxStatsSequence);
// it must equal scoring every box on its own, bit for bit, whether the
// boxes nest or not.
TEST(QualityTest, PrAucOnDataMatchesPerBoxScoring) {
  const auto per_box = [](const std::vector<Box>& boxes, const Dataset& d) {
    std::vector<PrPoint> points;
    for (const Box& b : boxes) {
      const BoxStats stats = ComputeBoxStats(d, b);
      points.push_back({Recall(stats, d.TotalPositive()), Precision(stats)});
    }
    return PrAuc(std::move(points));
  };
  for (const bool fractional : {false, true}) {
    Rng rng(31);
    Dataset train(3), test(3);
    for (int i = 0; i < 1600; ++i) {
      const double x[3] = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      const bool inside = x[0] < 0.4 && x[1] > 0.3;
      const double y = fractional ? rng.LogitNormal(inside ? 1.0 : -1.0, 0.9)
                                  : (rng.Bernoulli(inside ? 0.85 : 0.15)
                                         ? 1.0
                                         : 0.0);
      (i % 2 == 0 ? train : test).AddRow(x, y);
    }
    PrimConfig config;
    config.alpha = 0.1;
    const std::vector<Box> nested = RunPrim(train, train, config).boxes;
    ASSERT_GT(nested.size(), 3u);
    // A pasted trajectory ends on a box that widens its predecessor.
    std::vector<Box> pasted = nested;
    Box widened = pasted.back();
    for (int j = 0; j < widened.dim(); ++j) {
      if (widened.IsRestricted(j)) {
        widened.set_lo(j, -kInf);
        widened.set_hi(j, kInf);
        break;
      }
    }
    pasted.push_back(widened);
    const std::vector<Box> reversed(nested.rbegin(), nested.rend());
    for (const Dataset* d : {&train, &test}) {
      EXPECT_EQ(PrAucOnData(nested, *d), per_box(nested, *d));
      EXPECT_EQ(PrAucOnData(pasted, *d), per_box(pasted, *d));
      EXPECT_EQ(PrAucOnData(reversed, *d), per_box(reversed, *d));
    }
  }
}

}  // namespace
}  // namespace reds
