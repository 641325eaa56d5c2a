// ColumnIndex invariants: the per-column sorted permutations (ordering,
// ties, constant columns), rank queries, violation counts, and columnar
// copies that the sorted-index PRIM/BI/CART kernels rely on; and
// ColumnIndex::Resample, which must equal a sorting Build of the resampled
// dataset exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/column_index.h"
#include "util/rng.h"

namespace reds {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeData(int n, int dim, uint64_t seed, int distinct_values = 0) {
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
    d.AddRow(x, rng.Bernoulli(0.4) ? 1.0 : 0.0);
  }
  return d;
}

TEST(ColumnIndexTest, ColumnsMatchDatasetValues) {
  const Dataset d = MakeData(200, 5, 1);
  const auto index = ColumnIndex::Build(d);
  ASSERT_EQ(index->num_rows(), 200);
  ASSERT_EQ(index->num_cols(), 5);
  for (int j = 0; j < 5; ++j) {
    for (int r = 0; r < 200; ++r) {
      EXPECT_EQ(index->column(j)[static_cast<size_t>(r)], d.x(r, j));
    }
  }
}

TEST(ColumnIndexTest, SortedRowsIsAPermutationSortedByValueThenRow) {
  // Heavy ties: only 7 distinct values per column.
  const Dataset d = MakeData(300, 4, 2, 7);
  const auto index = ColumnIndex::Build(d);
  for (int j = 0; j < 4; ++j) {
    const std::vector<int>& s = index->sorted_rows(j);
    ASSERT_EQ(s.size(), 300u);
    std::vector<bool> seen(300, false);
    for (int r : s) {
      ASSERT_GE(r, 0);
      ASSERT_LT(r, 300);
      EXPECT_FALSE(seen[static_cast<size_t>(r)]) << "duplicate row " << r;
      seen[static_cast<size_t>(r)] = true;
    }
    for (size_t i = 1; i < s.size(); ++i) {
      const double prev = d.x(s[i - 1], j);
      const double cur = d.x(s[i], j);
      EXPECT_LE(prev, cur);
      if (prev == cur) {
        EXPECT_LT(s[i - 1], s[i]) << "ties must be ordered by row id";
      }
    }
  }
}

TEST(ColumnIndexTest, ConstantColumnIsHandled) {
  Dataset d(2);
  for (int i = 0; i < 50; ++i) {
    const double x[2] = {0.5, static_cast<double>(i)};
    d.AddRow(x, i % 2 == 0 ? 1.0 : 0.0);
  }
  const auto index = ColumnIndex::Build(d);
  const std::vector<int>& s = index->sorted_rows(0);
  // All values equal: the permutation degenerates to row-id order.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s[static_cast<size_t>(i)], i);
  EXPECT_EQ(index->LowerBoundRank(0, 0.5), 0);
  EXPECT_EQ(index->UpperBoundRank(0, 0.5), 50);
  EXPECT_EQ(index->LowerBoundRank(0, 0.6), 50);
  EXPECT_EQ(index->UpperBoundRank(0, 0.4), 0);
}

TEST(ColumnIndexTest, RankQueriesMatchLinearCounts) {
  const Dataset d = MakeData(250, 3, 3, 11);
  const auto index = ColumnIndex::Build(d);
  for (int j = 0; j < 3; ++j) {
    for (double v : {-kInf, 0.0, 0.3, 5.0 / 11.0, 0.9999, 1.5, kInf}) {
      int below = 0, at_or_below = 0;
      for (int r = 0; r < 250; ++r) {
        below += d.x(r, j) < v ? 1 : 0;
        at_or_below += d.x(r, j) <= v ? 1 : 0;
      }
      EXPECT_EQ(index->LowerBoundRank(j, v), below);
      EXPECT_EQ(index->UpperBoundRank(j, v), at_or_below);
    }
  }
}

TEST(ColumnIndexTest, ValueAtRankIsTheOrderStatistic) {
  const Dataset d = MakeData(100, 2, 4);
  const auto index = ColumnIndex::Build(d);
  std::vector<double> col(100);
  for (int r = 0; r < 100; ++r) col[static_cast<size_t>(r)] = d.x(r, 1);
  std::sort(col.begin(), col.end());
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(index->ValueAtRank(1, k), col[static_cast<size_t>(k)]);
  }
}

TEST(ColumnIndexTest, CountBoundViolationsMatchesBruteForce) {
  const Dataset d = MakeData(300, 4, 5, 9);
  const auto index = ColumnIndex::Build(d);
  Box box = Box::Unbounded(4);
  box.set_lo(0, 0.25);
  box.set_hi(1, 0.75);
  box.set_lo(2, 0.4);
  box.set_hi(2, 0.6);
  const std::vector<int> viol = CountBoundViolations(*index, box);
  ASSERT_EQ(viol.size(), 300u);
  for (int r = 0; r < 300; ++r) {
    int expected = 0;
    for (int j = 0; j < 4; ++j) {
      if (d.x(r, j) < box.lo(j) || d.x(r, j) > box.hi(j)) ++expected;
    }
    EXPECT_EQ(viol[static_cast<size_t>(r)], expected) << "row " << r;
  }
}

// Resample(parent, rows, cols) must be Build(SubsetRows(rows).
// SelectColumns(cols)) exactly: same columns, same permutations.
void ExpectResampleMatchesBuild(const Dataset& d, const std::vector<int>& rows,
                                const std::vector<int>& cols,
                                const std::string& label) {
  const auto parent = ColumnIndex::Build(d);
  const auto built = ColumnIndex::Build(d.SubsetRows(rows).SelectColumns(cols));
  const auto derived = ColumnIndex::Resample(*parent, rows, cols);
  ASSERT_EQ(derived->num_rows(), built->num_rows()) << label;
  ASSERT_EQ(derived->num_cols(), built->num_cols()) << label;
  for (int j = 0; j < built->num_cols(); ++j) {
    EXPECT_EQ(derived->column(j), built->column(j)) << label << " col " << j;
    EXPECT_EQ(derived->sorted_rows(j), built->sorted_rows(j))
        << label << " col " << j;
  }
}

std::vector<int> AllColumns(int m) {
  std::vector<int> cols(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) cols[static_cast<size_t>(j)] = j;
  return cols;
}

TEST(ColumnIndexResampleTest, BootstrapOfContinuousData) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const Dataset d = MakeData(300, 4, seed);
    Rng rng(seed + 100);
    ExpectResampleMatchesBuild(d, rng.BootstrapIndices(300), AllColumns(4),
                               "continuous seed " + std::to_string(seed));
  }
}

TEST(ColumnIndexResampleTest, DiscreteColumnsWithTiesAcrossParentRows) {
  // 2 and 5 distinct values: every run of equal values spans many parent
  // rows, so the child ids of a run interleave and must be re-sorted.
  for (int distinct : {2, 5}) {
    const Dataset d = MakeData(250, 3, 21, distinct);
    Rng rng(22);
    ExpectResampleMatchesBuild(d, rng.BootstrapIndices(250), AllColumns(3),
                               "distinct " + std::to_string(distinct));
  }
}

TEST(ColumnIndexResampleTest, BootstrapHeavyWithDuplicates) {
  // 200 draws from 12 parent rows: every parent row repeats many times.
  const Dataset d = MakeData(12, 3, 31, 4);
  Rng rng(32);
  std::vector<int> rows(200);
  for (int& r : rows) r = static_cast<int>(rng.UniformInt(12));
  ExpectResampleMatchesBuild(d, rows, AllColumns(3), "duplicates");
  // The same parent row repeated back to back, out of row order.
  ExpectResampleMatchesBuild(d, {5, 5, 5, 1, 5, 1, 0, 11, 11}, AllColumns(3),
                             "repeats");
}

TEST(ColumnIndexResampleTest, RowsThatSkipParentRows) {
  // Only every third parent row, in descending order, plus a subset that
  // is shorter than the parent.
  const Dataset d = MakeData(90, 3, 41, 6);
  std::vector<int> rows;
  for (int r = 89; r >= 0; r -= 3) rows.push_back(r);
  ExpectResampleMatchesBuild(d, rows, AllColumns(3), "every third");
  ExpectResampleMatchesBuild(d, {7, 3, 88, 3, 60}, AllColumns(3), "five rows");
}

TEST(ColumnIndexResampleTest, PartialColumnList) {
  const Dataset d = MakeData(200, 6, 51, 9);
  Rng rng(52);
  const std::vector<int> rows = rng.BootstrapIndices(200);
  ExpectResampleMatchesBuild(d, rows, {1, 4}, "cols 1,4");
  ExpectResampleMatchesBuild(d, rows, {5}, "col 5");
  ExpectResampleMatchesBuild(d, rows, {0, 2, 3, 5}, "cols 0,2,3,5");
}

TEST(ColumnIndexResampleTest, SingleRow) {
  const Dataset d = MakeData(40, 3, 61);
  ExpectResampleMatchesBuild(d, {17}, AllColumns(3), "single row");
  ExpectResampleMatchesBuild(d, {0}, {2}, "single row, single column");
}

TEST(ColumnIndexResampleTest, NaNFirstInParentOrderStillPermutes) {
  // NaN has no defined order (Build's comparator is not a strict weak
  // order with it), but Resample must still return in-range permutations;
  // here the parent order starts at the NaN row.
  Dataset d(1);
  d.AddRow(std::vector<double>{std::nan("")}, 0.0);
  d.AddRow(std::vector<double>{0.5}, 1.0);
  const auto parent = ColumnIndex::Build(d);
  ASSERT_EQ(parent->sorted_rows(0)[0], 0);
  const std::vector<int> rows = {0, 1, 1, 0, 1};
  const auto derived = ColumnIndex::Resample(*parent, rows, {0});
  std::vector<int> order = derived->sorted_rows(0);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(std::isnan(derived->column(0)[0]));
  EXPECT_EQ(derived->column(0)[1], 0.5);
}

TEST(ColumnIndexResampleTest, SignedZerosTieLikeBuild) {
  // -0.0 == +0.0, so Build orders them by row id; the derived order must
  // too, although the parent interleaves them by parent row.
  Dataset d(1);
  for (double v : {0.0, -0.0, 1.0, -0.0, 0.0, -1.0}) {
    const double x[1] = {v};
    d.AddRow(x, 0.0);
  }
  ExpectResampleMatchesBuild(d, {4, 1, 3, 0, 3, 5, 2, 4}, {0}, "signed zeros");
}

}  // namespace
}  // namespace reds
