#include "core/column_index.h"

#include <algorithm>
#include <limits>

namespace reds {

std::shared_ptr<const ColumnIndex> ColumnIndex::Build(const Dataset& d) {
  auto index = std::shared_ptr<ColumnIndex>(new ColumnIndex());
  const int n = d.num_rows();
  const int m = d.num_cols();
  index->num_rows_ = n;
  index->num_cols_ = m;
  index->columns_.resize(static_cast<size_t>(m));
  index->sorted_.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    std::vector<double>& col = index->columns_[static_cast<size_t>(j)];
    col.resize(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) col[static_cast<size_t>(r)] = d.x(r, j);

    std::vector<int>& order = index->sorted_[static_cast<size_t>(j)];
    order.resize(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) order[static_cast<size_t>(r)] = r;
    std::sort(order.begin(), order.end(), [&col](int a, int b) {
      const double va = col[static_cast<size_t>(a)];
      const double vb = col[static_cast<size_t>(b)];
      return va < vb || (va == vb && a < b);
    });
  }
  return index;
}

std::shared_ptr<const ColumnIndex> ColumnIndex::Resample(
    const ColumnIndex& parent, const std::vector<int>& rows,
    const std::vector<int>& columns) {
  auto index = std::shared_ptr<ColumnIndex>(new ColumnIndex());
  const int n = static_cast<int>(rows.size());
  const int m = static_cast<int>(columns.size());
  const int parent_n = parent.num_rows();
  index->num_rows_ = n;
  index->num_cols_ = m;
  index->columns_.resize(static_cast<size_t>(m));
  index->sorted_.resize(static_cast<size_t>(m));

  // Per column: the parent's permutation gives every parent row its dense
  // value rank (equal values share one), and a stable counting sort of the
  // child ids by their parent row's rank is Build's order -- ascending by
  // value, ties by child row id -- with no comparison sort and no branch
  // on the data.
  std::vector<int> rank_of(static_cast<size_t>(parent_n));
  std::vector<int> key(static_cast<size_t>(n));
  std::vector<int> next(static_cast<size_t>(parent_n) + 1);
  for (int j = 0; j < m; ++j) {
    const int pj = columns[static_cast<size_t>(j)];
    const std::vector<double>& parent_col = parent.column(pj);
    const std::vector<int>& parent_order = parent.sorted_rows(pj);
    std::vector<double>& col = index->columns_[static_cast<size_t>(j)];
    col.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      col[static_cast<size_t>(i)] =
          parent_col[static_cast<size_t>(rows[static_cast<size_t>(i)])];
    }
    if (n == 0) continue;

    // Ranks stay below parent_n even for NaN (which equals nothing).
    int rank = 0;
    double prev = parent_col[static_cast<size_t>(parent_order[0])];
    rank_of[static_cast<size_t>(parent_order[0])] = 0;
    for (int k = 1; k < parent_n; ++k) {
      const int p = parent_order[static_cast<size_t>(k)];
      const double v = parent_col[static_cast<size_t>(p)];
      rank += v != prev ? 1 : 0;
      prev = v;
      rank_of[static_cast<size_t>(p)] = rank;
    }
    std::fill(next.begin(), next.begin() + rank + 2, 0);
    for (int i = 0; i < n; ++i) {
      const int r = rank_of[static_cast<size_t>(rows[static_cast<size_t>(i)])];
      key[static_cast<size_t>(i)] = r;
      ++next[static_cast<size_t>(r) + 1];
    }
    for (int r = 0; r <= rank; ++r) {
      next[static_cast<size_t>(r) + 1] += next[static_cast<size_t>(r)];
    }
    std::vector<int>& order = index->sorted_[static_cast<size_t>(j)];
    order.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      order[static_cast<size_t>(
          next[static_cast<size_t>(key[static_cast<size_t>(i)])]++)] = i;
    }
  }
  return index;
}

int LowerBoundRank(const std::vector<int>& sorted_rows,
                   const std::vector<double>& column, double v) {
  const auto it = std::partition_point(
      sorted_rows.begin(), sorted_rows.end(),
      [&](int r) { return column[static_cast<size_t>(r)] < v; });
  return static_cast<int>(it - sorted_rows.begin());
}

int UpperBoundRank(const std::vector<int>& sorted_rows,
                   const std::vector<double>& column, double v) {
  const auto it = std::partition_point(
      sorted_rows.begin(), sorted_rows.end(),
      [&](int r) { return column[static_cast<size_t>(r)] <= v; });
  return static_cast<int>(it - sorted_rows.begin());
}

int ColumnIndex::LowerBoundRank(int j, double v) const {
  return reds::LowerBoundRank(sorted_rows(j), column(j), v);
}

int ColumnIndex::UpperBoundRank(int j, double v) const {
  return reds::UpperBoundRank(sorted_rows(j), column(j), v);
}

std::vector<int> CountBoundViolations(const ColumnIndex& index,
                                      const Box& box) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int n = index.num_rows();
  std::vector<int> viol(static_cast<size_t>(n), 0);
  for (int j = 0; j < index.num_cols(); ++j) {
    const double lo = box.lo(j);
    const double hi = box.hi(j);
    if (lo == -kInf && hi == kInf) continue;
    const std::vector<double>& col = index.column(j);
    for (int r = 0; r < n; ++r) {
      const double x = col[static_cast<size_t>(r)];
      if (x < lo || x > hi) ++viol[static_cast<size_t>(r)];
    }
  }
  return viol;
}

}  // namespace reds
