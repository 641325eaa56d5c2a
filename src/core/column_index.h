// ColumnIndex: column-major copies of a dataset's input matrix plus one
// sorted permutation per column, computed once and shared (via shared_ptr)
// by every kernel that scans columns -- PRIM peeling, BestInterval, and the
// presorted CART/GBT split search. Building costs O(M N log N); afterwards
// rank selection, prefix counting, and ordered scans over any column are
// cache-friendly and sort-free.
#ifndef REDS_CORE_COLUMN_INDEX_H_
#define REDS_CORE_COLUMN_INDEX_H_

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "core/box.h"
#include "core/dataset.h"

namespace reds {

/// Immutable columnar view of a dataset's inputs. Thread-safe to share.
class ColumnIndex {
 public:
  /// Builds the columnar copy and per-column sorted permutations of d's
  /// input matrix (targets are not indexed: datasets differing only in y
  /// share an index).
  static std::shared_ptr<const ColumnIndex> Build(const Dataset& d);

  /// The index Build(d.SubsetRows(rows).SelectColumns(columns)) would
  /// return, where `parent` indexes d, derived without sorting: each child
  /// column's order is read off the parent's permutation, so a bootstrap
  /// replicate (rows may repeat or skip parent rows) costs O(m (N + n))
  /// for m columns, n rows and a parent of N rows. `rows` holds parent
  /// row ids, `columns` parent column ids. As with Build, the order of NaN
  /// values is unspecified.
  static std::shared_ptr<const ColumnIndex> Resample(
      const ColumnIndex& parent, const std::vector<int>& rows,
      const std::vector<int>& columns);

  int num_rows() const { return num_rows_; }
  int num_cols() const { return num_cols_; }

  /// Column j as a contiguous array of num_rows() values.
  const std::vector<double>& column(int j) const {
    assert(j >= 0 && j < num_cols_);
    return columns_[static_cast<size_t>(j)];
  }

  /// Row ids sorted ascending by column j's value; ties are ordered by row
  /// id, so the permutation is unique and deterministic.
  const std::vector<int>& sorted_rows(int j) const {
    assert(j >= 0 && j < num_cols_);
    return sorted_[static_cast<size_t>(j)];
  }

  /// Value of the rank-th smallest entry of column j (rank in [0, N)).
  double ValueAtRank(int j, int rank) const {
    const std::vector<int>& s = sorted_rows(j);
    assert(rank >= 0 && rank < static_cast<int>(s.size()));
    return columns_[static_cast<size_t>(j)][static_cast<size_t>(
        s[static_cast<size_t>(rank)])];
  }

  /// First rank whose value is >= v (the number of entries < v).
  int LowerBoundRank(int j, double v) const;

  /// First rank whose value is > v (the number of entries <= v).
  int UpperBoundRank(int j, double v) const;

 private:
  ColumnIndex() = default;

  int num_rows_ = 0;
  int num_cols_ = 0;
  std::vector<std::vector<double>> columns_;  // [col][row]
  std::vector<std::vector<int>> sorted_;      // [col][rank] -> row
};

/// First rank in `sorted_rows` (rows ascending by their `column` value)
/// whose value is >= v — the number of entries < v. Shared by the
/// full-index queries and PRIM's shrinking in-box views, so the boundary
/// semantics the equivalence proofs rely on live in one place.
int LowerBoundRank(const std::vector<int>& sorted_rows,
                   const std::vector<double>& column, double v);

/// First rank whose value is > v — the number of entries <= v.
int UpperBoundRank(const std::vector<int>& sorted_rows,
                   const std::vector<double>& column, double v);

/// Per-row count of box bounds the row violates: 0 = inside, 1 = outside
/// through exactly one bound. PRIM pasting and BestInterval use it to
/// enumerate "inside when one dimension is ignored" points in O(points
/// beyond that dimension's bounds) instead of an O(M) test per point.
std::vector<int> CountBoundViolations(const ColumnIndex& index, const Box& box);

/// Supplies a (possibly cached) ColumnIndex for a dataset. The discovery
/// engine installs one backed by its fingerprint-keyed cache so a batch of
/// method variants over the same data indexes it once; when empty, kernels
/// build a private index.
using ColumnIndexProvider =
    std::function<std::shared_ptr<const ColumnIndex>(const Dataset&)>;

}  // namespace reds

#endif  // REDS_CORE_COLUMN_INDEX_H_
