#include "core/box.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

namespace reds {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Box Box::Unbounded(int dim) {
  Box b;
  b.lo_.assign(static_cast<size_t>(dim), -kInf);
  b.hi_.assign(static_cast<size_t>(dim), kInf);
  return b;
}

bool Box::IsRestricted(int j) const {
  return lo_[static_cast<size_t>(j)] != -kInf ||
         hi_[static_cast<size_t>(j)] != kInf;
}

int Box::NumRestricted() const {
  int count = 0;
  for (int j = 0; j < dim(); ++j) count += IsRestricted(j) ? 1 : 0;
  return count;
}

bool Box::Contains(const double* x) const {
  for (int j = 0; j < dim(); ++j) {
    if (x[j] < lo_[static_cast<size_t>(j)] || x[j] > hi_[static_cast<size_t>(j)]) {
      return false;
    }
  }
  return true;
}

double Box::ClampedVolume(const std::vector<double>& domain_lo,
                          const std::vector<double>& domain_hi) const {
  assert(static_cast<int>(domain_lo.size()) == dim());
  assert(static_cast<int>(domain_hi.size()) == dim());
  double vol = 1.0;
  for (int j = 0; j < dim(); ++j) {
    const double lo = std::max(lo_[static_cast<size_t>(j)], domain_lo[static_cast<size_t>(j)]);
    const double hi = std::min(hi_[static_cast<size_t>(j)], domain_hi[static_cast<size_t>(j)]);
    if (hi <= lo) return 0.0;
    vol *= hi - lo;
  }
  return vol;
}

Box Box::Intersect(const Box& other) const {
  assert(dim() == other.dim());
  Box out = *this;
  for (int j = 0; j < dim(); ++j) {
    out.set_lo(j, std::max(lo(j), other.lo(j)));
    out.set_hi(j, std::min(hi(j), other.hi(j)));
  }
  return out;
}

Box Box::LiftToFullSpace(int full_dim, const std::vector<int>& columns) const {
  assert(static_cast<int>(columns.size()) == dim());
  Box out = Unbounded(full_dim);
  for (int j = 0; j < dim(); ++j) {
    out.set_lo(columns[static_cast<size_t>(j)], lo(j));
    out.set_hi(columns[static_cast<size_t>(j)], hi(j));
  }
  return out;
}

std::string Box::ToString(const std::vector<std::string>& names) const {
  std::ostringstream out;
  bool first = true;
  for (int j = 0; j < dim(); ++j) {
    if (!IsRestricted(j)) continue;
    if (!first) out << " AND ";
    first = false;
    const std::string name = static_cast<size_t>(j) < names.size()
                                 ? names[static_cast<size_t>(j)]
                                 : "a" + std::to_string(j + 1);
    const double l = lo(j);
    const double h = hi(j);
    if (l != -kInf && h != kInf) {
      out << l << " <= " << name << " <= " << h;
    } else if (l != -kInf) {
      out << name << " >= " << l;
    } else {
      out << name << " <= " << h;
    }
  }
  if (first) return "(any)";
  return out.str();
}

BoxStats ComputeBoxStats(const Dataset& d, const Box& box) {
  assert(box.dim() == d.num_cols());
  BoxStats stats;
  for (int r = 0; r < d.num_rows(); ++r) {
    if (box.Contains(d.row(r))) {
      stats.n += 1.0;
      stats.n_pos += d.y(r);
    }
  }
  return stats;
}

std::vector<BoxStats> ComputeBoxStatsSequence(const Dataset& d,
                                              const std::vector<Box>& boxes) {
  std::vector<BoxStats> out;
  out.reserve(boxes.size());
  const Box* prev = nullptr;
  std::vector<int> rows;  // rows of d inside *prev, ascending
  for (const Box& box : boxes) {
    assert(box.dim() == d.num_cols());
    bool nested = prev != nullptr;
    for (int j = 0; j < box.dim() && nested; ++j) {
      nested = box.lo(j) >= prev->lo(j) && box.hi(j) <= prev->hi(j);
    }
    if (!nested) {
      rows.resize(static_cast<size_t>(d.num_rows()));
      std::iota(rows.begin(), rows.end(), 0);
    }
    for (int j = 0; j < box.dim(); ++j) {
      const double lo = box.lo(j);
      const double hi = box.hi(j);
      if (nested && lo == prev->lo(j) && hi == prev->hi(j)) continue;
      if (lo == -kInf && hi == kInf) continue;
      size_t kept = 0;
      for (int r : rows) {
        const double x = d.x(r, j);
        if (!(x < lo || x > hi)) rows[kept++] = r;
      }
      rows.resize(kept);
    }
    BoxStats stats;
    for (int r : rows) {
      stats.n += 1.0;
      stats.n_pos += d.y(r);
    }
    out.push_back(stats);
    prev = &box;
  }
  return out;
}

}  // namespace reds
