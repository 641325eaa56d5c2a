// Hyperbox B = prod_j [lo_j, hi_j]: the rule form scenarios take
// ("IF a_j in [lo_j, hi_j] for all j THEN y = 1"). Unbounded sides are
// +/- infinity.
#ifndef REDS_CORE_BOX_H_
#define REDS_CORE_BOX_H_

#include <string>
#include <vector>

#include "core/dataset.h"

namespace reds {

/// Axis-aligned hyperbox over the input space.
class Box {
 public:
  Box() = default;

  /// Box with all dimensions unrestricted.
  static Box Unbounded(int dim);

  int dim() const { return static_cast<int>(lo_.size()); }

  double lo(int j) const { return lo_[static_cast<size_t>(j)]; }
  double hi(int j) const { return hi_[static_cast<size_t>(j)]; }
  void set_lo(int j, double v) { lo_[static_cast<size_t>(j)] = v; }
  void set_hi(int j, double v) { hi_[static_cast<size_t>(j)] = v; }

  /// True iff dimension j has a finite bound on either side.
  bool IsRestricted(int j) const;

  /// Number of restricted dimensions (the paper's #restricted; low values
  /// mean high interpretability).
  int NumRestricted() const;

  /// True iff the point (dim() doubles) satisfies lo_j <= x_j <= hi_j for
  /// every j.
  bool Contains(const double* x) const;

  /// Volume after clamping infinite sides to [domain_lo, domain_hi] per
  /// dimension (the paper's convention for consistency). Empty boxes give 0.
  double ClampedVolume(const std::vector<double>& domain_lo,
                       const std::vector<double>& domain_hi) const;

  /// Intersection (may be empty: some lo > hi).
  Box Intersect(const Box& other) const;

  /// Expands this subset-space box back to `full_dim` dimensions: dimension
  /// columns[j] of the result takes this box's bounds for j, all other
  /// dimensions are unrestricted. Used by PRIM-with-bumping's random feature
  /// subsets.
  Box LiftToFullSpace(int full_dim, const std::vector<int>& columns) const;

  /// Rule rendering, e.g. "0.12 <= a1 <= 0.74 AND a3 <= 0.5".
  /// Unrestricted dimensions are omitted; an empty rule prints "(any)".
  std::string ToString(const std::vector<std::string>& names = {}) const;

  bool operator==(const Box& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_;
  }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

/// Fractional-capable subgroup statistics: n = #points in the box,
/// n_pos = sum of their targets.
struct BoxStats {
  double n = 0.0;
  double n_pos = 0.0;
};

/// Counts points of d inside the box (box.dim() must equal d.num_cols()).
BoxStats ComputeBoxStats(const Dataset& d, const Box& box);

/// ComputeBoxStats(d, boxes[i]) for every i, bit for bit. A box inside its
/// predecessor (a peeling trajectory) is scored from the rows inside the
/// predecessor, filtered on the bounds that changed; any other box (the
/// first, or a pasted box that widened a bound) rescans all rows. Sums run
/// over the kept rows in row order, ComputeBoxStats' order, so fractional
/// labels add up identically.
std::vector<BoxStats> ComputeBoxStatsSequence(const Dataset& d,
                                              const std::vector<Box>& boxes);

}  // namespace reds

#endif  // REDS_CORE_BOX_H_
