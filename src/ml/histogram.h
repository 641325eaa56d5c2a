// Histogram split search support for the tree learners (feature binning a
// la LightGBM). A node's per-feature histogram accumulates gradient (or
// target) sums and counts per BinnedIndex bin with one contiguous uint8_t
// scan; split candidates are then evaluated between consecutive non-empty
// bins in O(bins) instead of O(n) exact values (the scans live with their
// learners, in cart.cc and gbt.cc), and one child per split is derived by
// parent-minus-sibling subtraction instead of a rescan. The SplitBackend
// enum selects between the reference sort-per-node search, the
// presorted-order search, and this histogram search in every tree config.
// Every backend grows trees depth-wise.
#ifndef REDS_ML_HISTOGRAM_H_
#define REDS_ML_HISTOGRAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/binned_index.h"
#include "util/simd.h"

namespace reds::ml {

/// Which split-search kernel a tree learner runs.
///   kExact:     sort-per-node reference (the seed implementation).
///   kPresorted: per-feature sorted orders partitioned down the tree.
///   kHistogram: binned gradient histograms over a BinnedIndex.
/// Exact and presorted produce bit-identical trees. Histogram trees
/// evaluate the same candidate set with the same thresholds whenever every
/// feature has at most BinnedIndex::kMaxBins distinct values -- and are
/// then bit-identical for {0,1} targets (integer-exact sums) or for
/// all-distinct values (one row per bin); fractional targets with ties may
/// differ in final ulps because bin sums accumulate in row order rather
/// than value order. Beyond the bin budget the histogram backend is a
/// bounded-quality approximation.
enum class SplitBackend { kExact, kPresorted, kHistogram };

/// Returns "exact"/"presorted"/"histogram".
const char* SplitBackendName(SplitBackend backend);

/// One histogram bin: gradient-like and hessian-like sums plus a count.
/// CART uses g = sum of targets (h unused); GBT uses g/h = gradient and
/// hessian sums.
struct HistBin {
  double g = 0.0;
  double h = 0.0;
  int count = 0;
};

/// Accumulates the g-sums and counts of `ids` (positions or row ids,
/// whatever `codes`/`g` are indexed by) into `bins`. Dispatched on
/// util::ActiveSimdLevel(): the scalar path is the 4-row unrolled gather
/// (all loads issued before any bin is bumped so rows pipeline); the AVX2
/// path adds software prefetch of the gradient and code streams. Bin bumps
/// always stay in row order, so every path is bit-identical to
/// AccumulateHistogramReference. Rows sharing a bin within one unrolled
/// group are handled correctly: each bump is a separate load-modify-store
/// in program order.
void AccumulateHistogram(const uint8_t* codes, const int* ids, int n,
                         const double* g, HistBin* bins);

/// As above with hessian sums (the GBT variant). The AVX2 path fuses each
/// bin's g/h update into one 128-bit add (independent lanes, so still
/// bit-identical) and prefetches both gradient streams.
void AccumulateHistogram(const uint8_t* codes, const int* ids, int n,
                         const double* g, const double* h, HistBin* bins);

/// The g+h variant on a packed pair layout: gh[2*id] = g, gh[2*id+1] = h.
/// One random cache line per row instead of two, which is what lets the
/// AVX2 path clear 2x over the scalar reference at node sizes that spill
/// L1/L2 -- the hot GBT path packs once per boosting round (see
/// PackGradientPairs) and runs every node/feature accumulation on the
/// pairs. Bit-identical to AccumulateHistogramReference on the unpacked
/// arrays.
void AccumulateHistogramPairs(const uint8_t* codes, const int* ids, int n,
                              const double* gh, HistBin* bins);

/// Interleaves g/h into `out` (resized to 2n doubles; hugepage-advised when
/// large, see util::PackedDoubleBuffer). The pack is O(n) sequential and is
/// amortized over the depth x features accumulation passes of one round.
void PackGradientPairs(const double* g, const double* h, int n,
                       util::PackedDoubleBuffer* out);

/// Quantized-gradient histogram bin: int64 sums of int16-quantized g/h.
/// int64 because int32 overflows at realistic node sizes (1e5 rows x 32767
/// quantized magnitude ~ 3.3e9 > 2^31). Integer sums are associative, so
/// every dispatch path of the Q16 kernel produces exactly equal bins.
struct HistBinQ16 {
  int64_t g = 0;
  int64_t h = 0;
  int32_t count = 0;
};

/// Quantizes g/h to int16 pairs packed as gh16[2*i] = q(g[i]),
/// gh16[2*i+1] = q(h[i]) with one shared symmetric scale per array:
/// q(v) = round(v / scale), scale = max(|g|,|h|) / 32767 (1.0 when the
/// inputs are all zero). Returns the scale; dequantize sums as
/// bin.g * scale. 4 bytes per row makes the random gradient stream 4x
/// denser per cache line than the double pair layout.
double QuantizeGradientPairs(const double* g, const double* h, int n,
                             int16_t* gh16);

/// Accumulates quantized pair sums + counts per bin, dispatched like the
/// double kernels. Exactly equal (not just bit-close) to the reference on
/// every path: integer addition is associative.
void AccumulateHistogramQ16(const uint8_t* codes, const int* ids, int n,
                            const int16_t* gh16, HistBinQ16* bins);
void AccumulateHistogramQ16Reference(const uint8_t* codes, const int* ids,
                                     int n, const int16_t* gh16,
                                     HistBinQ16* bins);

/// The plain scalar loops, kept as the equivalence/benchmark reference for
/// the unrolled kernels above (tests assert bit-identical bins;
/// bench_perf_kernels reports the measured speedup).
void AccumulateHistogramReference(const uint8_t* codes, const int* ids, int n,
                                  const double* g, HistBin* bins);
void AccumulateHistogramReference(const uint8_t* codes, const int* ids, int n,
                                  const double* g, const double* h,
                                  HistBin* bins);

/// out[b] = parent[b] - child[b]. `out` may alias `parent` (the common
/// in-place use: the parent's buffer becomes the larger child's).
void SubtractHistogram(const HistBin* parent, const HistBin* child,
                       HistBin* out, int num_bins);

/// Reusable node-histogram buffers for the parent-minus-sibling recursion:
/// at any moment one buffer per level of the active root-to-node path is
/// live, so buffers are recycled through a free list instead of allocated
/// per node. All buffers share one size (features x max_bins).
class HistogramPool {
 public:
  explicit HistogramPool(size_t buffer_size) : buffer_size_(buffer_size) {}

  /// A buffer of buffer_size() bins with unspecified contents: callers
  /// zero exactly the per-feature slots they accumulate into (each
  /// feature's live prefix is its num_bins, not the uniform stride), so
  /// sparse candidate sets don't pay a full-buffer clear.
  std::vector<HistBin> Acquire();

  /// Returns a buffer to the free list (contents irrelevant).
  void Release(std::vector<HistBin> buffer);

  size_t buffer_size() const { return buffer_size_; }

 private:
  size_t buffer_size_;
  std::vector<std::vector<HistBin>> free_;
};

}  // namespace reds::ml

#endif  // REDS_ML_HISTOGRAM_H_
