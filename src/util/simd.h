// Runtime CPU-feature dispatch for the SIMD hot kernels. The library is
// compiled for a baseline x86-64 target; translation units holding AVX2
// bodies are compiled with -mavx2 only (guarded by REDS_HAVE_AVX2 from
// CMake), and every dispatched kernel consults ActiveSimdLevel() per call
// -- a cached relaxed atomic load plus branch, cheap next to any kernel
// invocation -- so tests can pin either path via ForceSimdLevel and the
// REDS_SIMD=off/scalar environment override works without re-linking.
// Dispatched kernels are REQUIRED to be bit-identical to their scalar
// reference implementations on every input; anything order-sensitive
// (double summation) must keep its accumulation order.
#ifndef REDS_UTIL_SIMD_H_
#define REDS_UTIL_SIMD_H_

#include <cstddef>

namespace reds::util {

/// Instruction-set tiers the dispatched kernels can run at. Values are
/// stable (exported as the engine.build.simd gauge and in bench JSON).
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// The tier dispatched kernels use for this process. Resolved once on
/// first use: REDS_SIMD=off|scalar forces kScalar; otherwise the highest
/// tier both compiled in (REDS_HAVE_AVX2) and supported by the CPU.
SimdLevel ActiveSimdLevel();

/// "scalar" or "avx2".
const char* SimdLevelName(SimdLevel level);

/// Test hook: pins the active level, clamped to what the build and CPU
/// actually support (asking for kAvx2 on a non-AVX2 host leaves kScalar).
/// Returns the level actually in effect.
SimdLevel ForceSimdLevel(SimdLevel level);

/// True when the binary carries AVX2 kernel bodies and the CPU can run
/// them, regardless of the REDS_SIMD override.
bool Avx2Available();

/// Number of i in [0, n) with (strict ? col[ids[i]] < bound
///                                    : col[ids[i]] <= bound) && mask[ids[i]].
/// The boundary-bin scan of PRIM's peel state: ids is a value-sorted
/// permutation segment and mask the in-box bitmask, so a full-segment masked
/// count equals the early-break scalar walk. Counts are integers, so the
/// dispatched path is exact by construction. The AVX2 body gathers mask
/// bytes 4 at a time with 32-bit loads: `mask` must stay readable for 3
/// bytes past the largest id (callers pad their bitmask allocation).
int MaskedCountBelow(const double* col, const unsigned char* mask,
                     const int* ids, int n, double bound, bool strict);
int MaskedCountBelowReference(const double* col, const unsigned char* mask,
                              const int* ids, int n, double bound,
                              bool strict);

/// Sum of y[ids[i]] over the first `count` i in [0, n) with mask[ids[i]]
/// set, scanning i ascending; ids must hold at least `count` masked rows.
/// The AVX2 path reorders the additions (vector accumulators), so it is only
/// invoked by callers whose y values are integer-valued doubles (PRIM's
/// hard {0,1} relabels), where any association below 2^53 is exact. Same
/// 3-byte mask padding requirement as MaskedCountBelow.
double MaskedPrefixSum(const double* y, const unsigned char* mask,
                       const int* ids, int n, int count);
double MaskedPrefixSumReference(const double* y, const unsigned char* mask,
                                const int* ids, int n, int count);

/// Allocates an n-double buffer, 2 MiB-aligned and advised onto
/// transparent huge pages when the size warrants it (a random-index walk
/// over a multi-megabyte buffer otherwise pays an STLB lookup per access).
/// Returns nullptr only when the underlying allocation fails.
double* AllocPackedDoubles(size_t n);
void FreePackedDoubles(double* p);

/// RAII wrapper for AllocPackedDoubles; used for packed gradient pairs.
class PackedDoubleBuffer {
 public:
  PackedDoubleBuffer() = default;
  ~PackedDoubleBuffer() { FreePackedDoubles(data_); }
  PackedDoubleBuffer(const PackedDoubleBuffer&) = delete;
  PackedDoubleBuffer& operator=(const PackedDoubleBuffer&) = delete;
  PackedDoubleBuffer(PackedDoubleBuffer&& o) noexcept
      : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  PackedDoubleBuffer& operator=(PackedDoubleBuffer&& o) noexcept {
    if (this != &o) {
      FreePackedDoubles(data_);
      data_ = o.data_;
      size_ = o.size_;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }

  /// Ensures capacity for n doubles (geometric growth, contents dropped).
  void Resize(size_t n);

  double* data() { return data_; }
  const double* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  double* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace reds::util

#endif  // REDS_UTIL_SIMD_H_
