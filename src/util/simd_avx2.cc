// AVX2 bodies for util::MaskedCountBelow and util::MaskedPrefixSum.
// Compiled with -mavx2 (see CMakeLists); never referenced unless
// ActiveSimdLevel() == kAvx2.
//
// The vector accumulation of MaskedPrefixSum reassociates the sum, so that
// path is only legal for integer-valued doubles (see the contract in
// simd.h): any association of integer addends below 2^53 yields the same
// exact value, which keeps the result bit-identical to the sequential
// reference.
#include "util/simd.h"

#if defined(REDS_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace reds::util {

namespace {

// Gathers 4 in-box mask bytes as a 4-lane 0/-1 predicate. The 32-bit
// scale-1 gathers read 3 bytes past each mask[id], covered by the callers'
// padded allocations (see the contract in simd.h).
inline __m128i GatherMaskNonZero(const unsigned char* mask, __m128i ids) {
  // The masked-gather form with an explicit zero source: equivalent to the
  // plain gather here (all lanes on), but avoids GCC's uninitialized
  // pass-through operand warning.
  __m128i bytes = _mm_mask_i32gather_epi32(
      _mm_setzero_si128(), reinterpret_cast<const int*>(mask), ids,
      _mm_set1_epi32(-1), 1);
  bytes = _mm_and_si128(bytes, _mm_set1_epi32(0xFF));
  return _mm_cmpgt_epi32(bytes, _mm_setzero_si128());
}

}  // namespace

// Exact on every input: the result is an integer count, and each lane's
// predicate is evaluated exactly as the scalar reference evaluates it.
int MaskedCountBelowAvx2(const double* col, const unsigned char* mask,
                         const int* ids, int n, double bound, bool strict) {
  const __m256d vbound = _mm256_set1_pd(bound);
  int count = 0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i id =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    const __m256d vals = _mm256_i32gather_pd(col, id, 8);
    const __m256d below = strict ? _mm256_cmp_pd(vals, vbound, _CMP_LT_OQ)
                                 : _mm256_cmp_pd(vals, vbound, _CMP_LE_OQ);
    const int below_bits = _mm256_movemask_pd(below);
    const int mask_bits =
        _mm_movemask_ps(_mm_castsi128_ps(GatherMaskNonZero(mask, id)));
    count += __builtin_popcount(below_bits & mask_bits & 0xF);
  }
  for (; i < n; ++i) {
    const int r = ids[i];
    const bool below = strict ? col[r] < bound : col[r] <= bound;
    if (below && mask[r] != 0) ++count;
  }
  return count;
}

// Reorders the additions (vector accumulators), legal only for
// integer-valued y (see the MaskedPrefixSum contract in simd.h). Vector
// groups stop as soon as the next 4 masked rows might overshoot `count`;
// the scalar tail takes the rest one row at a time.
double MaskedPrefixSumAvx2(const double* y, const unsigned char* mask,
                           const int* ids, int n, int count) {
  __m256d acc = _mm256_setzero_pd();
  int taken = 0;
  int i = 0;
  for (; i + 4 <= n && taken + 4 <= count; i += 4) {
    const __m128i id =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    const __m128i keep32 = GatherMaskNonZero(mask, id);
    const __m256d keep =
        _mm256_castsi256_pd(_mm256_cvtepi32_epi64(keep32));
    acc = _mm256_add_pd(
        acc, _mm256_mask_i32gather_pd(_mm256_setzero_pd(), y, id, keep, 8));
    taken += __builtin_popcount(
        _mm_movemask_ps(_mm_castsi128_ps(keep32)) & 0xF);
  }
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(_mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2)));
  for (; i < n && taken < count; ++i) {
    const int r = ids[i];
    if (mask[r] == 0) continue;
    sum += y[r];
    ++taken;
  }
  return sum;
}

}  // namespace reds::util

#endif  // REDS_HAVE_AVX2 && __AVX2__
