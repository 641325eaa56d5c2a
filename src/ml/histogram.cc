#include "ml/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

namespace reds::ml {

const char* SplitBackendName(SplitBackend backend) {
  switch (backend) {
    case SplitBackend::kExact:
      return "exact";
    case SplitBackend::kPresorted:
      return "presorted";
    case SplitBackend::kHistogram:
      return "histogram";
  }
  return "?";
}

namespace {

// Scalar kernels: the 4-row unrolled gathers (formerly inline in the
// header). All loads of an unrolled group are issued before any bin is
// bumped so the dependent load chains pipeline; bumps stay in row order
// for bit-identity with the plain reference loop.

void AccumulateHistogramScalar(const uint8_t* codes, const int* ids, int n,
                               const double* g, HistBin* bins) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const int id0 = ids[i], id1 = ids[i + 1], id2 = ids[i + 2],
              id3 = ids[i + 3];
    const uint8_t c0 = codes[id0], c1 = codes[id1], c2 = codes[id2],
                  c3 = codes[id3];
    const double g0 = g[id0], g1 = g[id1], g2 = g[id2], g3 = g[id3];
    bins[c0].g += g0;
    ++bins[c0].count;
    bins[c1].g += g1;
    ++bins[c1].count;
    bins[c2].g += g2;
    ++bins[c2].count;
    bins[c3].g += g3;
    ++bins[c3].count;
  }
  for (; i < n; ++i) {
    const int id = ids[i];
    HistBin& bin = bins[codes[id]];
    bin.g += g[id];
    ++bin.count;
  }
}

void AccumulateHistogramScalar(const uint8_t* codes, const int* ids, int n,
                               const double* g, const double* h,
                               HistBin* bins) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const int id0 = ids[i], id1 = ids[i + 1], id2 = ids[i + 2],
              id3 = ids[i + 3];
    const uint8_t c0 = codes[id0], c1 = codes[id1], c2 = codes[id2],
                  c3 = codes[id3];
    const double g0 = g[id0], g1 = g[id1], g2 = g[id2], g3 = g[id3];
    const double h0 = h[id0], h1 = h[id1], h2 = h[id2], h3 = h[id3];
    bins[c0].g += g0;
    bins[c0].h += h0;
    ++bins[c0].count;
    bins[c1].g += g1;
    bins[c1].h += h1;
    ++bins[c1].count;
    bins[c2].g += g2;
    bins[c2].h += h2;
    ++bins[c2].count;
    bins[c3].g += g3;
    bins[c3].h += h3;
    ++bins[c3].count;
  }
  for (; i < n; ++i) {
    const int id = ids[i];
    HistBin& bin = bins[codes[id]];
    bin.g += g[id];
    bin.h += h[id];
    ++bin.count;
  }
}

void AccumulateHistogramPairsScalar(const uint8_t* codes, const int* ids,
                                    int n, const double* gh, HistBin* bins) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const int id0 = ids[i], id1 = ids[i + 1], id2 = ids[i + 2],
              id3 = ids[i + 3];
    const uint8_t c0 = codes[id0], c1 = codes[id1], c2 = codes[id2],
                  c3 = codes[id3];
    const double g0 = gh[2 * id0], h0 = gh[2 * id0 + 1];
    const double g1 = gh[2 * id1], h1 = gh[2 * id1 + 1];
    const double g2 = gh[2 * id2], h2 = gh[2 * id2 + 1];
    const double g3 = gh[2 * id3], h3 = gh[2 * id3 + 1];
    bins[c0].g += g0;
    bins[c0].h += h0;
    ++bins[c0].count;
    bins[c1].g += g1;
    bins[c1].h += h1;
    ++bins[c1].count;
    bins[c2].g += g2;
    bins[c2].h += h2;
    ++bins[c2].count;
    bins[c3].g += g3;
    bins[c3].h += h3;
    ++bins[c3].count;
  }
  for (; i < n; ++i) {
    const int id = ids[i];
    HistBin& bin = bins[codes[id]];
    bin.g += gh[2 * id];
    bin.h += gh[2 * id + 1];
    ++bin.count;
  }
}

void AccumulateHistogramQ16Scalar(const uint8_t* codes, const int* ids, int n,
                                  const int16_t* gh16, HistBinQ16* bins) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const int id0 = ids[i], id1 = ids[i + 1], id2 = ids[i + 2],
              id3 = ids[i + 3];
    const uint8_t c0 = codes[id0], c1 = codes[id1], c2 = codes[id2],
                  c3 = codes[id3];
    const int16_t g0 = gh16[2 * id0], h0 = gh16[2 * id0 + 1];
    const int16_t g1 = gh16[2 * id1], h1 = gh16[2 * id1 + 1];
    const int16_t g2 = gh16[2 * id2], h2 = gh16[2 * id2 + 1];
    const int16_t g3 = gh16[2 * id3], h3 = gh16[2 * id3 + 1];
    bins[c0].g += g0;
    bins[c0].h += h0;
    ++bins[c0].count;
    bins[c1].g += g1;
    bins[c1].h += h1;
    ++bins[c1].count;
    bins[c2].g += g2;
    bins[c2].h += h2;
    ++bins[c2].count;
    bins[c3].g += g3;
    bins[c3].h += h3;
    ++bins[c3].count;
  }
  for (; i < n; ++i) {
    const int id = ids[i];
    HistBinQ16& bin = bins[codes[id]];
    bin.g += gh16[2 * id];
    bin.h += gh16[2 * id + 1];
    ++bin.count;
  }
}

}  // namespace

#if defined(REDS_HAVE_AVX2)
// AVX2 bodies, compiled with -mavx2 in histogram_avx2.cc.
void AccumulateHistogramAvx2(const uint8_t* codes, const int* ids, int n,
                             const double* g, HistBin* bins);
void AccumulateHistogramAvx2(const uint8_t* codes, const int* ids, int n,
                             const double* g, const double* h, HistBin* bins);
void AccumulateHistogramPairsAvx2(const uint8_t* codes, const int* ids, int n,
                                  const double* gh, HistBin* bins);
void AccumulateHistogramQ16Avx2(const uint8_t* codes, const int* ids, int n,
                                const int16_t* gh16, HistBinQ16* bins);
#endif

void AccumulateHistogram(const uint8_t* codes, const int* ids, int n,
                         const double* g, HistBin* bins) {
#if defined(REDS_HAVE_AVX2)
  if (util::ActiveSimdLevel() == util::SimdLevel::kAvx2) {
    AccumulateHistogramAvx2(codes, ids, n, g, bins);
    return;
  }
#endif
  AccumulateHistogramScalar(codes, ids, n, g, bins);
}

void AccumulateHistogram(const uint8_t* codes, const int* ids, int n,
                         const double* g, const double* h, HistBin* bins) {
#if defined(REDS_HAVE_AVX2)
  if (util::ActiveSimdLevel() == util::SimdLevel::kAvx2) {
    AccumulateHistogramAvx2(codes, ids, n, g, h, bins);
    return;
  }
#endif
  AccumulateHistogramScalar(codes, ids, n, g, h, bins);
}

void AccumulateHistogramPairs(const uint8_t* codes, const int* ids, int n,
                              const double* gh, HistBin* bins) {
#if defined(REDS_HAVE_AVX2)
  if (util::ActiveSimdLevel() == util::SimdLevel::kAvx2) {
    AccumulateHistogramPairsAvx2(codes, ids, n, gh, bins);
    return;
  }
#endif
  AccumulateHistogramPairsScalar(codes, ids, n, gh, bins);
}

void AccumulateHistogramQ16(const uint8_t* codes, const int* ids, int n,
                            const int16_t* gh16, HistBinQ16* bins) {
#if defined(REDS_HAVE_AVX2)
  if (util::ActiveSimdLevel() == util::SimdLevel::kAvx2) {
    AccumulateHistogramQ16Avx2(codes, ids, n, gh16, bins);
    return;
  }
#endif
  AccumulateHistogramQ16Scalar(codes, ids, n, gh16, bins);
}

void PackGradientPairs(const double* g, const double* h, int n,
                       util::PackedDoubleBuffer* out) {
  out->Resize(static_cast<size_t>(n) * 2);
  double* gh = out->data();
  for (int i = 0; i < n; ++i) {
    gh[2 * i] = g[i];
    gh[2 * i + 1] = h[i];
  }
}

double QuantizeGradientPairs(const double* g, const double* h, int n,
                             int16_t* gh16) {
  double max_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    max_abs = std::max(max_abs, std::abs(g[i]));
    max_abs = std::max(max_abs, std::abs(h[i]));
  }
  const double scale = max_abs > 0.0 ? max_abs / 32767.0 : 1.0;
  const double inv = 1.0 / scale;
  for (int i = 0; i < n; ++i) {
    gh16[2 * i] = static_cast<int16_t>(std::lrint(g[i] * inv));
    gh16[2 * i + 1] = static_cast<int16_t>(std::lrint(h[i] * inv));
  }
  return scale;
}

void AccumulateHistogramQ16Reference(const uint8_t* codes, const int* ids,
                                     int n, const int16_t* gh16,
                                     HistBinQ16* bins) {
  for (int i = 0; i < n; ++i) {
    const int id = ids[i];
    HistBinQ16& bin = bins[codes[id]];
    bin.g += gh16[2 * id];
    bin.h += gh16[2 * id + 1];
    ++bin.count;
  }
}

void AccumulateHistogramReference(const uint8_t* codes, const int* ids, int n,
                                  const double* g, HistBin* bins) {
  for (int i = 0; i < n; ++i) {
    const int id = ids[i];
    HistBin& bin = bins[codes[id]];
    bin.g += g[id];
    ++bin.count;
  }
}

void AccumulateHistogramReference(const uint8_t* codes, const int* ids, int n,
                                  const double* g, const double* h,
                                  HistBin* bins) {
  for (int i = 0; i < n; ++i) {
    const int id = ids[i];
    HistBin& bin = bins[codes[id]];
    bin.g += g[id];
    bin.h += h[id];
    ++bin.count;
  }
}

void SubtractHistogram(const HistBin* parent, const HistBin* child,
                       HistBin* out, int num_bins) {
  for (int b = 0; b < num_bins; ++b) {
    out[b].g = parent[b].g - child[b].g;
    out[b].h = parent[b].h - child[b].h;
    out[b].count = parent[b].count - child[b].count;
  }
}

std::vector<HistBin> HistogramPool::Acquire() {
  if (free_.empty()) return std::vector<HistBin>(buffer_size_);
  std::vector<HistBin> buffer = std::move(free_.back());
  free_.pop_back();
  return buffer;
}

void HistogramPool::Release(std::vector<HistBin> buffer) {
  free_.push_back(std::move(buffer));
}

}  // namespace reds::ml
