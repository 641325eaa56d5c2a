// Greenwald-Khanna sketch guarantees: rank error stays within eps * n on
// adversarial input orders and distributions, merging per-chunk sketches
// preserves the bound, the summary stays sub-linear, extremes are exact,
// and everything is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <limits>
#include <memory>
#include <vector>

#include "core/binned_index.h"
#include "core/quantile_sketch.h"
#include "core/quantile_sketch_reference.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace reds {
namespace {

// Rank error of a sketch answer: distance from the query rank to the true
// rank interval [#less, #lessEq] of the returned value.
int64_t RankError(const std::vector<double>& sorted_data, double answer,
                  int64_t rank) {
  const int64_t lo = std::lower_bound(sorted_data.begin(), sorted_data.end(),
                                      answer) -
                     sorted_data.begin();
  const int64_t hi = std::upper_bound(sorted_data.begin(), sorted_data.end(),
                                      answer) -
                     sorted_data.begin() - 1;
  if (rank < lo) return lo - rank;
  if (rank > hi) return rank - hi;
  return 0;
}

void ExpectWithinBound(const QuantileSketch& sketch, std::vector<double> data,
                       const char* label) {
  std::sort(data.begin(), data.end());
  const int64_t n = static_cast<int64_t>(data.size());
  ASSERT_EQ(sketch.count(), n) << label;
  const double allowed = sketch.eps() * static_cast<double>(n) + 1.0;
  for (int64_t step = 0; step <= 64; ++step) {
    const int64_t rank = step * (n - 1) / 64;
    const double answer = sketch.QueryRank(rank);
    EXPECT_LE(static_cast<double>(RankError(data, answer, rank)), allowed)
        << label << " rank " << rank;
  }
  // Extremes are exact.
  EXPECT_EQ(sketch.QueryRank(0), data.front()) << label;
  EXPECT_EQ(sketch.QueryRank(n - 1), data.back()) << label;
}

std::vector<double> AdversarialStream(int kind, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double v = 0.0;
    switch (kind) {
      case 0:  // sorted ascending
        v = static_cast<double>(i);
        break;
      case 1:  // sorted descending
        v = static_cast<double>(n - i);
        break;
      case 2:  // heavy duplicates (17 distinct values)
        v = static_cast<double>(rng.UniformInt(17));
        break;
      case 3:  // zipf-ish clusters: most mass near 0, long tail
        v = std::pow(rng.Uniform(), 8.0) * 1e6;
        break;
      case 4:  // alternating extremes
        v = (i % 2 == 0) ? static_cast<double>(i) : -static_cast<double>(i);
        break;
      default:  // uniform
        v = rng.Uniform();
        break;
    }
    data[static_cast<size_t>(i)] = v;
  }
  return data;
}

TEST(QuantileSketchTest, ExactOnSmallStreams) {
  QuantileSketch sketch(1.0 / 256.0);
  std::vector<double> data = {5.0, 1.0, 3.0, 2.0, 4.0};
  for (double v : data) sketch.Add(v);
  std::sort(data.begin(), data.end());
  for (int64_t r = 0; r < 5; ++r) {
    EXPECT_EQ(sketch.QueryRank(r), data[static_cast<size_t>(r)]);
  }
}

TEST(QuantileSketchTest, RankErrorBoundOnAdversarialStreams) {
  const char* labels[] = {"ascending", "descending", "duplicates",
                          "zipf",      "alternating", "uniform"};
  for (int kind = 0; kind < 6; ++kind) {
    const std::vector<double> data = AdversarialStream(kind, 30000, 7);
    QuantileSketch sketch(1.0 / 512.0);
    for (double v : data) sketch.Add(v);
    ExpectWithinBound(sketch, data, labels[kind]);
  }
}

TEST(QuantileSketchTest, SummaryStaysSubLinear) {
  const std::vector<double> data = AdversarialStream(5, 60000, 11);
  QuantileSketch sketch(1.0 / 512.0);
  for (double v : data) sketch.Add(v);
  // O((1/eps) log(eps n)) with small constants; a linear summary would be
  // 60000 tuples.
  EXPECT_LT(sketch.SummarySize(), 60000u / 8);
}

TEST(QuantileSketchTest, MergePreservesTheBound) {
  for (int kind = 0; kind < 6; ++kind) {
    const std::vector<double> data = AdversarialStream(kind, 30000, 13);
    // 7 unequal chunks, sketched independently and folded in order --
    // exactly what the parallel streaming build does.
    QuantileSketch merged(1.0 / 512.0);
    size_t begin = 0;
    int chunk = 1;
    while (begin < data.size()) {
      const size_t end = std::min(data.size(), begin + 1000 * chunk);
      QuantileSketch part(1.0 / 512.0);
      for (size_t i = begin; i < end; ++i) part.Add(data[i]);
      merged.Merge(part);
      begin = end;
      ++chunk;
    }
    ExpectWithinBound(merged, data, "merged");
  }
}

TEST(QuantileSketchTest, DeterministicAcrossRuns) {
  const std::vector<double> data = AdversarialStream(3, 20000, 17);
  QuantileSketch a(1.0 / 256.0), b(1.0 / 256.0);
  for (double v : data) a.Add(v);
  for (double v : data) b.Add(v);
  for (int64_t step = 0; step <= 32; ++step) {
    const int64_t rank = step * 19999 / 32;
    EXPECT_EQ(a.QueryRank(rank), b.QueryRank(rank));
  }
}

TEST(QuantileSketchTest, AddWeightedMatchesRepeatedAdds) {
  // Spilling exact (value, count) pairs through AddWeighted must satisfy
  // the same bound as inserting every copy -- including heavy values whose
  // weight dwarfs the gap budget, where ranks inside the mass are exact.
  Rng rng(23);
  std::vector<std::pair<double, int64_t>> pairs;
  std::vector<double> data;
  for (int i = 0; i < 40; ++i) {
    const double v = rng.Uniform() * 100.0;
    const int64_t w = (i % 7 == 0) ? 4000 : 1 + rng.UniformInt(20);
    pairs.emplace_back(v, w);
    for (int64_t k = 0; k < w; ++k) data.push_back(v);
  }
  std::sort(pairs.begin(), pairs.end());
  QuantileSketch sketch(1.0 / 512.0);
  for (const auto& [v, w] : pairs) sketch.AddWeighted(v, w);
  ExpectWithinBound(sketch, data, "weighted");

  // Per-value sketch work afterward (the post-spill regime) keeps the
  // bound too.
  std::vector<double> tail = AdversarialStream(5, 5000, 29);
  for (double v : tail) {
    sketch.Add(v * 100.0);
    data.push_back(v * 100.0);
  }
  ExpectWithinBound(sketch, data, "weighted+stream");
}

TEST(QuantileSketchTest, QueryQuantileMatchesQueryRank) {
  QuantileSketch sketch(1.0 / 128.0);
  for (int i = 0; i < 1000; ++i) sketch.Add(static_cast<double>(i));
  EXPECT_EQ(sketch.QueryQuantile(0.0), sketch.QueryRank(0));
  EXPECT_EQ(sketch.QueryQuantile(1.0), sketch.QueryRank(999));
  EXPECT_EQ(sketch.QueryQuantile(0.5), sketch.QueryRank(500));
}

// --- QueryRanks: the one-sweep form of QueryRank. -------------------------

// Every rank of the stream (plus clamped ones past both ends), answered by
// QueryRanks, equals QueryRank's answer.
void ExpectQueryRanksMatchQueryRank(const QuantileSketch& sketch,
                                    const char* label) {
  const int64_t n = sketch.count();
  std::vector<int64_t> ranks{-5, 0};
  for (int64_t r = 0; r < n; ++r) ranks.push_back(r);
  ranks.push_back(n - 1);
  ranks.push_back(n + 3);
  const std::vector<double> swept = sketch.QueryRanks(ranks);
  ASSERT_EQ(swept.size(), ranks.size()) << label;
  int mismatches = 0;
  for (size_t i = 0; i < ranks.size(); ++i) {
    mismatches += swept[i] != sketch.QueryRank(ranks[i]) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0) << label;
}

TEST(QuantileSketchTest, QueryRanksMatchesQueryRankOnRandomStreams) {
  const char* labels[] = {"ascending", "descending", "duplicates",
                          "zipf",      "alternating", "uniform"};
  for (int kind = 0; kind < 6; ++kind) {
    QuantileSketch sketch(1.0 / 512.0);
    for (double v : AdversarialStream(kind, 20000, 31)) sketch.Add(v);
    ExpectQueryRanksMatchQueryRank(sketch, labels[kind]);
  }
}

TEST(QuantileSketchTest, QueryRanksMatchesQueryRankOnWeightedSketches) {
  // Heavy weighted inserts leave pure tuples whose g dwarfs the gap
  // budget -- the branch of QueryRank that answers inside the mass.
  Rng rng(37);
  std::vector<std::pair<double, int64_t>> pairs;
  for (int i = 0; i < 60; ++i) {
    pairs.emplace_back(rng.Uniform() * 10.0,
                       (i % 5 == 0) ? 3000 : 1 + rng.UniformInt(30));
  }
  std::sort(pairs.begin(), pairs.end());
  QuantileSketch sketch(1.0 / 512.0);
  for (const auto& [v, w] : pairs) sketch.AddWeighted(v, w);
  ExpectQueryRanksMatchQueryRank(sketch, "weighted");
  for (double v : AdversarialStream(5, 4000, 41)) sketch.Add(v * 10.0);
  ExpectQueryRanksMatchQueryRank(sketch, "weighted+stream");
}

TEST(QuantileSketchTest, QueryRanksMatchesQueryRankOnMergedAndReloaded) {
  QuantileSketch merged(1.0 / 512.0);
  for (int part = 0; part < 5; ++part) {
    QuantileSketch piece(1.0 / 512.0);
    for (double v : AdversarialStream(part, 3000 + 700 * part, 43 + part)) {
      piece.Add(v);
    }
    if (part == 2) piece.AddWeighted(0.5, 5000);
    merged.Merge(piece);
  }
  ExpectQueryRanksMatchQueryRank(merged, "merged");
  util::ByteWriter out;
  merged.SerializeTo(&out);
  util::ByteReader in(out.data());
  Result<QuantileSketch> reloaded = QuantileSketch::DeserializeFrom(&in);
  ASSERT_TRUE(reloaded.ok());
  ExpectQueryRanksMatchQueryRank(*reloaded, "deserialized");
}

// --- StreamedCoder: the bucket-table form of StreamedCodeOf. ---------------

// Probe values around every bound (the bound, its neighbours), across and
// beyond the bounds' range, and the special values.
std::vector<double> CoderProbes(const std::vector<double>& upper,
                                uint64_t seed) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> probes{-inf, inf, -0.0, 0.0, -1e300, 1e300,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min()};
  double lo = 0.0, hi = 0.0;
  for (double u : upper) {
    probes.push_back(u);
    probes.push_back(std::nextafter(u, -inf));
    probes.push_back(std::nextafter(u, inf));
    if (std::isfinite(u)) {
      lo = std::min(lo, u);
      hi = std::max(hi, u);
    }
  }
  const double span = std::max(1.0, hi - lo);
  Rng rng(seed);
  for (int i = 0; i < 20000; ++i) {
    probes.push_back(lo - span + 3.0 * span * rng.Uniform());
  }
  return probes;
}

void ExpectCoderMatchesStreamedCodeOf(const std::vector<double>& upper,
                                      const char* label) {
  const StreamedCoder coder(upper);
  int mismatches = 0;
  for (double v : CoderProbes(upper, 47)) {
    mismatches += coder.Code(v) != StreamedCodeOf(upper, v) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0) << label;
}

TEST(StreamedCoderTest, MatchesStreamedCodeOf) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(53);
  // Sketch-regime bounds: ascending quantiles plus the +inf catch-all.
  std::vector<double> sketch_bounds;
  for (int b = 0; b < 255; ++b) sketch_bounds.push_back(b / 255.0 + 0.001);
  sketch_bounds.push_back(inf);
  ExpectCoderMatchesStreamedCodeOf(sketch_bounds, "sketch + catch-all");
  // Exact-pack bounds: distinct values, no catch-all (values past the last
  // bound clamp into the last bin).
  std::vector<double> distinct;
  for (int b = 0; b < 200; ++b) distinct.push_back(rng.Uniform());
  std::sort(distinct.begin(), distinct.end());
  ExpectCoderMatchesStreamedCodeOf(distinct, "distinct values");
  ExpectCoderMatchesStreamedCodeOf({0.25}, "single bound");
  ExpectCoderMatchesStreamedCodeOf({inf}, "catch-all only");
  ExpectCoderMatchesStreamedCodeOf({-3.0, inf}, "one bound + catch-all");
  std::vector<double> negative;
  for (int b = 0; b < 100; ++b) negative.push_back(-1000.0 + b * 7.5);
  ExpectCoderMatchesStreamedCodeOf(negative, "negative values");
  // Clustered: most bounds within 1e-9 of each other, a few far outliers,
  // so whole runs of bins share one bucket.
  std::vector<double> clustered{-1e6};
  for (int b = 0; b < 240; ++b) clustered.push_back(0.5 + b * 1e-12);
  clustered.push_back(1.0);
  clustered.push_back(1e6);
  clustered.push_back(inf);
  ExpectCoderMatchesStreamedCodeOf(clustered, "clustered");
  ExpectCoderMatchesStreamedCodeOf({-inf, 0.0, 1.0}, "-inf first bound");
}

// --- The fast sketch pass against the golden reference. --------------------

template <typename Sketch>
std::string SketchBytes(const Sketch& sketch) {
  util::ByteWriter out;
  sketch.SerializeTo(&out);
  return out.data();
}

enum class StreamKind {
  kUniform,
  kTieHeavy,
  kSignedZeros,  // buffers holding both -0.0 and +0.0
  kSpecials,     // NaN, +-inf and denormals among ordinary values
  kDescending,
  kLog,
  kClustered,    // distinct values crowded next to a few far outliers
};

double StreamValue(StreamKind kind, Rng* rng, int i) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  switch (kind) {
    case StreamKind::kUniform:
      return rng->Uniform();
    case StreamKind::kTieHeavy:
      return 0.25 * static_cast<double>(rng->UniformInt(9));
    case StreamKind::kSignedZeros: {
      static const double kValues[] = {-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.5};
      return rng->Bernoulli(0.6) ? kValues[rng->UniformInt(7)]
                                 : rng->Uniform(-1.0, 1.0);
    }
    case StreamKind::kSpecials: {
      const double kValues[] = {std::nan(""), inf, -inf, denorm, -denorm,
                                3.0 * denorm, -0.0, 0.0};
      return rng->Bernoulli(0.1) ? kValues[rng->UniformInt(8)]
                                 : rng->Uniform(-1.0, 1.0);
    }
    case StreamKind::kDescending:
      return 1e6 - static_cast<double>(i);
    case StreamKind::kLog:
      return std::log(1.0 + 1e6 * rng->Uniform());
    case StreamKind::kClustered:
      return rng->Bernoulli(0.01) ? 1e6 * rng->Uniform()
                                  : 0.5 + 1e-12 * rng->Uniform();
  }
  return 0.0;
}

const StreamKind kAllStreams[] = {
    StreamKind::kUniform,    StreamKind::kTieHeavy,   StreamKind::kSignedZeros,
    StreamKind::kSpecials,   StreamKind::kDescending, StreamKind::kLog,
    StreamKind::kClustered};

// Bitwise equality of two query answers (NaN answers included).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Drives a QuantileSketch and a QuantileSketchReference through the same
// randomized interleaving of Add / AddWeighted / AddWeightedRun / Merge /
// QueryRanks. With check_every_op the serialized bytes are compared after
// every operation (which flushes both buffers every time); otherwise only
// at random checkpoints, so insert buffers fill up and the Add path's
// fused flush + compress runs.
void RunAgainstReference(StreamKind kind, double eps, uint64_t seed,
                         bool check_every_op, bool start_deserialized) {
  Rng rng(seed);
  QuantileSketch fast(eps);
  QuantileSketchReference ref(eps);
  int i = 0;
  if (start_deserialized) {
    for (int k = 0; k < 3000; ++k) {
      const double v = StreamValue(kind, &rng, i++);
      fast.Add(v);
      ref.Add(v);
    }
    const std::string bytes = SketchBytes(fast);
    ASSERT_EQ(bytes, SketchBytes(ref));
    util::ByteReader fast_in(bytes), ref_in(bytes);
    Result<QuantileSketch> f = QuantileSketch::DeserializeFrom(&fast_in);
    Result<QuantileSketchReference> r =
        QuantileSketchReference::DeserializeFrom(&ref_in);
    // A NaN can leave the tuple values unordered, which the decoder
    // rejects; such a summary has no wire form to start from.
    ASSERT_EQ(f.ok(), r.ok());
    if (f.ok()) {
      fast = *std::move(f);
      ref = *std::move(r);
    }
  }
  // Checking every operation flushes every Add, so that run stays short.
  const int ops = check_every_op ? 200 : 1200;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const double pick = rng.Uniform();
    if (pick < 0.85) {
      const double v = StreamValue(kind, &rng, i++);
      fast.Add(v);
      ref.Add(v);
    } else if (pick < 0.88) {
      const double v = StreamValue(kind, &rng, i++);
      const int64_t w = static_cast<int64_t>(rng.UniformInt(60)) - 2;
      fast.AddWeighted(v, w);
      ref.AddWeighted(v, w);
    } else if (pick < 0.92) {
      // A weighted run: ascending (sorted) unless the coin says otherwise,
      // with repeats and a few non-positive weights.
      const int k = 1 + static_cast<int>(rng.UniformInt(120));
      std::vector<double> values;
      std::vector<int64_t> weights;
      for (int q = 0; q < k; ++q) {
        values.push_back(StreamValue(kind, &rng, i++));
        weights.push_back(static_cast<int64_t>(rng.UniformInt(
                              rng.Bernoulli(0.5) ? 4 : 3000)) -
                          (rng.Bernoulli(0.05) ? 1 : 0));
      }
      if (rng.Bernoulli(0.9)) std::sort(values.begin(), values.end());
      fast.AddWeightedRun(values.data(), weights.data(), values.size());
      for (int q = 0; q < k; ++q) ref.AddWeighted(values[q], weights[q]);
    } else if (pick < 0.96) {
      QuantileSketch fast_other(eps);
      QuantileSketchReference ref_other(eps);
      const int k = static_cast<int>(rng.UniformInt(2500));
      for (int q = 0; q < k; ++q) {
        const double v = StreamValue(kind, &rng, i++);
        fast_other.Add(v);
        ref_other.Add(v);
      }
      Result<QuantileSketch> loaded = Status::InvalidArgument("unused");
      if (rng.Bernoulli(0.3)) {
        const std::string bytes = SketchBytes(fast_other);
        ASSERT_EQ(bytes, SketchBytes(ref_other));
        util::ByteReader in(bytes);
        loaded = QuantileSketch::DeserializeFrom(&in);
      }
      fast.Merge(loaded.ok() ? *loaded : fast_other);
      ref.Merge(ref_other);
    } else if (pick < 0.98) {
      // QueryRanks flushes without compressing; the answers must match
      // the reference's state read back through the decoder.
      std::vector<int64_t> ranks;
      for (int b = 0; b <= 40; ++b) ranks.push_back(b * ref.count() / 40);
      const std::vector<double> got = fast.QueryRanks(ranks);
      const std::string ref_bytes = SketchBytes(ref);  // flushes ref
      ASSERT_EQ(SketchBytes(fast), ref_bytes);
      util::ByteReader in(ref_bytes);
      Result<QuantileSketch> ref_view = QuantileSketch::DeserializeFrom(&in);
      if (ref_view.ok()) {
        const std::vector<double> want = ref_view->QueryRanks(ranks);
        for (size_t q = 0; q < ranks.size(); ++q) {
          ASSERT_TRUE(SameBits(got[q], want[q])) << "rank " << ranks[q];
        }
      }
    }
    if (check_every_op || rng.Bernoulli(0.01)) {
      ASSERT_EQ(SketchBytes(fast), SketchBytes(ref));
    }
  }
  ASSERT_EQ(fast.count(), ref.count());
  ASSERT_EQ(SketchBytes(fast), SketchBytes(ref));
}

TEST(SketchReferenceTest, SameBytesAsReferenceOnRandomInterleavings) {
  for (StreamKind kind : kAllStreams) {
    for (double eps : {1.0 / 2048.0, 0.01}) {
      SCOPED_TRACE("stream " + std::to_string(static_cast<int>(kind)) +
                   " eps " + std::to_string(eps));
      RunAgainstReference(kind, eps, 1, /*check_every_op=*/false,
                          /*start_deserialized=*/false);
      RunAgainstReference(kind, eps, 2, /*check_every_op=*/false,
                          /*start_deserialized=*/true);
      RunAgainstReference(kind, eps, 3, /*check_every_op=*/true,
                          /*start_deserialized=*/false);
    }
  }
}

// The column tracker: exact pairs, the spill on overflow, and every merge
// direction (exact + exact, exact into a spilled summary, spilled into
// exact, spilled + spilled), compared byte for byte after every step.
TEST(SketchReferenceTest, ColumnSketchSameBytesAsReference) {
  for (StreamKind kind : kAllStreams) {
    for (int cap : {8, 64, 256}) {
      for (double eps : {1.0 / 2048.0, 0.01}) {
        SCOPED_TRACE("stream " + std::to_string(static_cast<int>(kind)) +
                     " cap " + std::to_string(cap) + " eps " +
                     std::to_string(eps));
        Rng rng(static_cast<uint64_t>(cap) * 31 + 7);
        ColumnSketch fast(eps);
        ColumnSketchReference ref(eps);
        int i = 0;
        for (int block = 0; block < 12; ++block) {
          ColumnSketch fast_local(eps);
          ColumnSketchReference ref_local(eps);
          // Small blocks stay exact, large ones spill.
          const int rows = static_cast<int>(
              rng.UniformInt(rng.Bernoulli(0.5) ? 40 : 5000));
          for (int r = 0; r < rows; ++r) {
            const double v = StreamValue(kind, &rng, i++);
            fast_local.AddValue(v, cap);
            ref_local.AddValue(v, cap);
          }
          ASSERT_EQ(SketchBytes(fast_local), SketchBytes(ref_local));
          fast.MergeFrom(fast_local, cap);
          ref.MergeFrom(ref_local, cap);
          ASSERT_EQ(SketchBytes(fast), SketchBytes(ref)) << "block " << block;
        }
      }
    }
  }
}

// --- BuildStreamed in the sketch regime against the golden build. --------

// BuildStreamed equals BuildStreamedReference -- the reference sketch pass,
// one QueryRank per bound, StreamedCodeOf per value and a stable sort for
// the permutation -- in kind, codes, bin bounds, begin ranks and
// permutation, on every block size and thread count: the fast sketch pass
// and the fast bound, coding and permutation helpers at once.
TEST(StreamedCoderTest, SketchRegimeBuildMatchesReferenceBuild) {
  Rng rng(59);
  const int n = 20000, m = 4;
  auto uniform = std::make_shared<Dataset>(m);
  auto logit_normal = std::make_shared<Dataset>(m);
  auto mixed = std::make_shared<Dataset>(m);
  for (int i = 0; i < n; ++i) {
    double u[m], l[m];
    for (int j = 0; j < m; ++j) {
      u[j] = rng.Uniform();
      l[j] = rng.LogitNormal(0.0, 1.0 + j);
    }
    uniform->AddRow(u, 0.0);
    logit_normal->AddRow(l, 1.0);
    const double row[m] = {
        rng.Uniform(),                                        // sketch
        static_cast<double>(rng.UniformInt(48)),              // exact pack
        0.5 * static_cast<double>(rng.UniformInt(300)),       // tied sketch
        rng.Bernoulli(0.5) ? (rng.Bernoulli(0.5) ? -0.0 : 0.0)
                           : std::log(rng.Uniform() + 1e-9),  // zeros + tail
    };
    mixed->AddRow(row, rng.Bernoulli(0.3) ? 1.0 : 0.0);
  }
  for (const auto& data : {uniform, logit_normal, mixed}) {
    for (int block_rows : {77, 1000, 8192}) {
      // Tiny blocks stay exact and fold in through the weighted path, which
      // the reference runs pair by pair: only the mixed data takes them.
      if (block_rows == 77 && data != mixed) continue;
      StreamedBuildOptions options;
      options.block_rows = block_rows;
      MatrixSource ref_source(data);
      Result<StreamedBinsReference> ref =
          BuildStreamedReference(&ref_source, options);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      ASSERT_EQ(ref->kind, BinnedIndex::BuildKind::kSketch);
      for (int threads : {1, 4}) {
        SCOPED_TRACE("block_rows " + std::to_string(block_rows) +
                     " threads " + std::to_string(threads));
        options.threads = threads;
        MatrixSource source(data);
        Result<StreamedDataset> built =
            BinnedIndex::BuildStreamed(&source, options);
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        const BinnedIndex& index = *built->index;
        EXPECT_EQ(index.kind(), ref->kind);
        for (int j = 0; j < m; ++j) {
          const ColumnBinLayout& layout =
              ref->layouts[static_cast<size_t>(j)];
          ASSERT_EQ(index.num_bins(j), layout.live) << "col " << j;
          EXPECT_TRUE(index.codes(j) == ref->codes[static_cast<size_t>(j)])
              << "col " << j;
          EXPECT_TRUE(index.sorted_rows(j) ==
                      ref->sorted[static_cast<size_t>(j)])
              << "col " << j;
          for (int b = 0; b < layout.live; ++b) {
            EXPECT_TRUE(SameBits(index.bin_first(j, b),
                                 layout.first[static_cast<size_t>(b)]));
            EXPECT_TRUE(SameBits(index.bin_last(j, b),
                                 layout.last[static_cast<size_t>(b)]));
          }
          for (int b = 0; b <= layout.live; ++b) {
            EXPECT_EQ(index.bin_begin_rank(j, b),
                      ref->begins[static_cast<size_t>(j)]
                                 [static_cast<size_t>(b)]);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace reds
