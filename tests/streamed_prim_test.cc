// The streaming data plane equivalence contract: BuildStreamed reproduces
// the exact in-memory quantization bit for bit when every column has at
// most max_bins distinct values (any block size, any thread count, CSV or
// in-memory source), RunPrimStreamed then reproduces RunPrim's boxes bit
// for bit on such data ({0,1} and fractional labels alike), and on
// continuous data the streamed boxes stay within the binning's bounded
// rank error of the exact kernel's.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/binned_index.h"
#include "core/dataset_source.h"
#include "core/prim.h"
#include "engine/fingerprint.h"
#include "util/rng.h"
#include "util/table.h"

namespace reds {
namespace {

// distinct_values > 0: every column takes values on a grid of that size
// (the exact-equivalence regime); 0: continuous.
Dataset MakeData(int n, int dim, uint64_t seed, int distinct_values,
                 bool fractional_labels = false) {
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
    const double p = (x[0] < 0.45 && x[1 % dim] > 0.3) ? 0.8 : 0.15;
    double y = rng.Bernoulli(p) ? 1.0 : 0.0;
    if (fractional_labels) {
      y = 0.25 * static_cast<double>(rng.UniformInt(5));  // {0,.25,...,1}
    }
    d.AddRow(x, y);
  }
  return d;
}

void ExpectSameIndex(const BinnedIndex& a, const BinnedIndex& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (int j = 0; j < a.num_cols(); ++j) {
    ASSERT_EQ(a.num_bins(j), b.num_bins(j)) << "col " << j;
    EXPECT_EQ(a.codes(j), b.codes(j)) << "col " << j;
    for (int b_idx = 0; b_idx < a.num_bins(j); ++b_idx) {
      EXPECT_EQ(a.bin_first(j, b_idx), b.bin_first(j, b_idx));
      EXPECT_EQ(a.bin_last(j, b_idx), b.bin_last(j, b_idx));
      EXPECT_EQ(a.bin_begin_rank(j, b_idx), b.bin_begin_rank(j, b_idx));
    }
    EXPECT_EQ(a.bin_begin_rank(j, a.num_bins(j)),
              b.bin_begin_rank(j, b.num_bins(j)));
  }
}

void ExpectSamePrim(const PrimResult& a, const PrimResult& b) {
  ASSERT_EQ(a.boxes.size(), b.boxes.size());
  EXPECT_EQ(a.best_val_index, b.best_val_index);
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    EXPECT_TRUE(a.boxes[i] == b.boxes[i]) << "box " << i;
  }
  ASSERT_EQ(a.train_curve.size(), b.train_curve.size());
  for (size_t i = 0; i < a.train_curve.size(); ++i) {
    EXPECT_EQ(a.train_curve[i].precision, b.train_curve[i].precision);
    EXPECT_EQ(a.train_curve[i].recall, b.train_curve[i].recall);
  }
}

std::vector<double> Labels(const Dataset& d) {
  return std::vector<double>(d.y_data(), d.y_data() + d.num_rows());
}

TEST(StreamedBuildTest, MatchesExactPackOnDiscreteData) {
  const auto data = std::make_shared<Dataset>(MakeData(1500, 4, 1, 23));
  const auto exact = BinnedIndex::Build(*data);
  for (int block : {64, 257, 5000}) {
    for (int threads : {1, 3}) {
      MatrixSource source(data);
      StreamedBuildOptions options;
      options.block_rows = block;
      options.threads = threads;
      auto streamed = BinnedIndex::BuildStreamed(&source, options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(streamed->index->kind(), BinnedIndex::BuildKind::kExactPack);
      EXPECT_TRUE(streamed->index->has_sorted_rows());
      ExpectSameIndex(*exact, *streamed->index);
      EXPECT_EQ(streamed->y, Labels(*data));
      EXPECT_EQ(streamed->fingerprint, engine::FingerprintDataset(*data));
      EXPECT_EQ(streamed->input_fingerprint,
                engine::FingerprintInputs(*data));
    }
  }
}

TEST(StreamedBuildTest, OwnPermutationMatchesColumnIndexOnDiscreteData) {
  const auto data = std::make_shared<Dataset>(MakeData(800, 3, 2, 17));
  const auto column_index = ColumnIndex::Build(*data);
  MatrixSource source(data);
  auto streamed = BinnedIndex::BuildStreamed(&source);
  ASSERT_TRUE(streamed.ok());
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(streamed->index->sorted_rows(j), column_index->sorted_rows(j));
  }
}

TEST(StreamedPrimTest, BitIdenticalToExactKernelOnDiscreteData) {
  for (const bool fractional : {false, true}) {
    const auto data =
        std::make_shared<Dataset>(MakeData(2000, 4, 3, 21, fractional));
    PrimConfig config;
    config.alpha = 0.07;
    config.backend = PrimPeelBackend::kSorted;
    const PrimResult exact = RunPrim(*data, *data, config);

    MatrixSource source(data);
    auto streamed = BinnedIndex::BuildStreamed(&source);
    ASSERT_TRUE(streamed.ok());
    const PrimResult from_stream =
        RunPrimStreamed(*streamed->index, streamed->y, config);
    ExpectSamePrim(exact, from_stream);
  }
}

TEST(StreamedPrimTest, CsvStreamReproducesInMemoryBoxes) {
  const Dataset d = MakeData(1200, 3, 4, 19);
  const std::string path = ::testing::TempDir() + "streamed_prim.csv";
  CsvWriter csv({"a", "b", "c", "y"});
  for (int r = 0; r < d.num_rows(); ++r) {
    csv.AddRow({d.x(r, 0), d.x(r, 1), d.x(r, 2), d.y(r)});
  }
  ASSERT_TRUE(csv.WriteFile(path).ok());

  PrimConfig config;
  const PrimResult exact = RunPrim(d, d, config);

  auto source = CsvFileSource::Open(path);
  ASSERT_TRUE(source.ok());
  StreamedBuildOptions options;
  options.block_rows = 100;  // many blocks, two passes over the file
  auto streamed = BinnedIndex::BuildStreamed(source->get(), options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->fingerprint, engine::FingerprintDataset(d));
  const PrimResult from_stream =
      RunPrimStreamed(*streamed->index, streamed->y, config);
  ExpectSamePrim(exact, from_stream);
}

// Continuous columns exceed the bin budget, so bounds snap to sketch-binned
// boundaries: the streamed box must stay close to the exact one -- every
// restricted bound within the quantization's bounded rank error, and the
// selected box's training precision within a small delta.
TEST(StreamedPrimTest, BoundedErrorOnContinuousData) {
  const auto data = std::make_shared<Dataset>(MakeData(4000, 3, 5, 0));
  PrimConfig config;
  config.backend = PrimPeelBackend::kSorted;
  const PrimResult exact = RunPrim(*data, *data, config);

  MatrixSource source(data);
  auto streamed = BinnedIndex::BuildStreamed(&source);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->index->kind(), BinnedIndex::BuildKind::kSketch);
  const PrimResult from_stream =
      RunPrimStreamed(*streamed->index, streamed->y, config);

  const auto& exact_curve = exact.val_curve;
  const auto& stream_curve = from_stream.val_curve;
  const double exact_best =
      exact_curve[static_cast<size_t>(exact.best_val_index)].precision;
  const double stream_best =
      stream_curve[static_cast<size_t>(from_stream.best_val_index)].precision;
  // 256 quantile bins on 4000 rows: each peel is off by at most a bin
  // (~16 rows). Individual peel sequences may diverge (greedy choices
  // compound bin-level noise), but the discovered subgroup's quality must
  // agree closely.
  EXPECT_NEAR(exact_best, stream_best, 0.05);
  const double exact_recall =
      exact_curve[static_cast<size_t>(exact.best_val_index)].recall;
  const double stream_recall =
      stream_curve[static_cast<size_t>(from_stream.best_val_index)].recall;
  EXPECT_NEAR(exact_recall, stream_recall, 0.15);
  // Every streamed bound is an actual bin boundary of the quantization --
  // the "snaps to bin boundaries" contract, checkable exactly.
  const Box& b = from_stream.BestBox();
  for (int j = 0; j < 3; ++j) {
    if (std::isfinite(b.lo(j))) {
      const int bin = streamed->index->BinOf(j, b.lo(j));
      EXPECT_EQ(b.lo(j), streamed->index->bin_first(j, bin)) << "dim " << j;
    }
    if (std::isfinite(b.hi(j))) {
      const int bin = streamed->index->BinOf(j, b.hi(j));
      EXPECT_EQ(b.hi(j), streamed->index->bin_last(j, bin)) << "dim " << j;
    }
  }
}

// The determinism contract on the sketch path (not just the exact-pack
// path): for a given block_rows, continuous (>max_bins-distinct) columns
// must bin identically on any thread count, because per-block sketches
// fold in block order either way.
TEST(StreamedBuildTest, SketchPathIdenticalAcrossThreadCounts) {
  const auto data = std::make_shared<Dataset>(MakeData(5000, 3, 6, 0));
  StreamedBuildOptions serial;
  serial.block_rows = 512;
  MatrixSource source_a(data);
  auto a = BinnedIndex::BuildStreamed(&source_a, serial);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->index->kind(), BinnedIndex::BuildKind::kSketch);
  for (const int threads : {2, 4}) {
    StreamedBuildOptions parallel = serial;
    parallel.threads = threads;
    MatrixSource source_b(data);
    auto b = BinnedIndex::BuildStreamed(&source_b, parallel);
    ASSERT_TRUE(b.ok());
    ExpectSameIndex(*a->index, *b->index);
  }
}

// Bitwise equality of everything a PRIM run reports.
void ExpectBitwise(const PrimResult& a, const PrimResult& b,
                   const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.boxes.size(), b.boxes.size());
  EXPECT_EQ(a.best_val_index, b.best_val_index);
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    EXPECT_TRUE(a.boxes[i] == b.boxes[i]) << "box " << i;
  }
  for (const auto curve :
       {&PrimResult::train_curve, &PrimResult::val_curve}) {
    const std::vector<PrPoint>& ca = a.*curve;
    const std::vector<PrPoint>& cb = b.*curve;
    ASSERT_EQ(ca.size(), cb.size());
    for (size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].precision, cb[i].precision) << "point " << i;
      EXPECT_EQ(ca[i].recall, cb[i].recall) << "point " << i;
    }
  }
}

StreamedDataset StreamOf(const std::shared_ptr<const Dataset>& data) {
  MatrixSource source(data);
  Result<StreamedDataset> streamed = BinnedIndex::BuildStreamed(&source);
  EXPECT_TRUE(streamed.ok()) << streamed.status().ToString();
  return std::move(streamed).value();
}

// RunPrimStreamed, with prebuilt totals and with private ones, against the
// golden reference that rebuilds each candidate's histogram from a full
// row scan: every box, both curves and the selected index, bit for bit.
void ExpectMatchesReference(const std::shared_ptr<const Dataset>& data,
                            const Dataset* val, const PrimConfig& config,
                            const std::string& what) {
  const StreamedDataset stream = StreamOf(data);
  const PrimResult reference =
      RunPrimStreamedReference(*stream.index, stream.y, config, val);
  const auto totals = StreamedBinTotals::Build(*stream.index, stream.y);
  ExpectBitwise(reference,
                RunPrimStreamed(*stream.index, stream.y, config, val,
                                totals.get()),
                what + " prebuilt totals");
  ExpectBitwise(reference,
                RunPrimStreamed(*stream.index, stream.y, config, val),
                what + " private totals");
  // The parallel candidate evaluation reads the same cells.
  PrimConfig parallel = config;
  parallel.threads = 3;
  ExpectBitwise(reference,
                RunPrimStreamed(*stream.index, stream.y, parallel, val,
                                totals.get()),
                what + " threads=3");
}

TEST(StreamedPrimTest, MatchesGoldenReference) {
  for (const int distinct : {0, 21}) {  // sketch bins, exact-pack bins
    for (const bool fractional : {false, true}) {
      const auto data = std::make_shared<Dataset>(
          MakeData(3000, 4, 11, distinct, fractional));
      const Dataset val = MakeData(500, 4, 12, distinct, fractional);
      if (distinct == 0) {
        ASSERT_EQ(StreamOf(data).index->kind(),
                  BinnedIndex::BuildKind::kSketch);
      }
      PrimConfig config;
      config.alpha = 0.05;
      const std::string what = "distinct=" + std::to_string(distinct) +
                               (fractional ? " fractional" : " hard");
      ExpectMatchesReference(data, nullptr, config, what + " val=null");
      ExpectMatchesReference(data, &val, config, what + " val=external");
    }
  }
}

TEST(StreamedPrimTest, MatchesGoldenReferenceOnTiesAndConstantColumns) {
  // Column 0 puts 40% of the rows, all negative, on its top value: a
  // high-side cut of alpha lands inside that tied top bin and must move
  // below it. Column 1 is constant: neither side ever yields a candidate.
  // Column 2 ties 30% of the rows on its bottom value.
  for (const bool fractional : {false, true}) {
    Rng rng(21);
    auto data = std::make_shared<Dataset>(3);
    for (int i = 0; i < 2500; ++i) {
      const bool top = rng.Uniform() < 0.4;
      const double x0 = top ? 1.0 : rng.Uniform();
      const double x2 = rng.Uniform() < 0.3 ? 0.0 : rng.Uniform();
      const double x[3] = {x0, 0.5, x2};
      double y = !top && x0 < 0.5 && rng.Bernoulli(0.7) ? 1.0 : 0.0;
      if (fractional) y = top ? 0.0 : 0.125 * rng.UniformInt(9);
      data->AddRow(x, y);
    }
    const std::string what = fractional ? "fractional" : "hard";
    PrimConfig config;
    config.alpha = 0.1;
    config.min_points = 5;
    ExpectMatchesReference(data, nullptr, config, what);
    const StreamedDataset stream = StreamOf(data);
    const PrimResult r = RunPrimStreamed(*stream.index, stream.y, config);
    bool top_cut = false;
    for (const Box& b : r.boxes) {
      EXPECT_FALSE(b.IsRestricted(1)) << "the constant column was cut";
      top_cut = top_cut || b.hi(0) < 1.0;
    }
    EXPECT_TRUE(top_cut) << "no high-side cut below the tied top bin";

    // The min_points stop: peeling ends once the box holds fewer than 800
    // rows, far above where the run above went, so its trajectory is a
    // strict prefix of that run's.
    config.min_points = 800;
    ExpectMatchesReference(data, nullptr, config, what + " min_points=800");
    const PrimResult stopped =
        RunPrimStreamed(*stream.index, stream.y, config);
    ASSERT_LT(stopped.boxes.size(), r.boxes.size());
    EXPECT_GT(stopped.boxes.size(), 1u);
    for (size_t i = 0; i < stopped.boxes.size(); ++i) {
      EXPECT_TRUE(stopped.boxes[i] == r.boxes[i]) << "box " << i;
    }
  }
}

TEST(StreamedBuildTest, RejectsEmptyStreams) {
  const auto data = std::make_shared<Dataset>(Dataset(3));
  MatrixSource source(data);
  EXPECT_FALSE(BinnedIndex::BuildStreamed(&source).ok());
}

}  // namespace
}  // namespace reds
