// Golden reference for the streaming sketch pass: the Greenwald-Khanna
// summary and the per-column distinct tracker exactly as they were before
// the radix-sorted, single-pass flush and the bulk spill -- std::sort of
// every insert buffer, a freshly allocated merge list followed by a
// separate Compress pass, one AddWeighted (with its full Compress) per
// spilled pair. QuantileSketch and ColumnSketch must serialize to the same
// bytes as these after every operation; tests/quantile_sketch_test.cc and
// the binned_build_streamed kernels of bench/bench_perf_kernels.cc check
// it. Not used on any production path.
#ifndef REDS_CORE_QUANTILE_SKETCH_REFERENCE_H_
#define REDS_CORE_QUANTILE_SKETCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/binned_index.h"
#include "core/dataset_source.h"
#include "util/serialize.h"
#include "util/status.h"

namespace reds {

class QuantileSketchReference {
 public:
  explicit QuantileSketchReference(double eps = 1.0 / 2048.0);

  void Add(double v);
  void AddWeighted(double v, int64_t w);
  void Merge(const QuantileSketchReference& other);

  int64_t count() const { return n_ + static_cast<int64_t>(buffer_.size()); }
  double eps() const { return eps_; }

  /// Sort + fold the insert buffer into the tuples (no compress): what
  /// every query, serialization and merge does first.
  void Flush() const;

  /// Same wire form as QuantileSketch::SerializeTo.
  void SerializeTo(util::ByteWriter* out) const;
  static Result<QuantileSketchReference> DeserializeFrom(util::ByteReader* in);

 private:
  struct Tuple {
    double v = 0.0;
    int64_t g = 0;
    int64_t delta = 0;
    bool pure = true;
  };

  int64_t GapBudget(int64_t n) const;
  void Compress() const;

  double eps_;
  mutable int64_t n_ = 0;
  mutable std::vector<Tuple> tuples_;
  mutable std::vector<double> buffer_;
  size_t buffer_cap_;
};

struct ColumnSketchReference {
  QuantileSketchReference sketch;
  std::vector<double> distinct;
  std::vector<int64_t> count;
  bool overflow = false;

  explicit ColumnSketchReference(double eps) : sketch(eps) {}

  void SpillToSketch();
  void AddValue(double v, int cap);
  void MergeFrom(const ColumnSketchReference& other, int cap);

  /// Same wire form as ColumnSketch::SerializeTo.
  void SerializeTo(util::ByteWriter* out) const;
};

/// BinnedIndex::BuildStreamed re-done with golden references throughout:
/// the sketch pass through ColumnSketchReference (per-block summaries of
/// `options.block_rows` rows folded in block order; the result is the same
/// on every thread count), one QueryRank per bin bound, StreamedCodeOf per
/// value, the shared layout assembly (AssembleColumnBins), rank offsets
/// summed from the coding stats' bin counts, and the (code, row)-ordered
/// permutation by a stable sort.
struct StreamedBinsReference {
  BinnedIndex::BuildKind kind = BinnedIndex::BuildKind::kExactPack;
  std::vector<std::vector<uint8_t>> codes;  // [column][row]
  std::vector<ColumnBinLayout> layouts;     // [column]
  std::vector<std::vector<int>> begins;     // [column][bin] rank offsets
  std::vector<std::vector<int>> sorted;     // [column] rows by (code, id)
};
Result<StreamedBinsReference> BuildStreamedReference(
    DatasetSource* source, const StreamedBuildOptions& options);

}  // namespace reds

#endif  // REDS_CORE_QUANTILE_SKETCH_REFERENCE_H_
