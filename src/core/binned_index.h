// BinnedIndex: the quantized data plane. Each feature of a dataset is
// quantized into at most 256 quantile bins -- uint8_t codes stored
// column-major plus, per bin, the smallest/largest data value it covers and
// its offset into the sorted-by-value permutation. It backs the histogram
// split search in ml/ (CART/GBT/RF) and the binned PRIM peeling in core/:
// scans touch contiguous byte codes and O(bins) aggregates instead of N
// exact doubles.
//
// Two build paths produce one:
//   * Build(ColumnIndex): the exact in-memory path -- value runs packed
//     into equal-share quantile bins from the sorted permutation.
//   * BuildStreamed(DatasetSource): the streaming path -- bin boundaries
//     come from one-pass mergeable quantile sketches and codes are emitted
//     chunk by chunk, so the raw N x M double matrix is never materialized:
//     resident state is the uint8 codes (N x M bytes), the labels (N
//     doubles), and O(block) doubles in flight. The streamed index carries
//     its own
//     code-ordered row permutation (stable counting sort, no comparison
//     sort) and both fingerprints of the stream. When every column has at
//     most max_bins distinct values the streamed bins equal the exact
//     path's bit for bit (BuildKind::kExactPack); otherwise boundaries are
//     within the sketch's rank-error bound (BuildKind::kSketch).
//
// The discovery engine caches indexes under the input-only fingerprint, in
// memory (LRU) and optionally on disk (engine/persistent_cache), for which
// BinnedIndex serializes to a stable little-endian byte layout.
#ifndef REDS_CORE_BINNED_INDEX_H_
#define REDS_CORE_BINNED_INDEX_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/column_index.h"
#include "core/dataset.h"
#include "core/dataset_source.h"
#include "core/quantile_sketch.h"
#include "util/mmap_file.h"
#include "util/serialize.h"
#include "util/status.h"

namespace reds {

/// Borrowed view of one column's per-row data (codes or permutation).
/// Vector-like surface (data/size/operator[]/iteration/==) over storage the
/// BinnedIndex owns -- heap vectors for in-memory builds, a read-only mmap
/// region for out-of-core opens. Valid exactly as long as the index it came
/// from; copy freely, it is two words.
template <typename T>
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(const T* data, size_t size) : data_(data), size_(size) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  friend bool operator==(const ColumnView& a, const ColumnView& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const ColumnView& a, const ColumnView& b) {
    return !(a == b);
  }
  friend bool operator==(const ColumnView& a, const std::vector<T>& b) {
    return a == ColumnView(b.data(), b.size());
  }
  friend bool operator==(const std::vector<T>& a, const ColumnView& b) {
    return b == a;
  }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

/// Knobs of the streaming build.
struct StreamedBuildOptions {
  int max_bins = 256;      // <= BinnedIndex::kMaxBins
  int block_rows = 8192;   // rows pulled per source block
  /// Rank-error target of the per-column quantile sketches, as a fraction
  /// of the stream length; bin boundaries on >max_bins-distinct columns
  /// deviate from exact quantiles by at most this share of rows.
  double sketch_eps = 1.0 / 2048.0;
  /// Blocks sketched concurrently on a private pool when > 1. Every block
  /// is sketched privately and folded in block order on any thread count
  /// (the serial path is the parallel path with one slot), so for a given
  /// block_rows the result is bit-identical regardless of threads.
  /// Changing block_rows may move sketch-binned boundaries (within the
  /// rank-error bound either way).
  int threads = 1;
};

class BinnedIndex;

/// Per-column accumulator of the streaming sketch pass: a mergeable quantile
/// sketch plus exact distinct-value tracking up to the bin budget, so
/// columns with few distinct values get exactly one bin per value (the
/// equivalence case) without consulting the sketch at all.
/// While a column stays within the distinct cap, its sorted (value, count)
/// pairs ARE a lossless summary, and the GK sketch sees nothing. Exact-pair
/// merges are a sorted multiset union -- commutative and associative -- so
/// in the exact-pack regime the folded summary (and hence the bins) is
/// invariant to how rows were split into blocks or shards. Once any side
/// overflowed, merges go through QuantileSketch::Merge, which is
/// deterministic in merge order (the shard coordinator folds worker
/// summaries in worker-index order for reproducibility).
/// Public (rather than a build-internal detail) because shard workers run
/// the sketch pass over their block subset and ship the summary to the
/// coordinator.
struct ColumnSketch {
  QuantileSketch sketch;
  std::vector<double> distinct;  // sorted unique; valid until overflow
  std::vector<int64_t> count;    // parallel occurrence counts
  bool overflow = false;

  explicit ColumnSketch(double eps) : sketch(eps) {}

  /// One-time spill of the exact pairs into the sketch on cap overflow.
  void SpillToSketch();

  void AddValue(double v, int cap);

  void MergeFrom(const ColumnSketch& other, int cap);

  /// Wire form for the shard transport; round-trips the summary state
  /// exactly (exact pairs or flushed sketch tuples).
  void SerializeTo(util::ByteWriter* out) const;
  static Result<ColumnSketch> DeserializeFrom(util::ByteReader* in);
};

/// InvalidArgument naming the first column of a row-major `rows` x `m`
/// block that holds a NaN or an infinity, OK otherwise. Quantile sketches
/// order values and NaN has no order, so the sketch pass of BuildStreamed
/// and of a shard worker checks every block before sketching it.
Status CheckFiniteBlock(const double* x, int rows, int m);

/// Adds a row-major block of `rows` x `m` values to the per-column
/// summaries `cols` (one per column), each column in row order. The sketch
/// pass of BuildStreamed and of a shard worker.
void SketchBlock(const double* x, int rows, int m, int cap,
                 std::vector<ColumnSketch>* cols);

/// Bin upper bounds derived from a finished pass-1 column summary: the
/// distinct values themselves below the cap, equal-share sketch quantiles
/// plus a +inf catch-all above it. Consumes the summary's distinct list.
/// Shared verbatim by BuildStreamed and the shard coordinator so global
/// bins are derived by the same code in both topologies.
std::vector<double> StreamedBinUpperBounds(ColumnSketch* summary, int64_t n,
                                           int cap);

/// One column's pass-2 coding aggregates over the raw-bin space (counts and
/// exact value ranges per bin). Additive across disjoint row sets: counts
/// sum, mins min, maxes max -- the property the sharded build rests on.
struct BinCodingStats {
  std::vector<int> count;
  std::vector<double> vmin;
  std::vector<double> vmax;

  void Reset(size_t bins);
  void MergeFrom(const BinCodingStats& other);
  void Observe(size_t bin, double v) {
    ++count[bin];
    vmin[bin] = std::min(vmin[bin], v);
    vmax[bin] = std::max(vmax[bin], v);
  }
};

/// Raw-bin code of value `v` against ascending upper bounds: the first bin
/// whose upper bound is >= v, clamped into range for values beyond the last
/// bound (non-deterministic sources only).
inline uint8_t StreamedCodeOf(const std::vector<double>& upper, double v) {
  size_t b = static_cast<size_t>(
      std::lower_bound(upper.begin(), upper.end(), v) - upper.begin());
  if (b == upper.size()) --b;
  return static_cast<uint8_t>(b);
}

/// StreamedCodeOf for one column, without a binary search per value: the
/// range between the first and the last finite bound is cut into kBuckets
/// equal-width buckets, and each bucket records the first bin any of its
/// values can land in; a short forward scan finishes the lookup. The
/// bucket index is a monotone function of the value and the table is
/// derived through that same function, so the answer never depends on
/// rounding: Code(v) == StreamedCodeOf(upper, v) for every v, which stays
/// the golden reference (and is used outright when a bound is NaN).
class StreamedCoder {
 public:
  static constexpr size_t kBuckets = 4096;

  explicit StreamedCoder(std::vector<double> upper);

  uint8_t Code(double v) const {
    if (reference_) return StreamedCodeOf(upper_, v);
    size_t b = first_bin_[Bucket(v)];
    while (b + 1 < upper_.size() && upper_[b] < v) ++b;
    return static_cast<uint8_t>(b);
  }

 private:
  size_t Bucket(double v) const {
    if (!(v > lo_)) return 0;  // at or below the first bound, or NaN
    const double pos = (v - lo_) * scale_;
    return pos < static_cast<double>(kBuckets) ? static_cast<size_t>(pos)
                                               : kBuckets - 1;
  }

  std::vector<double> upper_;
  double lo_ = 0.0;
  double scale_ = 0.0;
  bool reference_ = false;
  std::vector<uint8_t> first_bin_;  // [bucket] -> first candidate bin
};

/// Final per-column bin layout: empty raw bins dropped, exact first/last
/// bounds, cumulative rank offsets (size live + 1), and the raw-bin ->
/// final-bin remap. Deterministic function of the coding stats, so shards
/// that agree on global stats agree on the layout.
struct ColumnBinLayout {
  int live = 0;
  std::vector<uint8_t> remap;   // [raw bin] -> final bin (valid where count>0)
  std::vector<double> first;    // [final bin]
  std::vector<double> last;     // [final bin]
  std::vector<int> begins;      // [final bin] cumulative ranks; size live+1
};

/// Assembles the final layout from (possibly shard-merged) coding stats over
/// n total rows. BuildStreamed uses this per column; the shard coordinator
/// applies it to the fleet-summed stats and gets the identical layout.
ColumnBinLayout AssembleColumnBins(const BinCodingStats& stats, int n);

/// The starting aggregates of a streamed PRIM peel over (index, y): per
/// (column, bin) the row count and the positive count, packed into one
/// int64 cell (rows in the low 32 bits, positives in the high 32 bits), so
/// a whole-bin subtraction updates both at once. They are the same for
/// every peel on the same data; a cache entry builds them once and each
/// peel copies O(M x bins) cells instead of counting L x M codes.
struct StreamedBinTotals {
  static constexpr int kPosShift = 32;

  static int Rows(int64_t cell) { return static_cast<int>(cell & 0xffffffff); }
  static int64_t Positives(int64_t cell) { return cell >> kPosShift; }

  /// One pass over the codes. Positives are counted only when every label
  /// is exactly 0 or 1 (integral_labels); fractional labels leave the high
  /// halves zero and their peels sum y in order instead.
  static std::shared_ptr<const StreamedBinTotals> Build(
      const BinnedIndex& index, const double* y);

  std::vector<int64_t> cells;  // column j's bins at [offset[j], offset[j+1])
  std::vector<int> offset;     // size num_cols + 1
  bool integral_labels = false;
  double label_total = 0.0;    // sum of y in row order
};

/// What streaming ingestion yields: the quantized index, the label vector,
/// and both fingerprints hashed incrementally over the chunk stream --
/// never the raw double matrix. `totals` is null as BuildStreamed returns
/// it; whoever caches the dataset for repeated peels builds it once.
struct StreamedDataset {
  std::shared_ptr<const BinnedIndex> index;
  std::vector<double> y;
  uint64_t input_fingerprint = 0;  // == engine::FingerprintInputs
  uint64_t fingerprint = 0;        // == engine::FingerprintDataset
  std::shared_ptr<const StreamedBinTotals> totals;
};

/// Immutable per-dataset feature quantization. Thread-safe to share.
class BinnedIndex {
 public:
  /// Hard cap on bins per feature, dictated by the uint8_t codes.
  static constexpr int kMaxBins = 256;

  /// How the bin boundaries were derived. Indexes of different kinds must
  /// not share cache entries: beyond max_bins distinct values per column
  /// the two packings differ.
  enum class BuildKind : uint8_t {
    kExactPack,  // exact value-run packing (or streamed with all columns
                 // <= max_bins distinct: identical result)
    kSketch,     // streamed, at least one column binned from the sketch
  };

  /// Quantizes every column of `index` into at most `max_bins` quantile
  /// bins. Tied values always land in the same bin; when a column has at
  /// most `max_bins` distinct values, every distinct value gets a bin of
  /// its own (making downstream histogram kernels exact).
  static std::shared_ptr<const BinnedIndex> Build(const ColumnIndex& index,
                                                  int max_bins = kMaxBins);

  /// Convenience: builds a private ColumnIndex of d first.
  static std::shared_ptr<const BinnedIndex> Build(const Dataset& d,
                                                  int max_bins = kMaxBins);

  /// Streaming build: two passes over `source` (sketch pass, coding pass),
  /// consuming fixed-size row blocks. See the file comment for the
  /// equivalence contract. The source must yield the identical row
  /// sequence on both passes.
  static Result<StreamedDataset> BuildStreamed(
      DatasetSource* source, const StreamedBuildOptions& options = {});

  int num_rows() const { return num_rows_; }
  int num_cols() const { return num_cols_; }
  int max_bins() const { return max_bins_; }
  BuildKind kind() const { return kind_; }

  /// Number of non-empty bins of column j (1 <= num_bins <= max_bins).
  int num_bins(int j) const {
    assert(j >= 0 && j < num_cols_);
    return num_bins_[static_cast<size_t>(j)];
  }

  /// Bin codes of column j, indexed by row id. The view aliases either the
  /// index's heap vectors or, for OpenMapped indexes, the mmap'd file --
  /// rows page in on first touch.
  ColumnView<uint8_t> codes(int j) const {
    assert(j >= 0 && j < num_cols_);
    return code_view_[static_cast<size_t>(j)];
  }

  /// Bin of row r in column j.
  int code(int j, int r) const {
    return codes(j)[static_cast<size_t>(r)];
  }

  /// Smallest data value in bin b of column j.
  double bin_first(int j, int b) const {
    assert(b >= 0 && b < num_bins(j));
    return bin_first_[static_cast<size_t>(j)][static_cast<size_t>(b)];
  }

  /// Largest data value in bin b of column j.
  double bin_last(int j, int b) const {
    assert(b >= 0 && b < num_bins(j));
    return bin_last_[static_cast<size_t>(j)][static_cast<size_t>(b)];
  }

  /// First rank of bin b in the sorted-by-value permutation; bins tile the
  /// permutation, so bin b spans ranks [bin_begin_rank(j, b),
  /// bin_begin_rank(j, b + 1)). bin_begin_rank(j, num_bins(j)) == N.
  int bin_begin_rank(int j, int b) const {
    assert(b >= 0 && b <= num_bins(j));
    return bin_begin_rank_[static_cast<size_t>(j)][static_cast<size_t>(b)];
  }

  /// True when the index carries its own code-ordered permutation
  /// (streamed builds do; ColumnIndex-derived builds share the
  /// ColumnIndex's instead).
  bool has_sorted_rows() const { return !sorted_view_.empty(); }

  /// Row ids ascending by (bin code, row id) -- identical to
  /// ColumnIndex::sorted_rows whenever bins are single values. Only valid
  /// when has_sorted_rows(). Mmap-backed for OpenMapped indexes, like
  /// codes().
  ColumnView<int> sorted_rows(int j) const {
    assert(has_sorted_rows());
    assert(j >= 0 && j < num_cols_);
    return sorted_view_[static_cast<size_t>(j)];
  }

  /// Bin of an arbitrary value: the first bin whose largest value is >= v,
  /// clamped to the last bin for v beyond the data maximum. For data values
  /// this inverts the codes: BinOf(j, x(r, j)) == code(j, r).
  int BinOf(int j, double v) const;

  /// Appends the index to `out` in the stable little-endian cache layout
  /// (version tag + dims + per-column bins/codes). The permutation is not
  /// written; Deserialize rebuilds it by counting when the index carried
  /// one.
  void Serialize(util::ByteWriter* out) const;

  /// Parses a serialized index, validating structure (dims, monotone bin
  /// ranks, code ranges) so truncated or corrupted payloads are rejected
  /// rather than trusted.
  static Result<std::shared_ptr<const BinnedIndex>> Deserialize(
      util::ByteReader* in);

  /// Writes the index as a write-once mapped file ("REDSBMAP"): a small
  /// serialized header (magic, version, `key_echo`, dims, per-bin
  /// metadata), then 8-byte-aligned regions holding the raw column-major
  /// uint8 codes and int32 permutation, then a trailing FNV-1a 64 checksum
  /// over everything before it. The bulk regions are byte-for-byte the
  /// in-memory arrays, so OpenMapped can point views straight into the
  /// mapping. Requires has_sorted_rows().
  Status WriteMapped(const std::string& path, uint64_t key_echo) const;

  /// Maps a WriteMapped file read-only and wraps it as an index whose code
  /// and permutation views alias the mapping: the O(n x m) payload is never
  /// copied to the heap and pages in on demand. Validates magic, version,
  /// key echo, expected shape, the full-file checksum, and the same bin
  /// structure Deserialize checks; rejects truncated or corrupted files.
  static Result<std::shared_ptr<const BinnedIndex>> OpenMapped(
      const std::string& path, uint64_t key_echo, int expect_rows,
      int expect_cols);

 private:
  BinnedIndex() = default;

  void BuildOwnPermutation();

  /// Points code_view_/sorted_view_ at the heap vectors. Every in-memory
  /// build/deserialize path ends with this; OpenMapped instead aims the
  /// views into mapped_.
  void RefreshViews();

  int num_rows_ = 0;
  int num_cols_ = 0;
  int max_bins_ = kMaxBins;
  BuildKind kind_ = BuildKind::kExactPack;
  std::vector<int> num_bins_;                    // [col]
  std::vector<std::vector<uint8_t>> codes_;      // [col][row] -> bin
  std::vector<std::vector<double>> bin_first_;   // [col][bin] smallest value
  std::vector<std::vector<double>> bin_last_;    // [col][bin] largest value
  std::vector<std::vector<int>> bin_begin_rank_; // [col][bin] perm offset
  std::vector<std::vector<int>> sorted_;         // [col][rank] -> row; may
                                                 // be empty (see above)
  /// Accessor views: one per column, aliasing either the vectors above or
  /// the mapping below. sorted_view_ is empty iff the index carries no
  /// permutation.
  std::vector<ColumnView<uint8_t>> code_view_;
  std::vector<ColumnView<int>> sorted_view_;
  util::MappedFile mapped_;  // backing store of OpenMapped indexes
};

/// Supplies a (possibly cached) BinnedIndex for a dataset. The discovery
/// engine installs one backed by its fingerprint-keyed cache so a batch of
/// method variants and every CV fold quantize the data once; when empty,
/// kernels build a private quantization.
using BinnedIndexProvider =
    std::function<std::shared_ptr<const BinnedIndex>(const Dataset&)>;

}  // namespace reds

#endif  // REDS_CORE_BINNED_INDEX_H_
