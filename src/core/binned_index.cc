#include "core/binned_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/quantile_sketch.h"
#include "obs/trace.h"
#include "util/fingerprint.h"
#include "util/thread_pool.h"

namespace reds {

namespace {

// One maximal run of equal values in a sorted column: ranks [begin, end).
struct ValueRun {
  int begin = 0;
  int end = 0;
};

// Greedy quantile packing of value runs into at most max_bins bins. Each
// bin closes once it holds at least the current equal-share target
// (remaining rows / remaining bins), so skewed columns cannot starve later
// bins; runs are atomic, so ties never straddle a bin boundary. Returns the
// rank offsets of the bin starts (size num_bins + 1).
std::vector<int> PackRuns(const std::vector<ValueRun>& runs, int n,
                          int max_bins) {
  std::vector<int> begins;
  if (static_cast<int>(runs.size()) <= max_bins) {
    // One bin per distinct value: histogram kernels become exact.
    begins.reserve(runs.size() + 1);
    for (const ValueRun& run : runs) begins.push_back(run.begin);
    begins.push_back(n);
    return begins;
  }
  begins.push_back(0);
  int bins_left = max_bins;
  int rows_left = n;
  int current = 0;  // rows in the open bin
  for (const ValueRun& run : runs) {
    const int run_len = run.end - run.begin;
    // Close the open bin before this run when it already met its share and
    // further bins remain; the final bin absorbs everything left.
    if (bins_left > 1 && current > 0 &&
        static_cast<double>(current) * bins_left >= rows_left) {
      begins.push_back(run.begin);
      --bins_left;
      rows_left -= current;
      current = 0;
    }
    current += run_len;
  }
  begins.push_back(n);
  return begins;
}

}  // namespace

Status CheckFiniteBlock(const double* x, int rows, int m) {
  const size_t cells = static_cast<size_t>(rows) * static_cast<size_t>(m);
  for (size_t i = 0; i < cells; ++i) {
    if (!std::isfinite(x[i])) {
      return Status::InvalidArgument(
          "non-finite value in column " + std::to_string(i % m) +
          "; streamed quantization needs finite inputs");
    }
  }
  return Status::OK();
}

// Row chunks small enough to stay in L1 while every column takes its
// values: a column at a time over the whole block would stride through it
// once per column. Each column still sees its values in row order, which
// is all its summary depends on.
void SketchBlock(const double* x, int rows, int m, int cap,
                 std::vector<ColumnSketch>* cols) {
  constexpr int kChunkRows = 128;
  for (int begin = 0; begin < rows; begin += kChunkRows) {
    const int end = std::min(rows, begin + kChunkRows);
    for (int j = 0; j < m; ++j) {
      ColumnSketch& col = (*cols)[static_cast<size_t>(j)];
      for (int r = begin; r < end; ++r) {
        col.AddValue(x[static_cast<size_t>(r) * m + j], cap);
      }
    }
  }
}

// One-time spill of the exact pairs into the sketch on cap overflow. The
// sketch is seeded lazily via weighted inserts the moment the cap breaks,
// which summarizes the exact same multiset the eager feed would have --
// with an exactly-known prefix. The sorted pairs go in as one run.
void ColumnSketch::SpillToSketch() {
  sketch.AddWeightedRun(distinct.data(), count.data(), distinct.size());
  distinct.clear();
  distinct.shrink_to_fit();
  count.clear();
  count.shrink_to_fit();
  overflow = true;
}

void ColumnSketch::AddValue(double v, int cap) {
  if (overflow) {
    sketch.Add(v);
    return;
  }
  const auto it = std::lower_bound(distinct.begin(), distinct.end(), v);
  if (it != distinct.end() && *it == v) {
    ++count[static_cast<size_t>(it - distinct.begin())];
    return;
  }
  if (static_cast<int>(distinct.size()) >= cap) {
    SpillToSketch();
    sketch.Add(v);
    return;
  }
  count.insert(count.begin() + (it - distinct.begin()), 1);
  distinct.insert(it, v);
}

void ColumnSketch::MergeFrom(const ColumnSketch& other, int cap) {
  if (!overflow && !other.overflow) {
    std::vector<double> mv;
    std::vector<int64_t> mc;
    mv.reserve(distinct.size() + other.distinct.size());
    mc.reserve(mv.capacity());
    size_t i = 0, j = 0;
    while (i < distinct.size() || j < other.distinct.size()) {
      if (j >= other.distinct.size() ||
          (i < distinct.size() && distinct[i] < other.distinct[j])) {
        mv.push_back(distinct[i]);
        mc.push_back(count[i]);
        ++i;
      } else if (i >= distinct.size() ||
                 other.distinct[j] < distinct[i]) {
        mv.push_back(other.distinct[j]);
        mc.push_back(other.count[j]);
        ++j;
      } else {
        mv.push_back(distinct[i]);
        mc.push_back(count[i] + other.count[j]);
        ++i;
        ++j;
      }
    }
    distinct = std::move(mv);
    count = std::move(mc);
    if (static_cast<int>(distinct.size()) > cap) SpillToSketch();
    return;
  }
  if (!overflow) SpillToSketch();
  if (other.overflow) {
    sketch.Merge(other.sketch);
  } else {
    sketch.AddWeightedRun(other.distinct.data(), other.count.data(),
                          other.distinct.size());
  }
}

void ColumnSketch::SerializeTo(util::ByteWriter* out) const {
  out->U8(overflow ? 1 : 0);
  if (overflow) {
    sketch.SerializeTo(out);
    return;
  }
  out->F64(sketch.eps());
  out->U64(static_cast<uint64_t>(distinct.size()));
  for (double v : distinct) out->F64(v);
  for (int64_t c : count) out->U64(static_cast<uint64_t>(c));
}

Result<ColumnSketch> ColumnSketch::DeserializeFrom(util::ByteReader* in) {
  const uint8_t overflow = in->U8();
  if (!in->ok() || overflow > 1) {
    return Status::InvalidArgument("column summary: corrupt flag");
  }
  if (overflow) {
    Result<QuantileSketch> sketch = QuantileSketch::DeserializeFrom(in);
    if (!sketch.ok()) return sketch.status();
    ColumnSketch out(sketch->eps());
    out.sketch = *std::move(sketch);
    out.overflow = true;
    return out;
  }
  const double eps = in->F64();
  const uint64_t size = in->U64();
  if (!in->ok() || !(eps > 0.0) || eps >= 1.0 ||
      size > in->remaining() / 16) {  // 8 value + 8 count bytes per pair
    return Status::InvalidArgument("column summary: corrupt pair list");
  }
  ColumnSketch out(eps);
  out.distinct.resize(static_cast<size_t>(size));
  out.count.resize(static_cast<size_t>(size));
  for (size_t i = 0; i < out.distinct.size(); ++i) {
    out.distinct[i] = in->F64();
    if (i > 0 && !(out.distinct[i] > out.distinct[i - 1])) {
      return Status::InvalidArgument("column summary: unsorted values");
    }
  }
  for (size_t i = 0; i < out.count.size(); ++i) {
    out.count[i] = static_cast<int64_t>(in->U64());
    if (out.count[i] <= 0) {
      return Status::InvalidArgument("column summary: non-positive count");
    }
  }
  if (!in->ok()) {
    return Status::InvalidArgument("column summary: truncated");
  }
  return out;
}

std::vector<double> StreamedBinUpperBounds(ColumnSketch* summary, int64_t n,
                                           int cap) {
  std::vector<double> ub;
  if (!summary->overflow) {
    ub = std::move(summary->distinct);
    return ub;
  }
  std::vector<int64_t> ranks;
  ranks.reserve(static_cast<size_t>(cap));
  for (int b = 1; b < cap; ++b) {
    ranks.push_back(static_cast<int64_t>(b) * n / cap);
  }
  for (const double v : summary->sketch.QueryRanks(ranks)) {
    if (ub.empty() || v > ub.back()) ub.push_back(v);
  }
  // Catch-all last bin; its recorded bounds come from the coding pass.
  ub.push_back(std::numeric_limits<double>::infinity());
  return ub;
}

StreamedCoder::StreamedCoder(std::vector<double> upper)
    : upper_(std::move(upper)), first_bin_(kBuckets, 0) {
  assert(!upper_.empty() && upper_.size() <= BinnedIndex::kMaxBins);
  for (const double u : upper_) reference_ = reference_ || std::isnan(u);
  if (reference_) return;
  lo_ = upper_.front();
  // The +inf catch-all bound would make every bucket infinitely wide.
  const double hi = upper_.size() > 1 && std::isinf(upper_.back())
                        ? upper_[upper_.size() - 2]
                        : upper_.back();
  const double width = hi - lo_;
  if (width > 0.0 && std::isfinite(width)) {
    scale_ = static_cast<double>(kBuckets) / width;
  }
  // first_bin_[k]: bins whose bound falls in a bucket below k (all of them
  // lie below every value of bucket k), clamped like StreamedCodeOf.
  size_t b = 0;
  for (size_t k = 0; k < kBuckets; ++k) {
    while (b < upper_.size() && Bucket(upper_[b]) < k) ++b;
    first_bin_[k] = static_cast<uint8_t>(std::min(b, upper_.size() - 1));
  }
}

void BinCodingStats::Reset(size_t bins) {
  count.assign(bins, 0);
  vmin.assign(bins, std::numeric_limits<double>::infinity());
  vmax.assign(bins, -std::numeric_limits<double>::infinity());
}

void BinCodingStats::MergeFrom(const BinCodingStats& other) {
  assert(count.size() == other.count.size());
  for (size_t b = 0; b < count.size(); ++b) {
    count[b] += other.count[b];
    vmin[b] = std::min(vmin[b], other.vmin[b]);
    vmax[b] = std::max(vmax[b], other.vmax[b]);
  }
}

ColumnBinLayout AssembleColumnBins(const BinCodingStats& stats, int n) {
  ColumnBinLayout out;
  out.remap.assign(stats.count.size(), 0);
  int live = 0;
  for (size_t b = 0; b < stats.count.size(); ++b) {
    out.remap[b] = static_cast<uint8_t>(live);
    if (stats.count[b] > 0) ++live;
  }
  out.live = live;
  out.first.reserve(static_cast<size_t>(live));
  out.last.reserve(static_cast<size_t>(live));
  out.begins.assign(static_cast<size_t>(live) + 1, 0);
  int rank = 0, slot = 0;
  for (size_t b = 0; b < stats.count.size(); ++b) {
    if (stats.count[b] == 0) continue;
    out.first.push_back(stats.vmin[b]);
    out.last.push_back(stats.vmax[b]);
    out.begins[static_cast<size_t>(slot)] = rank;
    rank += stats.count[b];
    ++slot;
  }
  out.begins[static_cast<size_t>(live)] = n;
  return out;
}

std::shared_ptr<const BinnedIndex> BinnedIndex::Build(const ColumnIndex& index,
                                                      int max_bins) {
  assert(max_bins >= 1 && max_bins <= kMaxBins);
  auto binned = std::shared_ptr<BinnedIndex>(new BinnedIndex());
  const int n = index.num_rows();
  const int m = index.num_cols();
  binned->num_rows_ = n;
  binned->num_cols_ = m;
  binned->max_bins_ = max_bins;
  binned->kind_ = BuildKind::kExactPack;
  binned->num_bins_.resize(static_cast<size_t>(m));
  binned->codes_.resize(static_cast<size_t>(m));
  binned->bin_first_.resize(static_cast<size_t>(m));
  binned->bin_last_.resize(static_cast<size_t>(m));
  binned->bin_begin_rank_.resize(static_cast<size_t>(m));

  std::vector<ValueRun> runs;
  for (int j = 0; j < m; ++j) {
    const std::vector<double>& col = index.column(j);
    const std::vector<int>& sorted = index.sorted_rows(j);

    runs.clear();
    int begin = 0;
    for (int r = 1; r <= n; ++r) {
      if (r == n || col[static_cast<size_t>(sorted[static_cast<size_t>(r)])] !=
                        col[static_cast<size_t>(
                            sorted[static_cast<size_t>(begin)])]) {
        runs.push_back({begin, r});
        begin = r;
      }
    }

    std::vector<int>& begins = binned->bin_begin_rank_[static_cast<size_t>(j)];
    begins = PackRuns(runs, n, max_bins);
    const int num_bins = static_cast<int>(begins.size()) - 1;
    binned->num_bins_[static_cast<size_t>(j)] = num_bins;

    std::vector<double>& first = binned->bin_first_[static_cast<size_t>(j)];
    std::vector<double>& last = binned->bin_last_[static_cast<size_t>(j)];
    std::vector<uint8_t>& codes = binned->codes_[static_cast<size_t>(j)];
    first.resize(static_cast<size_t>(num_bins));
    last.resize(static_cast<size_t>(num_bins));
    codes.resize(static_cast<size_t>(n));
    for (int b = 0; b < num_bins; ++b) {
      const int lo = begins[static_cast<size_t>(b)];
      const int hi = begins[static_cast<size_t>(b) + 1];
      first[static_cast<size_t>(b)] =
          col[static_cast<size_t>(sorted[static_cast<size_t>(lo)])];
      last[static_cast<size_t>(b)] =
          col[static_cast<size_t>(sorted[static_cast<size_t>(hi - 1)])];
      for (int r = lo; r < hi; ++r) {
        codes[static_cast<size_t>(sorted[static_cast<size_t>(r)])] =
            static_cast<uint8_t>(b);
      }
    }
  }
  binned->RefreshViews();
  return binned;
}

std::shared_ptr<const BinnedIndex> BinnedIndex::Build(const Dataset& d,
                                                      int max_bins) {
  return Build(*ColumnIndex::Build(d), max_bins);
}

Result<StreamedDataset> BinnedIndex::BuildStreamed(
    DatasetSource* source, const StreamedBuildOptions& options) {
  if (options.max_bins < 1 || options.max_bins > kMaxBins) {
    return Status::InvalidArgument("max_bins out of [1, 256]");
  }
  if (options.block_rows < 1) {
    return Status::InvalidArgument("block_rows must be >= 1");
  }
  if (!(options.sketch_eps > 0.0) || options.sketch_eps >= 0.5) {
    return Status::InvalidArgument("sketch_eps out of (0, 0.5)");
  }
  const int m = source->num_cols();
  if (m <= 0) return Status::InvalidArgument("source has no input columns");
  const int cap = options.max_bins;
  const int threads = std::max(1, options.threads);

  // --- Pass 1: sketches, distinct tracking, fingerprints, labels. --------
  util::DatasetHasher input_hasher(util::DatasetHasher::Scope::kInputs, m);
  util::DatasetHasher full_hasher(util::DatasetHasher::Scope::kFull, m);
  std::vector<double> y;
  std::vector<ColumnSketch> acc(static_cast<size_t>(m),
                                ColumnSketch(options.sketch_eps));

  Status reset = source->Reset();
  if (!reset.ok()) return reset;

  // One slot-based loop for every thread count: batches of up to `threads`
  // blocks are copied into private slots (block views die on the next
  // NextBlock call), sketched into per-block summaries -- concurrently
  // when a pool exists, inline otherwise -- and folded into the
  // accumulator in block order. Thread count therefore cannot change the
  // result; only block_rows can move sketch boundaries.
  // One worker pool shared by both passes. Spawning a second pool for the
  // coding pass cost more than its parallelism bought back at bench block
  // sizes (the parallel streamed build measured slower than serial);
  // threads are now created once per build.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  {
    obs::Span span("index.sketch_pass");
    if (pool == nullptr) {
      // Serial: sketch each block straight off the source's view (valid
      // until the next NextBlock call) -- no slot copies. The per-block
      // local sketch folded in block order is kept so the summary state
      // matches the threaded path exactly: thread count cannot change the
      // result, only block_rows can move sketch boundaries.
      std::vector<ColumnSketch> local;
      for (;;) {
        Result<RowBlock> block = source->NextBlock(options.block_rows);
        if (!block.ok()) return block.status();
        if (block->empty()) break;
        const int rows = block->num_rows();
        Status finite = CheckFiniteBlock(block->x.data(), rows, m);
        if (!finite.ok()) return finite;
        input_hasher.AddRows(block->x.data(), nullptr, rows);
        full_hasher.AddRows(block->x.data(), block->y, rows);
        y.insert(y.end(), block->y, block->y + rows);
        local.assign(static_cast<size_t>(m),
                     ColumnSketch(options.sketch_eps));
        SketchBlock(block->x.data(), rows, m, cap, &local);
        for (int j = 0; j < m; ++j) {
          acc[static_cast<size_t>(j)].MergeFrom(local[static_cast<size_t>(j)],
                                                cap);
        }
      }
    } else {
      struct Slot {
        std::vector<double> x, y;
        int rows = 0;
        std::vector<ColumnSketch> local;
      };
      std::vector<Slot> slots(static_cast<size_t>(threads));
      bool done = false;
      while (!done) {
        int filled = 0;
        while (filled < threads) {
          Result<RowBlock> block = source->NextBlock(options.block_rows);
          if (!block.ok()) return block.status();
          if (block->empty()) {
            done = true;
            break;
          }
          Slot& slot = slots[static_cast<size_t>(filled)];
          const int rows = block->num_rows();
          Status finite = CheckFiniteBlock(block->x.data(), rows, m);
          if (!finite.ok()) return finite;
          slot.rows = rows;
          slot.x.assign(block->x.data(),
                        block->x.data() + static_cast<size_t>(rows) * m);
          slot.y.assign(block->y, block->y + rows);
          input_hasher.AddRows(slot.x.data(), nullptr, rows);
          full_hasher.AddRows(slot.x.data(), slot.y.data(), rows);
          y.insert(y.end(), slot.y.begin(), slot.y.end());
          ++filled;
        }
        for (int s = 0; s < filled; ++s) {
          Slot& slot = slots[static_cast<size_t>(s)];
          slot.local.assign(static_cast<size_t>(m),
                            ColumnSketch(options.sketch_eps));
          pool->Submit([&slot, m, cap] {
            SketchBlock(slot.x.data(), slot.rows, m, cap, &slot.local);
          });
        }
        pool->Wait();
        for (int s = 0; s < filled; ++s) {
          for (int j = 0; j < m; ++j) {
            acc[static_cast<size_t>(j)].MergeFrom(
                slots[static_cast<size_t>(s)].local[static_cast<size_t>(j)],
                cap);
          }
        }
      }
    }
  }

  const int64_t n64 = input_hasher.rows();
  if (n64 == 0) return Status::InvalidArgument("dataset stream is empty");
  if (n64 > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("dataset stream exceeds 2^31 rows");
  }
  const int n = static_cast<int>(n64);

  // --- Bin boundaries: distinct values when they fit, sketch quantiles ---
  // otherwise. upper[j] holds ascending bin upper bounds; a value's code is
  // the first bin whose upper bound is >= it.
  std::vector<std::vector<double>> upper(static_cast<size_t>(m));
  bool any_sketch = false;
  for (int j = 0; j < m; ++j) {
    ColumnSketch& cs = acc[static_cast<size_t>(j)];
    any_sketch = any_sketch || cs.overflow;
    upper[static_cast<size_t>(j)] = StreamedBinUpperBounds(&cs, n, cap);
  }

  // --- Pass 2: code every row chunk by chunk, tracking per-bin counts ----
  // and exact min/max values.
  reset = source->Reset();
  if (!reset.ok()) return reset;

  auto binned = std::shared_ptr<BinnedIndex>(new BinnedIndex());
  binned->num_rows_ = n;
  binned->num_cols_ = m;
  binned->max_bins_ = cap;
  binned->kind_ = any_sketch ? BuildKind::kSketch : BuildKind::kExactPack;
  binned->codes_.resize(static_cast<size_t>(m));
  std::vector<BinCodingStats> stats(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    binned->codes_[static_cast<size_t>(j)].reserve(static_cast<size_t>(n));
    stats[static_cast<size_t>(j)].Reset(upper[static_cast<size_t>(j)].size());
  }

  std::vector<StreamedCoder> coders;
  coders.reserve(static_cast<size_t>(m));
  for (std::vector<double>& ub : upper) coders.emplace_back(std::move(ub));

  auto code_span = std::make_unique<obs::Span>("index.code_pass");
  ThreadPool* code_pool = (pool != nullptr && m > 1) ? pool.get() : nullptr;
  int64_t seen = 0;
  for (;;) {
    Result<RowBlock> block = source->NextBlock(options.block_rows);
    if (!block.ok()) return block.status();
    if (block->empty()) break;
    const int rows = block->num_rows();
    seen += rows;
    if (seen > n64) {
      return Status::FailedPrecondition(
          "dataset source yielded extra rows on the second pass");
    }
    const double* x = block->x.data();
    auto code_column = [&, x, rows](int j) {
      const StreamedCoder& coder = coders[static_cast<size_t>(j)];
      std::vector<uint8_t>& codes = binned->codes_[static_cast<size_t>(j)];
      BinCodingStats& cs = stats[static_cast<size_t>(j)];
      for (int r = 0; r < rows; ++r) {
        const double v = x[static_cast<size_t>(r) * m + j];
        const uint8_t b = coder.Code(v);
        codes.push_back(b);
        cs.Observe(b, v);
      }
    };
    if (code_pool != nullptr) {
      for (int j = 0; j < m; ++j) {
        code_pool->Submit([&code_column, j] { code_column(j); });
      }
      code_pool->Wait();
    } else {
      for (int j = 0; j < m; ++j) code_column(j);
    }
  }
  if (seen != n64) {
    return Status::FailedPrecondition(
        "dataset source yielded fewer rows on the second pass");
  }
  code_span.reset();  // the assemble below is not part of the coding pass

  // --- Assemble: drop empty bins, exact bounds, rank offsets, own perm. --
  binned->num_bins_.resize(static_cast<size_t>(m));
  binned->bin_first_.resize(static_cast<size_t>(m));
  binned->bin_last_.resize(static_cast<size_t>(m));
  binned->bin_begin_rank_.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    ColumnBinLayout layout =
        AssembleColumnBins(stats[static_cast<size_t>(j)], n);
    binned->num_bins_[static_cast<size_t>(j)] = layout.live;
    if (layout.live != static_cast<int>(layout.remap.size())) {
      for (uint8_t& c : binned->codes_[static_cast<size_t>(j)]) {
        c = layout.remap[c];
      }
    }
    binned->bin_first_[static_cast<size_t>(j)] = std::move(layout.first);
    binned->bin_last_[static_cast<size_t>(j)] = std::move(layout.last);
    binned->bin_begin_rank_[static_cast<size_t>(j)] = std::move(layout.begins);
  }
  binned->BuildOwnPermutation();
  binned->RefreshViews();

  StreamedDataset out;
  out.index = binned;
  out.y = std::move(y);
  out.input_fingerprint = input_hasher.Finalize();
  out.fingerprint = full_hasher.Finalize();
  return out;
}

std::shared_ptr<const StreamedBinTotals> StreamedBinTotals::Build(
    const BinnedIndex& index, const double* y) {
  const size_t n = static_cast<size_t>(index.num_rows());
  auto totals = std::make_shared<StreamedBinTotals>();
  totals->integral_labels = true;
  for (size_t r = 0; r < n; ++r) {
    const double v = y[r];
    totals->label_total += v;
    totals->integral_labels =
        totals->integral_labels && (v == 0.0 || v == 1.0);
  }
  const int m = index.num_cols();
  totals->offset.resize(static_cast<size_t>(m) + 1);
  for (int j = 0; j < m; ++j) {
    totals->offset[static_cast<size_t>(j) + 1] =
        totals->offset[static_cast<size_t>(j)] + index.num_bins(j);
  }
  totals->cells.resize(static_cast<size_t>(totals->offset.back()));
  for (int j = 0; j < m; ++j) {
    int64_t* cells =
        totals->cells.data() + totals->offset[static_cast<size_t>(j)];
    for (int b = 0; b < index.num_bins(j); ++b) {
      cells[b] = index.bin_begin_rank(j, b + 1) - index.bin_begin_rank(j, b);
    }
    if (!totals->integral_labels) continue;
    const ColumnView<uint8_t> codes = index.codes(j);
    for (size_t r = 0; r < n; ++r) {
      cells[codes[r]] += static_cast<int64_t>(y[r]) << kPosShift;
    }
  }
  return totals;
}

// Stable counting sort of each column's rows by bin code: rows ascending by
// (code, row id) -- exactly the ColumnIndex sort order whenever every bin
// holds a single distinct value.
void BinnedIndex::BuildOwnPermutation() {
  sorted_.assign(static_cast<size_t>(num_cols_), {});
  for (int j = 0; j < num_cols_; ++j) {
    std::vector<int>& perm = sorted_[static_cast<size_t>(j)];
    perm.resize(static_cast<size_t>(num_rows_));
    std::vector<int> offset(bin_begin_rank_[static_cast<size_t>(j)].begin(),
                            bin_begin_rank_[static_cast<size_t>(j)].end() - 1);
    const std::vector<uint8_t>& codes = codes_[static_cast<size_t>(j)];
    for (int r = 0; r < num_rows_; ++r) {
      perm[static_cast<size_t>(offset[codes[static_cast<size_t>(r)]]++)] = r;
    }
  }
}

void BinnedIndex::RefreshViews() {
  code_view_.resize(static_cast<size_t>(num_cols_));
  for (int j = 0; j < num_cols_; ++j) {
    const std::vector<uint8_t>& c = codes_[static_cast<size_t>(j)];
    code_view_[static_cast<size_t>(j)] = ColumnView<uint8_t>(c.data(), c.size());
  }
  sorted_view_.clear();
  if (!sorted_.empty()) {
    sorted_view_.resize(static_cast<size_t>(num_cols_));
    for (int j = 0; j < num_cols_; ++j) {
      const std::vector<int>& s = sorted_[static_cast<size_t>(j)];
      sorted_view_[static_cast<size_t>(j)] = ColumnView<int>(s.data(), s.size());
    }
  }
}

int BinnedIndex::BinOf(int j, double v) const {
  const std::vector<double>& last = bin_last_[static_cast<size_t>(j)];
  const auto it = std::lower_bound(last.begin(), last.end(), v);
  if (it == last.end()) return num_bins(j) - 1;
  return static_cast<int>(it - last.begin());
}

namespace {
constexpr uint32_t kBinnedIndexVersion = 1;
}  // namespace

void BinnedIndex::Serialize(util::ByteWriter* out) const {
  out->U32(kBinnedIndexVersion);
  out->U8(static_cast<uint8_t>(kind_));
  out->U8(has_sorted_rows() ? 1 : 0);
  out->I32(num_rows_);
  out->I32(num_cols_);
  out->I32(max_bins_);
  for (int j = 0; j < num_cols_; ++j) {
    // Through the view, not codes_: a mapped index serializes its mmap'd
    // columns just as an in-memory one does its vectors.
    const ColumnView<uint8_t> codes = code_view_[static_cast<size_t>(j)];
    out->U64(codes.size());
    for (uint8_t c : codes) out->U8(c);
    out->VecF64(bin_first_[static_cast<size_t>(j)]);
    out->VecF64(bin_last_[static_cast<size_t>(j)]);
    out->VecI32(bin_begin_rank_[static_cast<size_t>(j)]);
  }
}

Result<std::shared_ptr<const BinnedIndex>> BinnedIndex::Deserialize(
    util::ByteReader* in) {
  const auto corrupt = [](const char* what) {
    return Status::InvalidArgument(std::string("corrupt BinnedIndex: ") +
                                   what);
  };
  if (in->U32() != kBinnedIndexVersion) return corrupt("version");
  const uint8_t kind = in->U8();
  if (kind > static_cast<uint8_t>(BuildKind::kSketch)) return corrupt("kind");
  const uint8_t has_sorted = in->U8();
  if (has_sorted > 1) return corrupt("sorted flag");
  auto binned = std::shared_ptr<BinnedIndex>(new BinnedIndex());
  binned->kind_ = static_cast<BuildKind>(kind);
  binned->num_rows_ = in->I32();
  binned->num_cols_ = in->I32();
  binned->max_bins_ = in->I32();
  if (!in->ok() || binned->num_rows_ <= 0 || binned->num_cols_ <= 0 ||
      binned->max_bins_ < 1 || binned->max_bins_ > kMaxBins) {
    return corrupt("header");
  }
  const int n = binned->num_rows_;
  const int m = binned->num_cols_;
  binned->num_bins_.resize(static_cast<size_t>(m));
  binned->codes_.resize(static_cast<size_t>(m));
  binned->bin_first_.resize(static_cast<size_t>(m));
  binned->bin_last_.resize(static_cast<size_t>(m));
  binned->bin_begin_rank_.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    std::vector<uint8_t>& codes = binned->codes_[static_cast<size_t>(j)];
    std::vector<double>& first = binned->bin_first_[static_cast<size_t>(j)];
    std::vector<double>& last = binned->bin_last_[static_cast<size_t>(j)];
    std::vector<int>& begins = binned->bin_begin_rank_[static_cast<size_t>(j)];
    codes = in->VecU8();
    first = in->VecF64();
    last = in->VecF64();
    begins = in->VecI32();
    if (!in->ok()) return corrupt("truncated column payload");
    const int bins = static_cast<int>(first.size());
    binned->num_bins_[static_cast<size_t>(j)] = bins;
    if (bins < 1 || bins > binned->max_bins_ ||
        last.size() != static_cast<size_t>(bins) ||
        codes.size() != static_cast<size_t>(n) ||
        begins.size() != static_cast<size_t>(bins) + 1) {
      return corrupt("column shape");
    }
    if (begins.front() != 0 || begins.back() != n) return corrupt("bin ranks");
    for (int b = 0; b < bins; ++b) {
      if (begins[static_cast<size_t>(b)] >= begins[static_cast<size_t>(b) + 1]) {
        return corrupt("bin ranks");
      }
      if (first[static_cast<size_t>(b)] > last[static_cast<size_t>(b)]) {
        return corrupt("bin bounds");
      }
      if (b > 0 && !(first[static_cast<size_t>(b)] >
                     last[static_cast<size_t>(b) - 1])) {
        return corrupt("bin bounds");
      }
    }
    // Codes must be in range and their per-bin totals must reproduce the
    // rank offsets -- a cheap full-consistency pass that catches payload
    // bit flips the structural checks above would miss.
    std::vector<int> count(static_cast<size_t>(bins), 0);
    for (uint8_t c : codes) {
      if (c >= bins) return corrupt("code out of range");
      ++count[c];
    }
    for (int b = 0; b < bins; ++b) {
      if (count[static_cast<size_t>(b)] != begins[static_cast<size_t>(b) + 1] -
                                               begins[static_cast<size_t>(b)]) {
        return corrupt("code counts");
      }
    }
  }
  if (has_sorted) binned->BuildOwnPermutation();
  binned->RefreshViews();
  return std::shared_ptr<const BinnedIndex>(std::move(binned));
}

namespace {

// "REDSBMAP": the write-once mapped index format. Little-endian throughout.
// Layout: header blob (ByteWriter: magic, version, key echo, dims, per-bin
// metadata), zero-padding to 8 bytes, the raw column-major uint8 codes
// (m x n bytes), padding to 8, the raw column-major int32 permutation
// (m x n x 4 bytes), and a trailing FNV-1a 64 over every preceding byte.
// The bulk regions are exactly the in-memory arrays, so readers alias the
// mapping instead of copying.
constexpr uint64_t kMappedMagic = 0x52454453424d4150ULL;  // "REDSBMAP"

size_t AlignUp8(size_t v) { return (v + 7) & ~static_cast<size_t>(7); }

}  // namespace

Status BinnedIndex::WriteMapped(const std::string& path,
                                uint64_t key_echo) const {
  assert(has_sorted_rows());
  util::ByteWriter head;
  head.U64(kMappedMagic);
  head.U32(kBinnedIndexVersion);
  head.U64(key_echo);
  head.U8(static_cast<uint8_t>(kind_));
  head.I32(num_rows_);
  head.I32(num_cols_);
  head.I32(max_bins_);
  for (int j = 0; j < num_cols_; ++j) {
    head.VecF64(bin_first_[static_cast<size_t>(j)]);
    head.VecF64(bin_last_[static_cast<size_t>(j)]);
    head.VecI32(bin_begin_rank_[static_cast<size_t>(j)]);
  }

  const size_t col_bytes = static_cast<size_t>(num_rows_);
  const size_t codes_begin = AlignUp8(head.size());
  const size_t codes_bytes = static_cast<size_t>(num_cols_) * col_bytes;
  const size_t perm_begin = AlignUp8(codes_begin + codes_bytes);
  const size_t perm_bytes = codes_bytes * sizeof(int32_t);
  const size_t checksum_begin = perm_begin + perm_bytes;

  std::string buf(checksum_begin + 8, '\0');
  std::memcpy(buf.data(), head.data().data(), head.size());
  for (int j = 0; j < num_cols_; ++j) {
    const ColumnView<uint8_t> codes = code_view_[static_cast<size_t>(j)];
    std::memcpy(buf.data() + codes_begin + static_cast<size_t>(j) * col_bytes,
                codes.data(), col_bytes);
    const ColumnView<int> sorted = sorted_view_[static_cast<size_t>(j)];
    std::memcpy(buf.data() + perm_begin +
                    static_cast<size_t>(j) * col_bytes * sizeof(int32_t),
                sorted.data(), col_bytes * sizeof(int32_t));
  }
  const uint64_t checksum = util::Fnv64(buf.data(), checksum_begin);
  util::ByteWriter trailer;
  trailer.U64(checksum);
  std::memcpy(buf.data() + checksum_begin, trailer.data().data(), 8);

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IoError("cannot open " + path + " for writing");
  f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!f) {
    f.close();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

Result<std::shared_ptr<const BinnedIndex>> BinnedIndex::OpenMapped(
    const std::string& path, uint64_t key_echo, int expect_rows,
    int expect_cols) {
  const auto corrupt = [&path](const char* what) {
    return Status::InvalidArgument(std::string("corrupt mapped index ") +
                                   path + ": " + what);
  };
  Result<util::MappedFile> mapped = util::MappedFile::OpenReadOnly(path);
  if (!mapped.ok()) return mapped.status();
  const char* base = mapped->data();
  const size_t file_size = mapped->size();
  if (file_size < 8 + 4 + 8 + 1 + 12 + 8) return corrupt("truncated header");

  // The trailing checksum covers everything before it: one sequential scan
  // at open rejects bit flips anywhere in the file, including the bulk
  // regions the structural checks below never touch.
  util::ByteReader trailer(base + file_size - 8, 8);
  if (util::Fnv64(base, file_size - 8) != trailer.U64()) {
    return corrupt("checksum");
  }

  util::ByteReader in(base, file_size - 8);
  if (in.U64() != kMappedMagic) return corrupt("magic");
  if (in.U32() != kBinnedIndexVersion) return corrupt("version");
  if (in.U64() != key_echo) return corrupt("key echo");
  const uint8_t kind = in.U8();
  if (kind > static_cast<uint8_t>(BuildKind::kSketch)) return corrupt("kind");
  auto binned = std::shared_ptr<BinnedIndex>(new BinnedIndex());
  binned->kind_ = static_cast<BuildKind>(kind);
  binned->num_rows_ = in.I32();
  binned->num_cols_ = in.I32();
  binned->max_bins_ = in.I32();
  if (!in.ok() || binned->num_rows_ != expect_rows ||
      binned->num_cols_ != expect_cols || binned->num_rows_ <= 0 ||
      binned->num_cols_ <= 0 || binned->max_bins_ < 1 ||
      binned->max_bins_ > kMaxBins) {
    return corrupt("header");
  }
  const int n = binned->num_rows_;
  const int m = binned->num_cols_;
  binned->num_bins_.resize(static_cast<size_t>(m));
  binned->bin_first_.resize(static_cast<size_t>(m));
  binned->bin_last_.resize(static_cast<size_t>(m));
  binned->bin_begin_rank_.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    std::vector<double>& first = binned->bin_first_[static_cast<size_t>(j)];
    std::vector<double>& last = binned->bin_last_[static_cast<size_t>(j)];
    std::vector<int>& begins = binned->bin_begin_rank_[static_cast<size_t>(j)];
    first = in.VecF64();
    last = in.VecF64();
    begins = in.VecI32();
    if (!in.ok()) return corrupt("truncated bin metadata");
    const int bins = static_cast<int>(first.size());
    binned->num_bins_[static_cast<size_t>(j)] = bins;
    if (bins < 1 || bins > binned->max_bins_ ||
        last.size() != static_cast<size_t>(bins) ||
        begins.size() != static_cast<size_t>(bins) + 1) {
      return corrupt("column shape");
    }
    if (begins.front() != 0 || begins.back() != n) return corrupt("bin ranks");
    for (int b = 0; b < bins; ++b) {
      if (begins[static_cast<size_t>(b)] >=
          begins[static_cast<size_t>(b) + 1]) {
        return corrupt("bin ranks");
      }
      if (first[static_cast<size_t>(b)] > last[static_cast<size_t>(b)]) {
        return corrupt("bin bounds");
      }
      if (b > 0 && !(first[static_cast<size_t>(b)] >
                     last[static_cast<size_t>(b) - 1])) {
        return corrupt("bin bounds");
      }
    }
  }

  // Bulk regions: views alias the mapping; nothing is copied. Per-element
  // validation (code ranges, permutation consistency) is intentionally
  // skipped here -- it would fault in the whole payload, and the checksum
  // above already vouches for the bytes.
  const size_t head_size = file_size - 8 - in.remaining();
  const size_t col_bytes = static_cast<size_t>(n);
  const size_t codes_begin = AlignUp8(head_size);
  const size_t codes_bytes = static_cast<size_t>(m) * col_bytes;
  const size_t perm_begin = AlignUp8(codes_begin + codes_bytes);
  const size_t perm_bytes = codes_bytes * sizeof(int32_t);
  if (perm_begin + perm_bytes + 8 != file_size) return corrupt("file size");
  binned->code_view_.resize(static_cast<size_t>(m));
  binned->sorted_view_.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    binned->code_view_[static_cast<size_t>(j)] = ColumnView<uint8_t>(
        reinterpret_cast<const uint8_t*>(base + codes_begin +
                                         static_cast<size_t>(j) * col_bytes),
        col_bytes);
    binned->sorted_view_[static_cast<size_t>(j)] = ColumnView<int>(
        reinterpret_cast<const int*>(base + perm_begin +
                                     static_cast<size_t>(j) * col_bytes *
                                         sizeof(int32_t)),
        col_bytes);
  }
  binned->mapped_ = std::move(mapped).value();
  return std::shared_ptr<const BinnedIndex>(std::move(binned));
}

}  // namespace reds
