#include "shard/worker.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/binned_index.h"
#include "core/dataset.h"
#include "ml/histogram.h"
#include "ml/tuning.h"
#include "shard/wire.h"
#include "util/serialize.h"

namespace reds::shard {

namespace internal {

ShardWorker::ShardWorker(int fd, DatasetSource* source)
    : fd_(fd), source_(source) {}

Status ShardWorker::Serve() {
  for (;;) {
    Result<Frame> frame = ReadFrame(fd_);
    if (!frame.ok()) return frame.status();
    Status s = Status::OK();
    switch (frame->type) {
      case MsgType::kSketchRequest:
        s = HandleSketch(frame->payload);
        break;
      case MsgType::kBins:
        s = HandleBins(frame->payload);
        break;
      case MsgType::kLayout:
        s = HandleLayout(frame->payload);
        break;
      case MsgType::kPeelInit:
        s = HandlePeelInit();
        break;
      case MsgType::kPeel:
        s = HandlePeel(frame->payload);
        break;
      case MsgType::kTreeStart:
        s = HandleTreeStart();
        break;
      case MsgType::kTreeHist:
        s = HandleTreeHist(frame->payload);
        break;
      case MsgType::kTreeSplit:
        s = HandleTreeSplit(frame->payload);
        break;
      case MsgType::kTreeFinish:
        segments_.clear();
        break;
      case MsgType::kTuneCells: {
        util::ByteReader in(frame->payload);
        const auto kind = static_cast<ml::MetamodelKind>(in.U8());
        const uint64_t seed = in.U64();
        ml::TuningConfig config;
        config.budget = static_cast<ml::TuningBudget>(in.U8());
        config.folds = in.I32();
        config.backend = static_cast<ml::SplitBackend>(in.U8());
        config.growth = static_cast<ml::GrowthPolicy>(in.U8());
        config.max_leaves = in.I32();
        const int num_cols = in.I32();
        std::vector<double> x = in.VecF64();
        std::vector<double> y = in.VecF64();
        std::vector<int> cells = in.VecI32();
        if (!in.ok() || num_cols <= 0) {
          s = Status::InvalidArgument("shard worker: bad kTuneCells payload");
          break;
        }
        const Dataset d(num_cols, std::move(x), std::move(y));
        util::ByteWriter out;
        out.U64(cells.size());
        for (int cell : cells) {
          metrics_.counter("shard.worker.tune_cells")->Add();
          out.I32(cell);
          out.F64(ml::TuningCellLoss(kind, cell, d, seed, config));
        }
        s = WriteFrame(fd_, MsgType::kTuneReply, out);
        break;
      }
      case MsgType::kMetricsRequest:
        s = HandleMetrics();
        break;
      case MsgType::kShutdown:
        return Status::OK();
      default:
        s = Status::InvalidArgument(
            "shard worker: unexpected message type " +
            std::to_string(static_cast<int>(frame->type)));
        break;
    }
    if (!s.ok()) {
      // Tell the coordinator why before leaving, so it fails with this
      // status rather than a broken stream. Best effort: the failure may
      // be the connection itself.
      util::ByteWriter out;
      out.U8(static_cast<uint8_t>(s.code()));
      out.Str(s.message());
      (void)WriteFrame(fd_, MsgType::kWorkerError, out);
      return s;
    }
  }
}

Status ShardWorker::HandleSketch(const std::string& payload) {
  util::ByteReader in(payload);
  block_rows_ = in.I32();
  cap_ = in.I32();
  eps_ = in.F64();
  if (!in.ok() || block_rows_ < 1 || cap_ < 1 || cap_ > 256 ||
      !(eps_ > 0.0) || eps_ >= 0.5) {
    return Status::InvalidArgument("shard worker: bad kSketchRequest payload");
  }
  m_ = source_->num_cols();
  if (m_ <= 0) {
    return Status::InvalidArgument("shard worker: source has no columns");
  }

  Status reset = source_->Reset();
  if (!reset.ok()) return reset;

  std::vector<ColumnSketch> acc(static_cast<size_t>(m_), ColumnSketch(eps_));
  y_.clear();
  int64_t n = 0;
  obs::ScopedTimer timer(metrics_.histogram("shard.worker.sketch_ns"));
  for (;;) {
    Result<RowBlock> block = source_->NextBlock(block_rows_);
    if (!block.ok()) return block.status();
    if (block->empty()) break;
    const int rows = block->num_rows();
    Status finite = CheckFiniteBlock(block->x.data(), rows, m_);
    if (!finite.ok()) return finite;
    n += rows;
    metrics_.counter("shard.worker.blocks")->Add();
    metrics_.counter("shard.worker.rows")->Add(static_cast<uint64_t>(rows));
    y_.insert(y_.end(), block->y, block->y + rows);
    // Per-block local sketches folded in block order -- the serial
    // BuildStreamed discipline, so a 1-worker fleet's summary state equals
    // the single-process build's even in the sketch-overflow regime.
    std::vector<ColumnSketch> local(static_cast<size_t>(m_),
                                    ColumnSketch(eps_));
    SketchBlock(block->x.data(), rows, m_, cap_, &local);
    for (int j = 0; j < m_; ++j) {
      acc[static_cast<size_t>(j)].MergeFrom(local[static_cast<size_t>(j)],
                                            cap_);
    }
  }
  if (n > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("shard worker: shard exceeds 2^31 rows");
  }
  n_ = static_cast<int>(n);

  util::ByteWriter out;
  out.U64(static_cast<uint64_t>(n_));
  out.I32(m_);
  for (const ColumnSketch& cs : acc) cs.SerializeTo(&out);
  return WriteFrame(fd_, MsgType::kSketchReply, out);
}

Status ShardWorker::HandleBins(const std::string& payload) {
  util::ByteReader in(payload);
  const int m = in.I32();
  if (!in.ok() || m != m_) {
    return Status::InvalidArgument("shard worker: kBins dims mismatch");
  }
  std::vector<std::vector<double>> upper(static_cast<size_t>(m_));
  for (int j = 0; j < m_; ++j) {
    upper[static_cast<size_t>(j)] = in.VecF64();
    if (!in.ok() || upper[static_cast<size_t>(j)].empty() ||
        upper[static_cast<size_t>(j)].size() >
            static_cast<size_t>(BinnedIndex::kMaxBins)) {
      return Status::InvalidArgument("shard worker: bad kBins payload");
    }
  }

  Status reset = source_->Reset();
  if (!reset.ok()) return reset;

  codes_.assign(static_cast<size_t>(m_), {});
  std::vector<BinCodingStats> stats(static_cast<size_t>(m_));
  for (int j = 0; j < m_; ++j) {
    codes_[static_cast<size_t>(j)].reserve(static_cast<size_t>(n_));
    stats[static_cast<size_t>(j)].Reset(upper[static_cast<size_t>(j)].size());
  }
  std::vector<StreamedCoder> coders;
  coders.reserve(static_cast<size_t>(m_));
  for (std::vector<double>& ub : upper) coders.emplace_back(std::move(ub));

  int64_t seen = 0;
  obs::ScopedTimer timer(metrics_.histogram("shard.worker.code_ns"));
  for (;;) {
    Result<RowBlock> block = source_->NextBlock(block_rows_);
    if (!block.ok()) return block.status();
    if (block->empty()) break;
    const int rows = block->num_rows();
    seen += rows;
    const double* x = block->x.data();
    for (int j = 0; j < m_; ++j) {
      const StreamedCoder& coder = coders[static_cast<size_t>(j)];
      std::vector<uint8_t>& codes = codes_[static_cast<size_t>(j)];
      BinCodingStats& cs = stats[static_cast<size_t>(j)];
      for (int r = 0; r < rows; ++r) {
        const double v = x[static_cast<size_t>(r) * m_ + j];
        const uint8_t b = coder.Code(v);
        codes.push_back(b);
        cs.Observe(b, v);
      }
    }
  }
  if (seen != n_) {
    return Status::FailedPrecondition(
        "shard worker: source yielded a different row count on pass 2");
  }

  util::ByteWriter out;
  out.U64(static_cast<uint64_t>(n_));
  for (int j = 0; j < m_; ++j) {
    const BinCodingStats& cs = stats[static_cast<size_t>(j)];
    out.VecI32(cs.count);
    out.VecF64(cs.vmin);
    out.VecF64(cs.vmax);
  }
  return WriteFrame(fd_, MsgType::kCodingReply, out);
}

Status ShardWorker::HandleLayout(const std::string& payload) {
  util::ByteReader in(payload);
  num_bins_.assign(static_cast<size_t>(m_), 0);
  perm_.assign(static_cast<size_t>(m_), {});
  begins_.assign(static_cast<size_t>(m_), {});
  for (int j = 0; j < m_; ++j) {
    const int live = in.I32();
    const std::vector<uint8_t> remap = in.VecU8();
    if (!in.ok() || live < 1 || live > 256) {
      return Status::InvalidArgument("shard worker: bad kLayout payload");
    }
    num_bins_[static_cast<size_t>(j)] = live;
    std::vector<uint8_t>& codes = codes_[static_cast<size_t>(j)];
    if (live != static_cast<int>(remap.size())) {
      // A raw bin that is empty globally is empty locally too, so every
      // local code has a valid remap slot.
      for (uint8_t& c : codes) c = remap[c];
    }
    // Local permutation over the GLOBAL bin space: stable counting sort by
    // (global code, local row id), with local rank offsets per global bin.
    // This is exactly BinnedIndex::BuildOwnPermutation restricted to this
    // shard's rows; global bins with no local rows get empty rank spans.
    std::vector<int>& begins = begins_[static_cast<size_t>(j)];
    begins.assign(static_cast<size_t>(live) + 1, 0);
    for (uint8_t c : codes) ++begins[static_cast<size_t>(c) + 1];
    for (int b = 0; b < live; ++b) {
      begins[static_cast<size_t>(b) + 1] += begins[static_cast<size_t>(b)];
    }
    std::vector<int>& perm = perm_[static_cast<size_t>(j)];
    perm.resize(static_cast<size_t>(n_));
    std::vector<int> cursor(begins.begin(), begins.end() - 1);
    for (int r = 0; r < n_; ++r) {
      perm[static_cast<size_t>(
          cursor[static_cast<size_t>(codes[static_cast<size_t>(r)])]++)] = r;
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("shard worker: trailing kLayout bytes");
  }
  return WriteFrame(fd_, MsgType::kLayoutAck, std::string());
}

Status ShardWorker::HandlePeelInit() {
  in_box_.assign(static_cast<size_t>(n_), 1);
  n_box_ = n_;
  lo_rank_.assign(static_cast<size_t>(m_), 0);
  hi_rank_.assign(static_cast<size_t>(m_), n_);
  bin_count_.assign(static_cast<size_t>(m_), {});
  bin_pos_.assign(static_cast<size_t>(m_), {});
  for (int j = 0; j < m_; ++j) {
    const int live = num_bins_[static_cast<size_t>(j)];
    std::vector<int>& counts = bin_count_[static_cast<size_t>(j)];
    std::vector<double>& pos = bin_pos_[static_cast<size_t>(j)];
    counts.assign(static_cast<size_t>(live), 0);
    pos.assign(static_cast<size_t>(live), 0.0);
    const std::vector<int>& begins = begins_[static_cast<size_t>(j)];
    const std::vector<int>& perm = perm_[static_cast<size_t>(j)];
    for (int b = 0; b < live; ++b) {
      const int begin = begins[static_cast<size_t>(b)];
      const int end = begins[static_cast<size_t>(b) + 1];
      counts[static_cast<size_t>(b)] = end - begin;
      for (int rank = begin; rank < end; ++rank) {
        pos[static_cast<size_t>(b)] +=
            y_[static_cast<size_t>(perm[static_cast<size_t>(rank)])];
      }
    }
  }
  // Lead with an integral-labels flag: the coordinator's distributed
  // candidate math is exact only for {0,1} labels, and only the workers
  // ever see y.
  bool integral = true;
  for (double y : y_) {
    if (y != 0.0 && y != 1.0) {
      integral = false;
      break;
    }
  }
  std::string reply(1, integral ? '\x01' : '\x00');
  reply += AggregatesPayload();
  return WriteFrame(fd_, MsgType::kPeelInitReply, reply);
}

std::string ShardWorker::AggregatesPayload() const {
  util::ByteWriter out;
  out.U64(static_cast<uint64_t>(n_box_));
  for (int j = 0; j < m_; ++j) {
    out.VecI32(bin_count_[static_cast<size_t>(j)]);
    out.VecF64(bin_pos_[static_cast<size_t>(j)]);
  }
  return out.data();
}

void ShardWorker::RemoveRow(int r) {
  if (!in_box_[static_cast<size_t>(r)]) return;
  in_box_[static_cast<size_t>(r)] = 0;
  --n_box_;
  const double y = y_[static_cast<size_t>(r)];
  for (int j = 0; j < m_; ++j) {
    const uint8_t b = codes_[static_cast<size_t>(j)][static_cast<size_t>(r)];
    --bin_count_[static_cast<size_t>(j)][static_cast<size_t>(b)];
    bin_pos_[static_cast<size_t>(j)][static_cast<size_t>(b)] -= y;
  }
}

Status ShardWorker::HandlePeel(const std::string& payload) {
  util::ByteReader in(payload);
  const int dim = in.I32();
  const bool low = in.U8() != 0;
  const int bin = in.I32();
  if (!in.ok() || dim < 0 || dim >= m_ || bin < 0 ||
      bin >= num_bins_[static_cast<size_t>(dim)]) {
    return Status::InvalidArgument("shard worker: bad kPeel payload");
  }
  metrics_.counter("shard.worker.peels")->Add();

  // Mirror of RunPrimStreamed's Apply on the local slice of each global bin:
  // the global peel removes every in-box row below (or above) the boundary
  // bin, and the local permutation windows tile exactly those rows.
  const std::vector<int>& perm = perm_[static_cast<size_t>(dim)];
  const std::vector<int>& begins = begins_[static_cast<size_t>(dim)];
  if (low) {
    const int new_lo = begins[static_cast<size_t>(bin)];
    for (int rank = lo_rank_[static_cast<size_t>(dim)]; rank < new_lo;
         ++rank) {
      RemoveRow(perm[static_cast<size_t>(rank)]);
    }
    lo_rank_[static_cast<size_t>(dim)] = new_lo;
  } else {
    const int new_hi = begins[static_cast<size_t>(bin) + 1];
    for (int rank = new_hi; rank < hi_rank_[static_cast<size_t>(dim)];
         ++rank) {
      RemoveRow(perm[static_cast<size_t>(rank)]);
    }
    hi_rank_[static_cast<size_t>(dim)] = new_hi;
  }
  for (int j = 0; j < m_; ++j) {
    const std::vector<int>& p = perm_[static_cast<size_t>(j)];
    int& lo = lo_rank_[static_cast<size_t>(j)];
    int& hi = hi_rank_[static_cast<size_t>(j)];
    while (lo < hi &&
           !in_box_[static_cast<size_t>(p[static_cast<size_t>(lo)])]) {
      ++lo;
    }
    while (hi > lo &&
           !in_box_[static_cast<size_t>(p[static_cast<size_t>(hi - 1)])]) {
      --hi;
    }
  }
  return WriteFrame(fd_, MsgType::kPeelReply, AggregatesPayload());
}

Status ShardWorker::HandleTreeStart() {
  segments_.clear();
  std::vector<int>& root = segments_[0];
  root.resize(static_cast<size_t>(n_));
  for (int r = 0; r < n_; ++r) root[static_cast<size_t>(r)] = r;
  double sum = 0.0, sum_sq = 0.0;
  for (double y : y_) {
    sum += y;
    sum_sq += y * y;
  }
  util::ByteWriter out;
  out.F64(sum);
  out.F64(sum_sq);
  out.U64(static_cast<uint64_t>(n_));
  return WriteFrame(fd_, MsgType::kTreeStartReply, out);
}

Status ShardWorker::HandleTreeHist(const std::string& payload) {
  util::ByteReader in(payload);
  const int seg = in.I32();
  const auto it = segments_.find(seg);
  if (!in.ok() || it == segments_.end()) {
    return Status::InvalidArgument("shard worker: unknown tree segment");
  }
  const std::vector<int>& rows = it->second;
  util::ByteWriter out;
  std::vector<ml::HistBin> bins;
  for (int j = 0; j < m_; ++j) {
    const int live = num_bins_[static_cast<size_t>(j)];
    bins.assign(static_cast<size_t>(live), ml::HistBin{});
    ml::AccumulateHistogram(codes_[static_cast<size_t>(j)].data(),
                            rows.data(), static_cast<int>(rows.size()),
                            y_.data(), bins.data());
    ml::SerializeHistogram(bins.data(), live, &out);
  }
  return WriteFrame(fd_, MsgType::kTreeHistReply, out);
}

Status ShardWorker::HandleTreeSplit(const std::string& payload) {
  util::ByteReader in(payload);
  const int seg = in.I32();
  const int left_seg = in.I32();
  const int right_seg = in.I32();
  const int feature = in.I32();
  const int boundary_bin = in.I32();
  auto it = segments_.find(seg);
  if (!in.ok() || it == segments_.end() || feature < 0 || feature >= m_) {
    return Status::InvalidArgument("shard worker: bad kTreeSplit payload");
  }
  const std::vector<uint8_t>& codes = codes_[static_cast<size_t>(feature)];
  std::vector<int> left, right;
  double sum_l = 0.0, sq_l = 0.0, sum_r = 0.0, sq_r = 0.0;
  for (int r : it->second) {
    const double y = y_[static_cast<size_t>(r)];
    // Partition by bin code against the global boundary bin. In the
    // exact-pack regime (one distinct value per bin) this is exactly the
    // single-process partition by value against the midpoint threshold.
    if (codes[static_cast<size_t>(r)] <= boundary_bin) {
      left.push_back(r);
      sum_l += y;
      sq_l += y * y;
    } else {
      right.push_back(r);
      sum_r += y;
      sq_r += y * y;
    }
  }
  segments_.erase(it);
  util::ByteWriter out;
  out.F64(sum_l);
  out.F64(sq_l);
  out.U64(static_cast<uint64_t>(left.size()));
  out.F64(sum_r);
  out.F64(sq_r);
  out.U64(static_cast<uint64_t>(right.size()));
  segments_[left_seg] = std::move(left);
  segments_[right_seg] = std::move(right);
  return WriteFrame(fd_, MsgType::kTreeSplitReply, out);
}

Status ShardWorker::HandleMetrics() {
  util::ByteWriter out;
  metrics_.TakeSnapshot().SerializeTo(&out);
  return WriteFrame(fd_, MsgType::kMetricsReply, out);
}

}  // namespace internal

Status RunShardWorker(int fd, DatasetSource* source) {
  internal::ShardWorker worker(fd, source);
  return worker.Serve();
}

}  // namespace reds::shard
