#include "shard/worker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "shard/wire.h"
#include "util/serialize.h"

namespace reds::shard {

namespace internal {

ShardWorker::ShardWorker(int fd, DatasetSource* source)
    : fd_(fd), source_(source) {}

Status ShardWorker::RequireStage(Stage need, const char* request) const {
  if (stage_ >= need) return Status::OK();
  return Status::FailedPrecondition(std::string("shard worker: ") + request +
                                    " arrived out of order");
}

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
  const double eps = in.F64();
  if (!in.ok() || block_rows_ < 1 || cap_ < 1 || cap_ > 256 ||
      !(eps > 0.0) || eps >= 0.5) {
    return Status::InvalidArgument("shard worker: bad kSketchRequest payload");
  }
  m_ = source_->num_cols();
  if (m_ <= 0) {
    return Status::InvalidArgument("shard worker: source has no columns");
  }

  Status reset = source_->Reset();
  if (!reset.ok()) return reset;

  std::vector<ColumnSketch> acc(static_cast<size_t>(m_), ColumnSketch(eps));
  y_.clear();
  obs::ScopedTimer timer(metrics_.histogram("shard.worker.sketch_ns"));
  for (;;) {
    Result<RowBlock> block = source_->NextBlock(block_rows_);
    if (!block.ok()) return block.status();
    if (block->empty()) break;
    const int rows = block->num_rows();
    Status finite = CheckFiniteBlock(block->x.data(), rows, m_);
    if (!finite.ok()) return finite;
    metrics_.counter("shard.worker.blocks")->Add();
    metrics_.counter("shard.worker.rows")->Add(static_cast<uint64_t>(rows));
    y_.insert(y_.end(), block->y, block->y + rows);
    // Per-block local sketches folded in block order -- the serial
    // BuildStreamed discipline, so a 1-worker fleet's summary state equals
    // the single-process build's even in the sketch-overflow regime.
    std::vector<ColumnSketch> local(static_cast<size_t>(m_), ColumnSketch(eps));
    SketchBlock(block->x.data(), rows, m_, cap_, &local);
    for (int j = 0; j < m_; ++j) {
      acc[static_cast<size_t>(j)].MergeFrom(local[static_cast<size_t>(j)],
                                            cap_);
    }
  }
  if (y_.size() > static_cast<size_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument("shard worker: shard exceeds 2^31 rows");
  }

  util::ByteWriter out;
  out.U64(y_.size());
  out.I32(m_);
  for (const ColumnSketch& cs : acc) cs.SerializeTo(&out);
  stage_ = Stage::kSketched;
  return WriteFrame(fd_, MsgType::kSketchReply, out);
}

Status ShardWorker::HandleBins(const std::string& payload) {
  Status order = RequireStage(Stage::kSketched, "kBins");
  if (!order.ok()) return order;
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

  // Only a column binned from the sketch has the +inf catch-all bound
  // (StreamedBinUpperBounds); exact-pack bounds are finite data values.
  kind_ = BinnedIndex::BuildKind::kExactPack;
  for (const std::vector<double>& ub : upper) {
    if (std::isinf(ub.back())) kind_ = BinnedIndex::BuildKind::kSketch;
  }
  obs::ScopedTimer timer(metrics_.histogram("shard.worker.code_ns"));
  Result<StreamedCoding> coding =
      CodeStream(source_, block_rows_, std::move(upper),
                 static_cast<int64_t>(y_.size()), nullptr);
  if (!coding.ok()) return coding.status();
  coding_ = *std::move(coding);

  util::ByteWriter out;
  out.U64(y_.size());
  for (int j = 0; j < m_; ++j) {
    const BinCodingStats& cs = coding_.stats[static_cast<size_t>(j)];
    out.VecI32(cs.count);
    out.VecF64(cs.vmin);
    out.VecF64(cs.vmax);
  }
  stage_ = Stage::kCoded;
  return WriteFrame(fd_, MsgType::kCodingReply, out);
}

Status ShardWorker::HandleLayout(const std::string& payload) {
  // The layout maps raw codes, so it applies once per kBins coding pass.
  if (stage_ != Stage::kCoded) {
    return Status::FailedPrecondition(
        "shard worker: kLayout arrived out of order");
  }
  util::ByteReader in(payload);
  std::vector<ColumnBinLayout> layouts(static_cast<size_t>(m_));
  for (int j = 0; j < m_; ++j) {
    ColumnBinLayout& layout = layouts[static_cast<size_t>(j)];
    layout.live = in.I32();
    layout.remap = in.VecU8();
    layout.first = in.VecF64();
    layout.last = in.VecF64();
    const int live = layout.live;
    const size_t raw = coding_.stats[static_cast<size_t>(j)].count.size();
    // Every local code indexes remap. A globally empty raw bin after the
    // last live one maps to `live` itself, so only the entries of bins
    // this shard coded rows into must land below it (FromRawCodes checks
    // those).
    if (!in.ok() || live < 1 || layout.remap.size() != raw ||
        static_cast<size_t>(live) > raw ||
        layout.first.size() != static_cast<size_t>(live) ||
        layout.last.size() != static_cast<size_t>(live) ||
        std::any_of(layout.remap.begin(), layout.remap.end(),
                    [live](uint8_t b) { return b > live; })) {
      return Status::InvalidArgument("shard worker: bad kLayout payload");
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("shard worker: trailing kLayout bytes");
  }
  peel_.reset();
  Result<std::shared_ptr<const BinnedIndex>> index = BinnedIndex::FromRawCodes(
      cap_, kind_, std::move(coding_.codes), std::move(layouts));
  if (!index.ok()) return index.status();
  index_ = *std::move(index);
  stage_ = Stage::kLaidOut;
  return WriteFrame(fd_, MsgType::kLayoutAck, std::string());
}

Status ShardWorker::HandlePeelInit() {
  Status order = RequireStage(Stage::kLaidOut, "kPeelInit");
  if (!order.ok()) return order;
  const std::shared_ptr<const StreamedBinTotals> totals =
      StreamedBinTotals::Build(*index_, y_.data());
  peel_ = std::make_unique<PeelState>(*index_, y_.data(), *totals,
                                      /*values=*/nullptr);
  // Lead with an integral-labels flag: the coordinator reads removed
  // positives from the cells, which count them only for {0,1} labels, and
  // only the workers ever see y.
  util::ByteWriter out;
  out.U8(totals->integral_labels ? 1 : 0);
  out.VecI64(peel_->cells());
  stage_ = Stage::kPeeling;
  return WriteFrame(fd_, MsgType::kPeelInitReply, out);
}

Status ShardWorker::HandlePeel(const std::string& payload) {
  Status order = RequireStage(Stage::kPeeling, "kPeel");
  if (!order.ok()) return order;
  util::ByteReader in(payload);
  Peel peel;
  peel.dim = in.I32();
  peel.low_side = in.U8() != 0;
  peel.bin = in.I32();
  if (!in.ok() || peel.dim < 0 || peel.dim >= m_ || peel.bin < 0 ||
      peel.bin >= index_->num_bins(peel.dim)) {
    return Status::InvalidArgument("shard worker: bad kPeel payload");
  }
  metrics_.counter("shard.worker.peels")->Add();
  // The global peel removes every in-box row below (or above) the boundary
  // bin; the shard's slice of those bins is exactly what Apply drops.
  peel_->Apply(peel);
  util::ByteWriter out;
  out.VecI64(peel_->cells());
  return WriteFrame(fd_, MsgType::kPeelReply, out);
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
