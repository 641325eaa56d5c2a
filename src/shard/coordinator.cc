#include "shard/coordinator.h"

#include <cassert>
#include <limits>
#include <string>
#include <utility>

#include "core/prim_loop.h"
#include "shard/wire.h"

namespace reds::shard {

ShardCoordinator::ShardCoordinator(std::vector<int> worker_fds,
                                   StreamedBuildOptions options)
    : fds_(std::move(worker_fds)), options_(options) {
  assert(!fds_.empty());
}

Status ShardCoordinator::Broadcast(uint8_t type, const std::string& payload) {
  for (int fd : fds_) {
    Status s = WriteFrame(fd, static_cast<MsgType>(type), payload);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardCoordinator::Gather(uint8_t type,
                                std::vector<std::string>* payloads) {
  payloads->clear();
  payloads->reserve(fds_.size());
  for (int fd : fds_) {
    Result<Frame> frame = ExpectFrame(fd, static_cast<MsgType>(type));
    if (!frame.ok()) return frame.status();
    payloads->push_back(std::move(frame->payload));
  }
  return Status::OK();
}

Status ShardCoordinator::BuildGlobalBins() {
  const int cap = options_.max_bins;

  // Round 1: every worker sketches its shard; summaries fold in
  // worker-index order (deterministic even when a column overflowed into
  // its GK sketch, whose merge is order-dependent).
  util::ByteWriter req;
  req.I32(options_.block_rows);
  req.I32(cap);
  req.F64(options_.sketch_eps);
  Status s = Broadcast(static_cast<uint8_t>(MsgType::kSketchRequest),
                       req.data());
  if (!s.ok()) return s;
  std::vector<std::string> replies;
  s = Gather(static_cast<uint8_t>(MsgType::kSketchReply), &replies);
  if (!s.ok()) return s;

  int64_t n64 = 0;
  int m = -1;
  std::vector<ColumnSketch> acc;
  for (size_t w = 0; w < replies.size(); ++w) {
    util::ByteReader in(replies[w]);
    const int64_t n_w = static_cast<int64_t>(in.U64());
    const int m_w = in.I32();
    if (!in.ok() || n_w < 0 || m_w <= 0 || (m >= 0 && m_w != m)) {
      return Status::InvalidArgument(
          "shard coordinator: inconsistent sketch reply");
    }
    if (m < 0) {
      m = m_w;
      acc.assign(static_cast<size_t>(m), ColumnSketch(options_.sketch_eps));
    }
    n64 += n_w;
    for (int j = 0; j < m; ++j) {
      Result<ColumnSketch> cs = ColumnSketch::DeserializeFrom(&in);
      if (!cs.ok()) return cs.status();
      acc[static_cast<size_t>(j)].MergeFrom(*cs, cap);
    }
  }
  if (n64 == 0) return Status::InvalidArgument("sharded stream is empty");
  if (n64 > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("sharded stream exceeds 2^31 rows");
  }
  const int n = static_cast<int>(n64);

  // Global bin upper bounds via the exact BuildStreamed derivation.
  bool any_sketch = false;
  std::vector<std::vector<double>> upper(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    ColumnSketch& cs = acc[static_cast<size_t>(j)];
    any_sketch = any_sketch || cs.overflow;
    upper[static_cast<size_t>(j)] = StreamedBinUpperBounds(&cs, n, cap);
  }

  // Round 2: broadcast the bounds; every worker codes its rows against
  // them and ships its per-raw-bin coding stats; stats are additive.
  util::ByteWriter bins_msg;
  bins_msg.I32(m);
  for (int j = 0; j < m; ++j) bins_msg.VecF64(upper[static_cast<size_t>(j)]);
  s = Broadcast(static_cast<uint8_t>(MsgType::kBins), bins_msg.data());
  if (!s.ok()) return s;
  s = Gather(static_cast<uint8_t>(MsgType::kCodingReply), &replies);
  if (!s.ok()) return s;

  std::vector<BinCodingStats> stats(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    stats[static_cast<size_t>(j)].Reset(upper[static_cast<size_t>(j)].size());
  }
  for (size_t w = 0; w < replies.size(); ++w) {
    util::ByteReader in(replies[w]);
    const int64_t n_w = static_cast<int64_t>(in.U64());
    (void)n_w;
    for (int j = 0; j < m; ++j) {
      BinCodingStats part;
      part.count = in.VecI32();
      part.vmin = in.VecF64();
      part.vmax = in.VecF64();
      if (!in.ok() ||
          part.count.size() != upper[static_cast<size_t>(j)].size() ||
          part.vmin.size() != part.count.size() ||
          part.vmax.size() != part.count.size()) {
        return Status::InvalidArgument(
            "shard coordinator: bad coding stats reply");
      }
      stats[static_cast<size_t>(j)].MergeFrom(part);
    }
  }

  // Assemble the final layout from the fleet-summed stats -- the same
  // AssembleColumnBins call BuildStreamed makes per column, on identical
  // inputs, so the global layout equals the single-process one.
  bins_.num_rows = n;
  bins_.num_cols = m;
  bins_.kind = any_sketch ? BinnedIndex::BuildKind::kSketch
                          : BinnedIndex::BuildKind::kExactPack;
  bins_.columns.clear();
  util::ByteWriter layout_msg;
  for (const BinCodingStats& column_stats : stats) {
    ColumnBinLayout layout = AssembleColumnBins(column_stats);
    layout_msg.I32(layout.live);
    layout_msg.VecU8(layout.remap);
    layout_msg.VecF64(layout.first);
    layout_msg.VecF64(layout.last);
    bins_.columns.push_back(std::move(layout));
  }
  s = Broadcast(static_cast<uint8_t>(MsgType::kLayout), layout_msg.data());
  if (!s.ok()) return s;
  return Gather(static_cast<uint8_t>(MsgType::kLayoutAck), &replies);
}

// The fleet peel state RunPeelingPhase drives: the in-box StreamedBinTotals
// cells of the whole fleet, summed over the workers' replies. Candidates
// come from the shared FindPeel over those cells and the global bin edges
// (the search is a pure function of them, so no communication happens
// until a peel is applied); the coordinator sees no row, so it never
// refines and needs integral labels. Apply is one broadcast + gather
// round: every worker applies the peel to its shard with core PeelState
// and replies with its updated cells, which re-sum exactly.
class FleetPeelState {
 public:
  static constexpr bool kSeesRows = false;

  explicit FleetPeelState(ShardCoordinator* coord)
      : columns_(coord->bins_.columns), coord_(coord), offset_(1, 0) {
    for (const ColumnBinLayout& c : columns_) {
      offset_.push_back(offset_.back() + c.live);
    }
  }

  // Sums the workers' cell replies. Every column of the sum must hold
  // exactly `rows` in-box rows and `positives` positives (-1: the same
  // count in every column, whatever it is), in cells none of which is
  // negative; otherwise the fleet drifted from the peel accounting.
  Status Sum(const std::vector<std::string>& payloads, int64_t rows,
             int64_t positives) {
    // Unsigned sums wrap instead of overflowing on a corrupt reply; the
    // checks below refuse whatever they produce.
    std::vector<uint64_t> sum(static_cast<size_t>(offset_.back()), 0);
    for (const std::string& payload : payloads) {
      util::ByteReader in(payload);
      const std::vector<int64_t> cells = in.VecI64();
      if (!in.ok() || !in.AtEnd() || cells.size() != sum.size()) {
        return Status::InvalidArgument("shard coordinator: bad cells reply");
      }
      for (size_t c = 0; c < sum.size(); ++c) {
        sum[c] += static_cast<uint64_t>(cells[c]);
      }
    }
    for (size_t j = 0; j + 1 < offset_.size(); ++j) {
      bool negative = false;
      int64_t col_rows = 0, col_pos = 0;
      for (int c = offset_[j]; c < offset_[j + 1]; ++c) {
        const int64_t cell = static_cast<int64_t>(sum[static_cast<size_t>(c)]);
        negative = negative || cell < 0 || StreamedBinTotals::Rows(cell) < 0;
        col_rows += StreamedBinTotals::Rows(cell);
        col_pos += StreamedBinTotals::Positives(cell);
      }
      if (positives < 0) positives = col_pos;
      if (negative || col_rows != rows || col_pos != positives) {
        return Status::InvalidArgument(
            "shard coordinator: fleet cells drifted from the peel accounting");
      }
    }
    cells_.assign(sum.begin(), sum.end());
    rows_ = static_cast<int>(rows);
    positives_ = positives;
    return Status::OK();
  }

  int64_t positives() const { return positives_; }

  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    return FindPeel(*this, dim, low_side, alpha, in_stats);
  }

  void Apply(const Peel& peel) {
    util::ByteWriter msg;
    msg.I32(peel.dim);
    msg.U8(peel.low_side ? 1 : 0);
    msg.I32(peel.bin);
    Status s = coord_->Broadcast(static_cast<uint8_t>(MsgType::kPeel),
                                 msg.data());
    std::vector<std::string> replies;
    if (s.ok()) {
      s = coord_->Gather(static_cast<uint8_t>(MsgType::kPeelReply), &replies);
    }
    if (s.ok()) {
      s = Sum(replies, rows_ - static_cast<int64_t>(peel.removed_n),
              positives_ - static_cast<int64_t>(peel.removed_pos));
    }
    if (!s.ok()) {
      // Failed round: empty the box so the loop's next candidate pass
      // finds nothing and exits; RunPrim reports `error`.
      error = s;
      rows_ = 0;
    }
  }

  // Bin accessors of FindPeel.
  int InBoxRows() const { return rows_; }
  const int64_t* Cells(int dim) const {
    return cells_.data() + offset_[static_cast<size_t>(dim)];
  }
  int FirstBin(int dim) const {
    const int64_t* cells = Cells(dim);
    int b = 0;
    while (StreamedBinTotals::Rows(cells[b]) == 0) ++b;
    return b;
  }
  int LastBin(int dim) const {
    const int64_t* cells = Cells(dim);
    int b = columns_[static_cast<size_t>(dim)].live - 1;
    while (StreamedBinTotals::Rows(cells[b]) == 0) --b;
    return b;
  }
  double Edge(int dim, int b, bool low_side) const {
    const ColumnBinLayout& c = columns_[static_cast<size_t>(dim)];
    return (low_side ? c.first : c.last)[static_cast<size_t>(b)];
  }

  Status error = Status::OK();

 private:
  const std::vector<ColumnBinLayout>& columns_;  // the global bins
  ShardCoordinator* coord_;
  std::vector<int> offset_;     // [dim] first cell of dim; size dims + 1
  std::vector<int64_t> cells_;  // fleet-summed in-box cells
  int rows_ = 0;                // in-box rows
  int64_t positives_ = 0;       // in-box positives
};

Result<PrimResult> ShardCoordinator::RunPrim(const PrimConfig& config) {
  if (bins_.num_rows == 0) {
    return Status::FailedPrecondition(
        "ShardCoordinator::RunPrim before BuildGlobalBins");
  }
  Status s = Broadcast(static_cast<uint8_t>(MsgType::kPeelInit), "");
  if (!s.ok()) return s;
  std::vector<std::string> replies;
  s = Gather(static_cast<uint8_t>(MsgType::kPeelInitReply), &replies);
  if (!s.ok()) return s;

  // Workers prepend an integral-labels flag to their init cells: the
  // cells count positives only for {0,1} labels.
  for (std::string& reply : replies) {
    if (!reply.empty() && reply[0] == 0) {
      return Status::InvalidArgument(
          "sharded PRIM requires integral {0,1} labels");
    }
    reply.erase(0, 1);  // an empty reply fails the parse in Sum
  }
  FleetPeelState state(this);
  s = state.Sum(replies, bins_.num_rows, /*positives=*/-1);
  if (!s.ok()) return s;

  PrimResult result = RunPeelingPhase(
      bins_.num_cols, static_cast<double>(bins_.num_rows),
      static_cast<double>(state.positives()), /*val=*/nullptr, config,
      &state);
  if (!state.error.ok()) return state.error;
  return result;
}

Status ShardCoordinator::CollectMetrics(obs::MetricsRegistry* registry) {
  Status s = Broadcast(static_cast<uint8_t>(MsgType::kMetricsRequest), "");
  if (!s.ok()) return s;
  std::vector<std::string> replies;
  s = Gather(static_cast<uint8_t>(MsgType::kMetricsReply), &replies);
  if (!s.ok()) return s;
  for (const std::string& reply : replies) {
    util::ByteReader in(reply);
    obs::RegistrySnapshot snapshot;
    if (!obs::RegistrySnapshot::DeserializeFrom(&in, &snapshot)) {
      return Status::InvalidArgument(
          "shard coordinator: bad metrics snapshot");
    }
    registry->MergeSnapshot(snapshot);
  }
  registry->gauge("shard.coordinator.workers")->Set(num_workers());
  registry->counter("shard.coordinator.metric_folds")
      ->Add(static_cast<uint64_t>(replies.size()));
  return Status::OK();
}

Status ShardCoordinator::Shutdown() {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  return Broadcast(static_cast<uint8_t>(MsgType::kShutdown), "");
}

}  // namespace reds::shard
