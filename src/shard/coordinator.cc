#include "shard/coordinator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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
  bins_.num_bins.assign(static_cast<size_t>(m), 0);
  bins_.bin_first.assign(static_cast<size_t>(m), {});
  bins_.bin_last.assign(static_cast<size_t>(m), {});
  util::ByteWriter layout_msg;
  for (int j = 0; j < m; ++j) {
    ColumnBinLayout layout =
        AssembleColumnBins(stats[static_cast<size_t>(j)], n);
    layout_msg.I32(layout.live);
    layout_msg.VecU8(layout.remap);
    bins_.num_bins[static_cast<size_t>(j)] = layout.live;
    bins_.bin_first[static_cast<size_t>(j)] = std::move(layout.first);
    bins_.bin_last[static_cast<size_t>(j)] = std::move(layout.last);
  }
  s = Broadcast(static_cast<uint8_t>(MsgType::kLayout), layout_msg.data());
  if (!s.ok()) return s;
  return Gather(static_cast<uint8_t>(MsgType::kLayoutAck), &replies);
}

Status ShardCoordinator::RefreshAggregates(
    const std::vector<std::string>& payloads) {
  const int m = bins_.num_cols;
  box_n_ = 0;
  bin_count_.assign(static_cast<size_t>(m), {});
  bin_pos_.assign(static_cast<size_t>(m), {});
  for (int j = 0; j < m; ++j) {
    bin_count_[static_cast<size_t>(j)].assign(
        static_cast<size_t>(bins_.num_bins[static_cast<size_t>(j)]), 0);
    bin_pos_[static_cast<size_t>(j)].assign(
        static_cast<size_t>(bins_.num_bins[static_cast<size_t>(j)]), 0.0);
  }
  for (const std::string& payload : payloads) {
    util::ByteReader in(payload);
    box_n_ += static_cast<int64_t>(in.U64());
    for (int j = 0; j < m; ++j) {
      const std::vector<int> count = in.VecI32();
      const std::vector<double> pos = in.VecF64();
      if (!in.ok() ||
          count.size() != bin_count_[static_cast<size_t>(j)].size() ||
          pos.size() != count.size()) {
        return Status::InvalidArgument(
            "shard coordinator: bad aggregate reply");
      }
      for (size_t b = 0; b < count.size(); ++b) {
        bin_count_[static_cast<size_t>(j)][b] += count[b];
        bin_pos_[static_cast<size_t>(j)][b] += pos[b];
      }
    }
  }
  return Status::OK();
}

// The fleet peel state RunPeelingPhase drives. MakeCandidate makes
// RunPrimStreamed's integral-label candidate decisions, evaluated on the
// globally-summed aggregates (the candidate is a pure function of them, so
// no communication happens until a peel is applied). Apply is one
// broadcast + gather round: workers remove the peeled rows from their
// partition and reply with full updated local aggregates, which re-sum
// exactly (integer counts; {0,1} label masses).
struct FleetPeelState {
  ShardCoordinator* coord;
  Status error = Status::OK();

  int n() const { return static_cast<int>(coord->box_n_); }

  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const int n_box = n();
    const int k =
        std::max(1, static_cast<int>(std::floor(alpha * n_box)));
    if (k >= n_box) return peel;

    const GlobalBins& bins = coord->bins_;
    double removed_n = 0.0;
    double removed_pos = 0.0;
    int b;
    if (low_side) {
      b = BinAtInBoxRank(dim, k);
      int p;
      double pos_below;
      PrefixBelow(dim, b, &p, &pos_below);
      if (p == 0) {
        const int q =
            p + coord->bin_count_[static_cast<size_t>(dim)]
                               [static_cast<size_t>(b)];
        if (q >= n_box) return peel;  // dimension is constant in box
        b = BinAtInBoxRank(dim, q);
        PrefixBelow(dim, b, &p, &pos_below);
      }
      removed_n = p;
      removed_pos = pos_below;
      peel.bound = bins.bin_first[static_cast<size_t>(dim)]
                                 [static_cast<size_t>(b)];
    } else {
      b = BinAtInBoxRank(dim, n_box - 1 - k);
      int q;
      double pos_through;
      PrefixThrough(dim, b, &q, &pos_through);
      if (q >= n_box) {
        int p;
        double ignored;
        PrefixBelow(dim, b, &p, &ignored);
        if (p == 0) return peel;  // dimension is constant in box
        b = BinAtInBoxRank(dim, p - 1);
        PrefixThrough(dim, b, &q, &pos_through);
      }
      removed_n = n_box - q;
      removed_pos = in_stats.n_pos - pos_through;
      peel.bound = bins.bin_last[static_cast<size_t>(dim)]
                                [static_cast<size_t>(b)];
    }
    if (removed_n >= n_box) return peel;

    peel.dim = dim;
    peel.low_side = low_side;
    peel.bin = b;
    peel.removed_n = removed_n;
    peel.removed_pos = removed_pos;
    peel.precision_after =
        (in_stats.n_pos - removed_pos) / (in_stats.n - removed_n);
    return peel;
  }

  void Apply(const Peel& peel, BoxStats* stats) {
    util::ByteWriter msg;
    msg.I32(peel.dim);
    msg.U8(peel.low_side ? 1 : 0);
    msg.I32(peel.bin);
    Status s = coord->Broadcast(static_cast<uint8_t>(MsgType::kPeel),
                                msg.data());
    std::vector<std::string> replies;
    if (s.ok()) {
      s = coord->Gather(static_cast<uint8_t>(MsgType::kPeelReply), &replies);
    }
    if (s.ok()) s = coord->RefreshAggregates(replies);
    if (!s.ok()) {
      // Transport failure mid-peel: zero the state so the loop's next
      // candidate pass finds nothing and exits; RunPrim reports `error`.
      error = s;
      coord->box_n_ = 0;
      return;
    }
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
    assert(coord->box_n_ == static_cast<int64_t>(stats->n) &&
           "fleet aggregates drifted from the peel accounting");
  }

 private:
  int BinAtInBoxRank(int dim, int rank) const {
    const std::vector<int>& counts =
        coord->bin_count_[static_cast<size_t>(dim)];
    int cum = 0;
    for (size_t b = 0; b < counts.size(); ++b) {
      cum += counts[b];
      if (cum > rank) return static_cast<int>(b);
    }
    assert(false && "in-box rank out of range");
    return static_cast<int>(counts.size()) - 1;
  }

  void PrefixBelow(int dim, int b, int* count, double* pos) const {
    const std::vector<int>& counts =
        coord->bin_count_[static_cast<size_t>(dim)];
    const std::vector<double>& pos_sums =
        coord->bin_pos_[static_cast<size_t>(dim)];
    *count = 0;
    *pos = 0.0;
    for (int i = 0; i < b; ++i) {
      *count += counts[static_cast<size_t>(i)];
      *pos += pos_sums[static_cast<size_t>(i)];
    }
  }

  void PrefixThrough(int dim, int b, int* count, double* pos) const {
    PrefixBelow(dim, b + 1, count, pos);
  }
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

  // Workers prepend an integral-labels flag to the init aggregates; the
  // distributed candidate math is exact only for {0,1} labels.
  std::vector<std::string> aggregates;
  aggregates.reserve(replies.size());
  for (const std::string& reply : replies) {
    if (reply.empty()) {
      return Status::InvalidArgument("shard coordinator: empty peel init");
    }
    if (reply[0] == 0) {
      return Status::InvalidArgument(
          "sharded PRIM requires integral {0,1} labels");
    }
    aggregates.push_back(reply.substr(1));
  }
  s = RefreshAggregates(aggregates);
  if (!s.ok()) return s;
  if (box_n_ != bins_.num_rows) {
    return Status::InvalidArgument(
        "shard coordinator: init aggregates disagree with the row count");
  }

  double total_pos = 0.0;
  for (double p : bin_pos_[0]) total_pos += p;

  FleetPeelState state{this};
  PrimResult result =
      RunPeelingPhase(bins_.num_cols, static_cast<double>(bins_.num_rows),
                      total_pos, /*val=*/nullptr, config, &state);
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
