// Shard coordinator: drives N workers through the shard/wire protocol and
// runs one discovery over the union of their partitions. The coordinator
// never sees a row -- it folds per-worker quantile-sketch summaries into
// one global bin set (the same AssembleColumnBins code path BuildStreamed
// runs, so bins are identical to a single-process build in the exact-pack
// regime), re-sums per-worker per-bin aggregates after every PRIM peel
// (one round trip per applied peel), and folds worker MetricsRegistry
// snapshots into one fleet view. Only the PRIM pass over the L relabeled
// points is sharded: metamodels are fit (and tuned) in process on the
// small design sample D.
#ifndef REDS_SHARD_COORDINATOR_H_
#define REDS_SHARD_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/binned_index.h"
#include "core/prim.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace reds::shard {

/// The fleet-global bin layout: what the coordinator knows about each
/// column after the binning rounds (no codes, no rows).
struct GlobalBins {
  int num_rows = 0;
  int num_cols = 0;
  BinnedIndex::BuildKind kind = BinnedIndex::BuildKind::kExactPack;
  std::vector<int> num_bins;                    // [col]
  std::vector<std::vector<double>> bin_first;   // [col][bin]
  std::vector<std::vector<double>> bin_last;    // [col][bin]
};

class ShardCoordinator {
 public:
  /// Takes the worker-end file descriptors (one per worker, already
  /// connected to a serving RunShardWorker). Does not own or close them.
  ShardCoordinator(std::vector<int> worker_fds,
                   StreamedBuildOptions options = {});

  int num_workers() const { return static_cast<int>(fds_.size()); }

  /// Runs the binning rounds: sketch pass on every worker, fold the
  /// summaries in worker-index order, broadcast global bin upper bounds,
  /// fold the coding stats, assemble and broadcast the final layout.
  /// After this the fleet agrees on one global bin space.
  Status BuildGlobalBins();

  const GlobalBins& bins() const { return bins_; }

  /// Distributed PRIM over the sharded stream: the shared RunPeelingPhase
  /// loop drives a fleet peel state whose candidates are computed from the
  /// globally-summed per-bin aggregates (zero communication) and whose
  /// Apply is one broadcast + gather round. Requires integral {0,1}
  /// labels (REDS relabeled streams); bit-identical to RunPrimStreamed on
  /// the union in the exact-pack regime. Requires BuildGlobalBins.
  Result<PrimResult> RunPrim(const PrimConfig& config);

  /// Folds every worker's RegistrySnapshot into `registry` (and counts the
  /// collection itself on the coordinator's own metric names).
  Status CollectMetrics(obs::MetricsRegistry* registry);

  /// Sends kShutdown to every worker. Idempotent.
  Status Shutdown();

 private:
  friend struct FleetPeelState;

  Status Broadcast(uint8_t type, const std::string& payload);
  /// Gathers one reply of `type` from every worker, in worker-index order.
  Status Gather(uint8_t type, std::vector<std::string>* payloads);

  /// Parses one worker's aggregate reply into its slot and re-sums the
  /// global per-bin aggregates; used by peel init and every peel round.
  Status RefreshAggregates(const std::vector<std::string>& payloads);

  std::vector<int> fds_;
  StreamedBuildOptions options_;
  GlobalBins bins_;
  bool shut_down_ = false;

  // Fleet peel aggregates (summed over workers), in the global bin space.
  int64_t box_n_ = 0;
  std::vector<std::vector<int>> bin_count_;   // [dim][bin]
  std::vector<std::vector<double>> bin_pos_;  // [dim][bin]
};

}  // namespace reds::shard

#endif  // REDS_SHARD_COORDINATOR_H_
