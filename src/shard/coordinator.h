// Shard coordinator: drives N workers through the shard/wire protocol and
// runs one discovery over the union of their partitions. The coordinator
// never sees a row -- it folds per-worker quantile-sketch summaries into
// one global bin set (the same AssembleColumnBins code path BuildStreamed
// runs, so bins are identical to a single-process build in the exact-pack
// regime), re-sums the workers' packed StreamedBinTotals cells after every
// PRIM peel (one round trip per applied peel), and folds worker
// MetricsRegistry snapshots into one fleet view. Only the PRIM pass over
// the L relabeled points is sharded: metamodels are fit (and tuned) in
// process on the small design sample D.
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
/// column after the binning rounds (no codes, no rows) -- the layouts it
/// broadcast with kLayout.
struct GlobalBins {
  int num_rows = 0;
  int num_cols = 0;
  BinnedIndex::BuildKind kind = BinnedIndex::BuildKind::kExactPack;
  std::vector<ColumnBinLayout> columns;  // [col]
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
  /// loop drives a fleet peel state whose candidates come from the shared
  /// FindPeel over the fleet-summed cells (zero communication) and whose
  /// Apply is one broadcast + gather round; every worker peels its shard
  /// with core PeelState. After each round the summed cells must hold the
  /// rows and positives the peel left, in no negative cell, or RunPrim
  /// returns InvalidArgument. Requires integral {0,1} labels (REDS
  /// relabeled streams); bit-identical to RunPrimStreamed on the union in
  /// the exact-pack regime. Requires BuildGlobalBins.
  Result<PrimResult> RunPrim(const PrimConfig& config);

  /// Folds every worker's RegistrySnapshot into `registry` (and counts the
  /// collection itself on the coordinator's own metric names).
  Status CollectMetrics(obs::MetricsRegistry* registry);

  /// Sends kShutdown to every worker. Idempotent.
  Status Shutdown();

 private:
  friend class FleetPeelState;

  Status Broadcast(uint8_t type, const std::string& payload);
  /// Gathers one reply of `type` from every worker, in worker-index order.
  Status Gather(uint8_t type, std::vector<std::string>* payloads);

  std::vector<int> fds_;
  StreamedBuildOptions options_;
  GlobalBins bins_;
  bool shut_down_ = false;
};

}  // namespace reds::shard

#endif  // REDS_SHARD_COORDINATOR_H_
