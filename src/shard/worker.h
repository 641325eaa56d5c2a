// Shard worker: one member of a sharded discovery fleet. A worker owns one
// partition of the data stream (a DatasetSource yielding only its blocks),
// speaks the shard/wire protocol over a single file descriptor, and holds
// the partition as a BinnedIndex in the global bin space -- assembled by
// the same BinnedIndex::FromRawCodes that ends a single-process streamed
// build -- plus the local label vector and a core PeelState over them, so
// every peel runs the single-process removal code and the coordinator only
// ever sees O(dims x bins) packed cells, never rows. Requests are served in
// protocol order (sketch, bins, layout, peel init, peels); one that
// arrives early, a malformed payload or an unknown type byte ends the
// worker with a typed status, sent back in a kWorkerError frame. Runs
// identically as an in-process thread (socketpair), a forked child (pipe),
// or a separate process (UNIX socket): the fd is the whole interface.
#ifndef REDS_SHARD_WORKER_H_
#define REDS_SHARD_WORKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/binned_index.h"
#include "core/dataset_source.h"
#include "core/prim_loop.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace reds::shard {

/// Serves the shard protocol on `fd` over `source`'s rows until the
/// coordinator sends kShutdown (returns OK) or the transport fails. The
/// worker's own MetricsRegistry (counters and phase timers) is shipped to
/// the coordinator on kMetricsRequest, so fleet metrics fold into one dump.
Status RunShardWorker(int fd, DatasetSource* source);

namespace internal {

/// The worker state machine, exposed for tests.
class ShardWorker {
 public:
  ShardWorker(int fd, DatasetSource* source);

  Status Serve();

 private:
  Status HandleSketch(const std::string& payload);
  Status HandleBins(const std::string& payload);
  Status HandleLayout(const std::string& payload);
  Status HandlePeelInit();
  Status HandlePeel(const std::string& payload);
  Status HandleMetrics();

  /// How far the protocol has run. Each request needs the state an earlier
  /// round built; one that arrives before it is refused, not served over
  /// empty or stale buffers.
  enum class Stage { kFresh, kSketched, kCoded, kLaidOut, kPeeling };
  Status RequireStage(Stage need, const char* request) const;

  int fd_;
  DatasetSource* source_;
  obs::MetricsRegistry metrics_;
  Stage stage_ = Stage::kFresh;

  // Streamed-build configuration, received with kSketchRequest.
  int block_rows_ = 0;
  int cap_ = 0;

  // Local partition state.
  int m_ = 0;
  std::vector<double> y_;                     // [local row]
  StreamedCoding coding_;                     // raw-bin codes of kBins
  BinnedIndex::BuildKind kind_ = BinnedIndex::BuildKind::kExactPack;
  std::shared_ptr<const BinnedIndex> index_;  // the shard, global bins
  std::unique_ptr<PeelState> peel_;           // PRIM peel state over index_
};

}  // namespace internal

}  // namespace reds::shard

#endif  // REDS_SHARD_WORKER_H_
