// Shard worker: one member of a sharded discovery fleet. A worker owns one
// partition of the data stream (a DatasetSource yielding only its blocks),
// speaks the shard/wire protocol over a single file descriptor, and holds
// the partition's quantized state -- local codes against the global bins,
// the local label vector, per-dimension permutations and per-global-bin
// aggregates -- so the coordinator only ever sees O(dims x bins) summaries,
// never rows. Requests are served in protocol order (sketch, bins, layout,
// peel init, peels); one that arrives early, a malformed payload or an
// unknown type byte ends the worker with a typed status, sent back in a
// kWorkerError frame. Runs identically as an in-process thread
// (socketpair), a forked child (pipe), or a separate process (UNIX
// socket): the fd is the whole interface.
#ifndef REDS_SHARD_WORKER_H_
#define REDS_SHARD_WORKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset_source.h"
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

  /// Serializes every dimension's in-box per-bin aggregates (the reply
  /// body of kPeelInitReply and kPeelReply).
  std::string AggregatesPayload() const;

  void RemoveRow(int r);

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
  double eps_ = 0.0;

  // Local partition state.
  int m_ = 0;
  int n_ = 0;                                 // local rows
  std::vector<double> y_;                     // [local row]
  std::vector<std::vector<uint8_t>> codes_;   // [dim][local row], global bins
  std::vector<int> raw_bins_;                 // [dim] bounds sent with kBins
  std::vector<int> num_bins_;                 // [dim] global live bins
  std::vector<std::vector<int>> perm_;        // [dim] rows by (code, row id)
  std::vector<std::vector<int>> begins_;      // [dim][bin] local rank offsets

  // PRIM peel state over the local partition (global bin space).
  std::vector<uint8_t> in_box_;
  int n_box_ = 0;
  std::vector<int> lo_rank_;
  std::vector<int> hi_rank_;
  std::vector<std::vector<int>> bin_count_;
  std::vector<std::vector<double>> bin_pos_;
};

}  // namespace internal

}  // namespace reds::shard

#endif  // REDS_SHARD_WORKER_H_
