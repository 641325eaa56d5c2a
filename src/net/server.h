// DiscoveryServer: the engine served over a socket. A single-threaded
// epoll loop owns every connection -- accept, nonblocking reads through a
// shard::FrameDecoder, nonblocking writes through a FrameWriteQueue,
// keepalive expiry, half-close draining -- while a small decode pool does
// the per-request work (payload parsing, dataset materialization, engine
// submission) off the loop. Completion fans back in over a pipe: engine
// job callbacks push encoded reply frames onto a mutex-guarded event queue
// and write one wakeup byte; the loop drains the queue and feeds each
// connection's write queue, so no engine thread ever touches a socket.
//
// Admission control is the perf core. Before a submit takes a pool slot it
// must clear (in order):
//   1. the result cache -- an identical request that already completed is
//      replayed outright (requests are declarative and deterministic), so
//      it burns no slot and bypasses every cap;
//   2. coalescing exemption -- an identical eager request already in
//      flight means this one attaches to that leader and burns no slot,
//      so it bypasses every cap (the whole point of single-flight);
//   3. the per-client in-flight quota (max_inflight_per_client);
//   4. the global queue-depth cap (max_queue_depth), checked against
//      DiscoveryEngine::inflight_leader_jobs() -- the gauge of actual
//      pool-slot holders, not raw submissions.
// A refused submit is shed, not queued: the client gets a kShed frame with
// retry_after_ms and owns the retry, which is what keeps p99 bounded past
// saturation instead of collapsing into an unbounded server-side queue.
#ifndef REDS_NET_SERVER_H_
#define REDS_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "engine/discovery_engine.h"
#include "net/protocol.h"
#include "shard/wire.h"
#include "util/lru_map.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace reds::net {

struct ServerConfig {
  /// "unix:/path/to.sock" or "tcp:host:port" (port 0 picks an ephemeral
  /// port; address() reports the resolved one).
  std::string address = "tcp:127.0.0.1:0";

  /// Threads parsing payloads and materializing datasets off the loop.
  int decode_threads = 2;

  /// Global cap on engine pool-slot holders (leaders + non-coalescible
  /// jobs). A submit arriving with inflight_leader_jobs() at the cap is
  /// shed. 0 = unlimited.
  int max_queue_depth = 0;

  /// Per-connection cap on admitted-but-undelivered requests. 0 = unlimited.
  int max_inflight_per_client = 0;

  /// Retry hint carried by kShed frames.
  uint32_t retry_after_ms = 50;

  /// Connections idle longer than this (no reads, no result deliveries,
  /// nothing in flight) are closed. 0 = never.
  int keepalive_ms = 0;

  /// Per-frame payload cap enforced by the decoder against hostile peers.
  size_t max_frame_bytes = 8u << 20;

  /// Upper bound on rows * dims an eager request may materialize.
  int64_t max_eager_cells = 50'000'000;

  /// Server-side LRU of completed results, keyed by a fingerprint of the
  /// request minus its id. Requests are declarative and deterministic, so
  /// an identical repeat replays the stored trajectory instead of
  /// re-running discovery: warm latency over the wire becomes the cost of
  /// the net stack, not of a PRIM recompute, and the replay burns no
  /// engine slot (so, like coalesced followers, it bypasses admission
  /// caps). 0 disables the cache.
  size_t result_cache_entries = 32;

  /// Boxes per kResultBoxes frame when a request streams its trajectory.
  int result_chunk_boxes = 64;
};

class DiscoveryServer {
 public:
  /// The engine is borrowed and must outlive the server. Net metrics
  /// (net.* counters, the decode pool's net.decode.* gauges) register in
  /// the engine's registry so one kMetricsScrape covers both layers.
  DiscoveryServer(engine::DiscoveryEngine* engine, ServerConfig config);
  ~DiscoveryServer();

  DiscoveryServer(const DiscoveryServer&) = delete;
  DiscoveryServer& operator=(const DiscoveryServer&) = delete;

  /// Binds, listens, and starts the loop + decode threads.
  Status Start();

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent; the destructor calls it. Engine jobs already admitted
  /// keep running to completion (their delivery callbacks become no-ops).
  void Stop();

  /// The bound address in config grammar, with the resolved TCP port.
  const std::string& address() const { return bound_address_; }

  const ServerConfig& config() const { return config_; }

 private:
  /// Reply frames and bookkeeping crossing from decode/engine threads to
  /// the loop. inflight_delta is applied by the loop *after* the frames
  /// are queued, so a draining connection is never closed between its
  /// in-flight count reaching zero and its final frames arriving.
  struct Event {
    uint64_t conn_id = 0;
    std::vector<std::pair<shard::MsgType, std::string>> frames;
    int inflight_delta = 0;
    bool fatal = false;  // close the connection once the frames flush
  };

  /// Shared with decode threads and engine callbacks; owns the wakeup
  /// pipe's write end. Outlives the server via shared_ptr so a job
  /// finishing after Stop() pushes into a closed queue harmlessly.
  struct EventQueue {
    std::mutex mutex;
    std::vector<Event> events;
    int wake_fd = -1;  // write end of the loop's wakeup pipe
    bool open = false;

    void Push(Event event);
    void Close();
  };

  /// Cross-thread slice of one connection. The loop owns lifecycle
  /// (alive); decode threads admit (inflight up, jobs insert); engine
  /// callbacks retire (jobs erase; inflight comes down via the event).
  struct ConnShared {
    std::atomic<bool> alive{true};
    std::atomic<int> inflight{0};
    std::mutex mutex;
    std::unordered_map<uint64_t, engine::JobHandle> jobs;  // by request id
  };

  /// A completed request's replayable outcome (successes only; failures
  /// are never cached). Everything a result frame sequence needs, so a hit
  /// is served without touching the engine.
  struct CachedResult {
    std::vector<Box> trajectory;
    Box last_box;
    int32_t restricted = 0;
    double runtime_seconds = 0.0;
  };

  /// Completed-result LRU shared with engine completion callbacks, which
  /// may outlive the server (admitted jobs keep running after Stop());
  /// hence the shared_ptr ownership and internal mutex.
  struct ResultCache {
    explicit ResultCache(size_t capacity) : map(capacity) {}
    std::mutex mutex;
    LruMap<uint64_t, std::shared_ptr<const CachedResult>> map;
  };

  /// Loop-thread-only connection state.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    shard::FrameDecoder decoder;
    shard::FrameWriteQueue out;
    bool want_write = false;  // EPOLLOUT currently registered
    bool hello_done = false;
    bool draining = false;  // peer half-closed: deliver results, then close
    bool closing = false;   // protocol-fatal: flush what is queued, close
    std::chrono::steady_clock::time_point last_activity;
    std::shared_ptr<ConnShared> shared;

    explicit Connection(size_t max_frame) : decoder(max_frame) {}
  };

  // Loop thread.
  void LoopThread();
  void AcceptNew();
  void HandleReadable(Connection* conn, bool hup);
  void HandleWritable(Connection* conn);
  void DispatchFrame(Connection* conn, shard::Frame frame);
  void ProcessEvents();
  void SweepKeepalive();
  void FlushConn(Connection* conn);
  void SetWriteInterest(Connection* conn, bool want);
  void BeginDrain(Connection* conn);
  /// Closes now if the connection has nothing left to deliver.
  void MaybeFinishClose(Connection* conn);
  void CloseConn(uint64_t conn_id);
  void SendFrame(Connection* conn, shard::MsgType type,
                 const std::string& payload);
  /// kError + fatal close: the byte stream can no longer be trusted.
  void ProtocolError(Connection* conn, uint64_t request_id,
                     const std::string& message);
  Connection* FindConn(uint64_t conn_id);

  // Decode threads.
  void HandleSubmit(uint64_t conn_id, std::shared_ptr<ConnShared> shared,
                    const std::string& payload);
  void HandleScrape(uint64_t conn_id, const std::string& payload);
  Status ValidateSubmit(const SubmitRequest& msg) const;
  Result<std::shared_ptr<const Dataset>> EagerDataset(
      const shard::SourceSpec& spec);
  void Shed(uint64_t conn_id, uint64_t request_id, const std::string& reason);
  /// Admits `msg` off the result cache: ack + replayed result frames, no
  /// engine job. Runs on a decode thread.
  void ReplayCachedResult(uint64_t conn_id,
                          const std::shared_ptr<ConnShared>& shared,
                          const SubmitRequest& msg, const CachedResult& cached,
                          std::chrono::steady_clock::time_point t0);

  Status Listen();

  engine::DiscoveryEngine* engine_;
  ServerConfig config_;
  std::string bound_address_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_read_fd_ = -1;
  std::string unix_path_;  // unlinked at Stop when bound to a unix socket

  std::atomic<bool> running_{false};
  std::thread loop_;
  std::shared_ptr<EventQueue> events_;

  uint64_t next_conn_id_ = 2;  // 0 = listen fd, 1 = wakeup pipe
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;

  std::mutex dataset_mutex_;
  LruMap<uint64_t, std::shared_ptr<const Dataset>> datasets_;

  std::shared_ptr<ResultCache> result_cache_;

  // net.* metrics, resolved once against the engine's registry.
  obs::Counter* accepted_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* coalesced_exempt_ = nullptr;
  obs::Counter* result_cache_hits_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* results_delivered_ = nullptr;
  obs::Gauge* open_conns_ = nullptr;
  obs::Histogram* request_latency_ = nullptr;  // ns, decode to result enqueue

  // Last member: decode tasks reference everything above, so they must
  // drain first on destruction.
  ThreadPool decode_pool_;
};

}  // namespace reds::net

#endif  // REDS_NET_SERVER_H_
