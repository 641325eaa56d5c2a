// DiscoveryEngine: a batched scenario-discovery service. Clients submit
// DiscoveryRequests (dataset + method name + options); the engine executes
// them asynchronously on a shared thread pool and returns job handles for
// status polling and result retrieval. REDS requests obtain their metamodel
// through a shared cross-request cache, so a batch running many variants
// over the same data trains each (data, kind, tuning) metamodel exactly
// once. Completed metrics accumulate in a ResultStore for table/CSV export.
#ifndef REDS_ENGINE_DISCOVERY_ENGINE_H_
#define REDS_ENGINE_DISCOVERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/binned_index.h"
#include "core/column_index.h"
#include "core/dataset_source.h"
#include "core/method.h"
#include "engine/cache_tier.h"
#include "engine/persistent_cache.h"
#include "engine/result_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace reds::engine {

struct EngineConfig {
  int threads = 0;              // 0: hardware concurrency
  /// Single-flight job coalescing: identical in-flight requests (same
  /// training bytes, method, and result-shaping options) attach to the
  /// first one's job instead of taking a worker -- N concurrent identical
  /// submissions perform exactly one fit/index build/discovery, and the
  /// leader fans its output out to every handle. Followers still get their
  /// own metrics (test data, relevance masks, result-store cells, and
  /// keep_output are follower-local). Requests with custom providers/hooks
  /// or an unnamed custom sampler are never coalesced. Counted in
  /// `engine.jobs.coalesced`.
  bool coalesce_requests = true;
  /// Shared per-dataset ColumnIndex cache: a batch of method variants over
  /// the same inputs builds the columnar index (column copies + sorted
  /// permutations) once. Keyed by the input-only fingerprint.
  bool cache_column_indexes = true;
  /// Shared relabel-stream cache: the finished product of a streamed REDS
  /// relabeling (quantized index + O(L) labels), keyed by everything that
  /// shapes it (training bytes, metamodel recipe, seed, stream length,
  /// block size) folded with the engine seed. A hit serves the job with
  /// zero labeling passes and zero code rebuilds; entries persist to the
  /// disk tier when it is active, so a warm engine process skips them too.
  bool cache_relabel_streams = true;
  /// Root seed for the canonical metamodel fits. The engine re-seeds each
  /// metamodel from (this seed, cache key) instead of the per-request seed,
  /// so results are bit-identical whether a request hits or misses the
  /// cache, and independent of scheduling order and thread count.
  uint64_t seed = 42;
  /// Directory of the persistent cache tier, shared across engine
  /// processes: BinnedIndexes and trained metamodels are serialized here
  /// under the dataset fingerprint, so a warm engine (or a second process)
  /// skips quantization and training. Empty: the REDS_CACHE_DIR
  /// environment variable is consulted; still empty disables the tier.
  std::string cache_dir;
  /// Master switch for the disk tier. Set false to guarantee a
  /// self-contained engine regardless of cache_dir or the environment --
  /// e.g. tests and benchmarks that must measure real fits, not warm
  /// loads from whatever a developer's REDS_CACHE_DIR holds.
  bool enable_persistent_cache = true;
  /// Byte budget of the disk tier (0 = unlimited). When a store pushes the
  /// cache directory past this cap, the oldest entries by modification
  /// time are evicted until it fits again (counted in
  /// persistent_cache_stats().evictions).
  uint64_t cache_max_bytes = 0;
  /// Directory for per-job Chrome trace-event JSON files. Empty: the
  /// REDS_TRACE_DIR environment variable is consulted; still empty
  /// disables tracing (jobs carry no Trace and pay nothing). When active,
  /// every job records a span tree of its pipeline stages -- ingest,
  /// index build/load, metamodel fit vs cache hit, relabel stream,
  /// tuning, peel/paste, validation -- written as
  /// `<trace_dir>/job-<seq>-<method>.trace.json`, loadable in
  /// chrome://tracing or
  /// Perfetto, and also reachable via Job::trace().
  std::string trace_dir;
  /// Rows per block when the engine itself ingests a DatasetSource
  /// request (IngestSource), whose indexes land in the shared cache
  /// tiers and must be engine-consistent. Part of the sketch-binned
  /// result's identity: change it together with a fresh cache_dir, or
  /// warm streamed indexes may differ from a cold rebuild on
  /// beyond-bin-budget columns. Per-request streaming inside RunMethod
  /// (the REDS relabeled data, which is never cached) is governed by the
  /// request's own RunOptions::stream_block_rows instead.
  int stream_block_rows = 8192;
};

/// Sharded execution plan for a streamed request. With workers > 1, the
/// engine partitions the source's blocks across that many in-process shard
/// workers (each pulls its own DatasetSource from make_train_source behind
/// a block-stride filter) and runs one discovery over the union via the
/// shard coordinator: global bins from merged quantile sketches, one
/// round trip per applied PRIM peel, per-worker metrics folded into the
/// engine registry. Applies to untuned plain-PRIM streamed requests (the
/// path that never materializes the matrix); other methods ignore it.
/// Boxes are bit-identical to the single-process streamed run in the
/// exact-pack regime. Sharded requests are never coalesced.
struct ShardPlan {
  int workers = 0;  // <= 1: single-process streaming
};

/// One unit of work: run `method` on `train` (or on the dataset produced by
/// `make_train`), optionally evaluating the discovered scenario on `test`.
struct DiscoveryRequest {
  /// Training data. Exactly one of `train` / `make_train` /
  /// `make_train_source` must be set: `make_train` is invoked lazily on the
  /// worker thread, keeping peak memory bounded for large matrices.
  /// Factories must be deterministic -- requests producing bitwise-equal
  /// datasets share metamodel cache entries.
  std::shared_ptr<const Dataset> train;
  std::function<Dataset()> make_train;
  /// Streaming alternative: yields a fresh DatasetSource over the training
  /// data, invoked lazily on the worker thread. The engine ingests it
  /// through the streaming data plane -- incremental util::DatasetHasher
  /// fingerprints, BinnedIndex lookup through the in-memory LRU and the
  /// persistent tier, BuildStreamed only on a cold miss -- so warm engines
  /// index and train nothing. Untuned plain PRIM runs entirely on the
  /// quantized stream (the double matrix never materializes); every other
  /// method materializes the source with ReadAll (tuning folds, metamodel
  /// training and BI/bumping scans need raw doubles) and then follows its
  /// usual path, REDS + PRIM still streaming its relabeled points. The
  /// source must be deterministic across Reset() passes; its fingerprints
  /// agree with the in-memory path's by construction, so eager, lazy, and
  /// streamed requests over bitwise-equal data share every cache tier.
  std::function<std::unique_ptr<DatasetSource>()> make_train_source;

  /// Sharded execution of a make_train_source request (see ShardPlan).
  ShardPlan shard;

  std::string method;  // MethodSpec grammar, e.g. "Pc", "RPxp", "RBIcxp"
  RunOptions options;

  /// When false, the raw MethodOutput (trajectory boxes) is discarded after
  /// metric evaluation; only the result store keeps the metrics + last box.
  /// Big experiment matrices set this to bound memory.
  bool keep_output = true;

  /// Optional independent test data; when set, the job computes the full
  /// MetricSet (PR AUC, precision, recall, WRAcc) on it.
  std::shared_ptr<const Dataset> test;
  /// Optional ground-truth relevance mask for the #irrel metric.
  std::shared_ptr<const std::vector<bool>> relevant;

  /// Result-store cell this job records into (defaults to the method name).
  std::string cell;
  int rep = 0;  // repetition slot within the cell
};

enum class JobState { kQueued, kRunning, kDone, kFailed };

/// Handle to one submitted request. Thread-safe; Wait() blocks until the
/// job reaches kDone or kFailed.
class Job {
 public:
  explicit Job(DiscoveryRequest request) : request_(std::move(request)) {}

  JobState state() const;
  void Wait() const;
  bool Finished() const;

  /// The method's raw output (valid once state() == kDone).
  const MethodOutput& output() const;

  /// Evaluated metrics; PR AUC etc. are meaningful only when the request
  /// carried test data (valid once state() == kDone).
  const MetricSet& metrics() const;

  /// Failure description (valid once state() == kFailed).
  const std::string& error() const;

  const DiscoveryRequest& request() const { return request_; }

  /// The job's pipeline trace, or null when the engine runs without a
  /// trace_dir. Stable (and complete) once Finished().
  const obs::Trace* trace() const { return trace_.get(); }

  /// Registers `fn` to run exactly once when the job reaches kDone or
  /// kFailed -- immediately, on the calling thread, when it already has;
  /// otherwise on whichever worker thread completes it (for coalesced
  /// followers, the leader's). The net service's completion fan-in: the
  /// callback writes a wakeup byte, so keep it cheap and never let it
  /// block or re-enter the engine.
  void NotifyOnFinish(std::function<void()> fn);

 private:
  friend class DiscoveryEngine;

  void MarkRunning();
  void MarkDone(MethodOutput output, MetricSet metrics);
  void MarkFailed(std::string error);

  DiscoveryRequest request_;
  std::shared_ptr<obs::Trace> trace_;  // set by the engine before running
  // Coalescing bookkeeping, written by the engine at submit time only:
  // leaders own an entry in the engine's in-flight map under
  // coalesce_key_; followers never reach a worker thread at all.
  std::chrono::steady_clock::time_point submit_time_{};
  uint64_t coalesce_key_ = 0;
  bool coalesce_leader_ = false;
  mutable std::mutex mutex_;
  mutable std::condition_variable done_;
  JobState state_ = JobState::kQueued;
  MethodOutput output_;
  MetricSet metrics_;
  std::string error_;
  std::vector<std::function<void()>> on_finish_;  // drained at completion
};

using JobHandle = std::shared_ptr<Job>;

/// The engine's metamodel cache: one entry per distinct trained model.
using MetamodelTier = CacheTier<MetamodelKey, ml::Metamodel>;

class DiscoveryEngine {
 public:
  explicit DiscoveryEngine(EngineConfig config = {});

  DiscoveryEngine(const DiscoveryEngine&) = delete;
  DiscoveryEngine& operator=(const DiscoveryEngine&) = delete;

  /// Enqueues one request; returns immediately.
  JobHandle Submit(DiscoveryRequest request);

  /// Enqueues a batch; handles are in request order.
  std::vector<JobHandle> SubmitBatch(std::vector<DiscoveryRequest> requests);

  /// Blocks until every submitted job has finished.
  void WaitAll();

  /// Drains the queue and joins/releases the worker pool. The engine stays
  /// readable (results, cache statistics) but accepts no further Submits.
  /// Idempotent; call when a batch owner outlives its engine use so idle
  /// workers do not linger.
  void Shutdown();

  ResultStore& results() { return store_; }
  const ResultStore& results() const { return store_; }
  /// The metamodel tier: misses() counts fits (and disk loads), hits()
  /// the requests served without either.
  const MetamodelTier& metamodel_cache() const { return metamodels_; }

  /// Drops all cached metamodels (fit/hit counters are preserved). Call
  /// after a batch completes when the engine outlives it; finished
  /// one-shot matrices otherwise keep every fitted model resident.
  void ClearMetamodelCache() { metamodels_.Clear(); }
  const EngineConfig& config() const { return config_; }
  int threads() const { return pool_.num_threads(); }

  /// Jobs currently holding (or queued for) a worker-pool slot: every
  /// scheduled leader and non-coalescible job from Submit until its
  /// Execute returns. Coalesced followers never appear -- they ride their
  /// leader's slot -- which makes this the admission-control signal for
  /// the net front end: a coalesced burst of N admits with one slot.
  /// Mirrored in the `engine.jobs.inflight_leaders` gauge.
  int inflight_leader_jobs() const;

  /// True when an identical coalescing-eligible request is in flight
  /// right now, i.e. submitting `request` would attach it to a leader
  /// instead of taking a pool slot. Advisory: the window can close
  /// between this call and Submit (the request then becomes a fresh
  /// leader against warm caches), so callers must treat it as a hint --
  /// the net service uses it to exempt followers from queue-depth caps.
  bool WouldCoalesce(const DiscoveryRequest& request) const;

  /// Number of distinct column indexes currently cached.
  int column_index_cache_size() const;

  /// Number of distinct binned indexes currently cached.
  int binned_index_cache_size() const;

  /// Number of distinct streamed-build indexes currently cached.
  int streamed_index_cache_size() const;

  /// Number of distinct streamed REDS relabelings currently cached.
  int relabel_stream_cache_size() const;

  /// Ingests a training source through the streaming data plane. A source
  /// with an identity() that is resident in the ingest tier is served from
  /// it without reading a single row. Otherwise: one hashing pass for the
  /// fingerprints and labels, then the index from the in-memory LRU, the
  /// persistent tier, or (cold) a BuildStreamed over the source -- so warm
  /// calls on sources without an identity touch the source exactly once
  /// and build no index. Throws on undrainable or non-deterministic
  /// sources (and caches nothing for them). The result carries the
  /// quantized index (with its own permutation), the labels, both
  /// fingerprints -- the dataset's identity in every cache tier -- and the
  /// peel's bin totals, counted once per read.
  std::shared_ptr<const StreamedDataset> IngestSource(DatasetSource* source);

  /// The engine's shared per-dataset index (building and caching it on
  /// demand); also exposed to jobs through RunOptions.
  std::shared_ptr<const ColumnIndex> GetColumnIndex(const Dataset& d);

  /// The engine's shared per-dataset quantization (derived from the cached
  /// ColumnIndex on demand, or reloaded from the persistent tier); also
  /// exposed to jobs through RunOptions.
  std::shared_ptr<const BinnedIndex> GetBinnedIndex(const Dataset& d);

  /// True when the on-disk cache tier is active (EngineConfig::cache_dir or
  /// REDS_CACHE_DIR resolved to a directory).
  bool persistent_cache_enabled() const { return disk_ != nullptr; }

  /// Counters of the disk tier; all zero when disabled. model_hits > 0
  /// proves a metamodel was reloaded instead of trained; index_hits > 0
  /// proves an index build was skipped.
  PersistentCacheStats persistent_cache_stats() const;

  /// The engine-wide metrics registry: every cache tier, the worker pool,
  /// job counters/latency, and per-stage span histograms report here.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// One-page export of every metric: stable JSON (default) or Prometheus
  /// text exposition.
  std::string DumpMetrics(
      obs::ExportFormat format = obs::ExportFormat::kJson) const {
    return metrics_.Dump(format);
  }

  /// Directory per-job traces are written to; empty when tracing is off.
  const std::string& trace_dir() const { return trace_dir_; }

 private:
  void Execute(const JobHandle& job);
  /// The single-flight identity of an eligible request (see TryCoalesce
  /// for the eligibility rules); false when the request can never coalesce.
  static bool ComputeCoalesceKey(const DiscoveryRequest& request,
                                 uint64_t* key);
  /// Attaches `job` to an identical in-flight leader (true: the caller
  /// must not schedule it) or registers it as the new leader of its key
  /// (false: schedule normally). False for coalescing-ineligible requests.
  bool TryCoalesce(const JobHandle& job);
  /// Closes the leader's coalesce window and returns every follower that
  /// attached; idempotent (second call returns nothing).
  std::vector<JobHandle> TakeCoalesced(const JobHandle& job);
  MetamodelProvider MakeCachingProvider();
  ColumnIndexProvider MakeColumnIndexProvider();
  BinnedIndexProvider MakeBinnedIndexProvider();
  /// Installs streamed_relabel_cache on `options`, closing over the
  /// engine's relabel-stream tier.
  void InstallRelabelStreamHook(RunOptions* options);
  std::shared_ptr<const ColumnIndex> GetColumnIndex(const Dataset& d,
                                                    uint64_t fingerprint);
  /// IngestSource's read path: fingerprint pass plus streamed-index tier.
  std::shared_ptr<const StreamedDataset> ReadSource(DatasetSource* source);

  EngineConfig config_;
  // First member: every other subsystem (caches, pool) holds pointers into
  // this registry, so it must outlive them all.
  obs::MetricsRegistry metrics_;
  std::string trace_dir_;  // resolved from config/env; empty = tracing off
  // Job/engine-level metrics, resolved once at construction.
  obs::Counter* jobs_submitted_ = nullptr;
  obs::Counter* jobs_completed_ = nullptr;
  obs::Counter* jobs_failed_ = nullptr;
  obs::Counter* jobs_coalesced_ = nullptr;  // followers attached to a leader
  obs::Gauge* inflight_leaders_ = nullptr;  // pool-slot holders right now
  obs::Histogram* job_latency_ = nullptr;  // ns, per finished job
  // Warm/cold split of job latency: a job is cold when its worker thread
  // performed any cold work (metamodel fit or disk load, index build or
  // load, streamed ingest build, relabel-stream build); everything served
  // from in-memory caches lands in the warm series, so warm p50/p99 is
  // scrapeable on its own. A coalesced follower takes its leader's class.
  obs::Histogram* job_warm_latency_ = nullptr;
  obs::Histogram* job_cold_latency_ = nullptr;
  std::unique_ptr<PersistentCache> disk_;  // null: tier disabled
  MetamodelTier metamodels_;
  // Data-plane indexes, keyed by input fingerprint.
  CacheTier<uint64_t, ColumnIndex> column_indexes_;
  CacheTier<uint64_t, BinnedIndex> binned_indexes_;
  // Streamed-build indexes. A separate tier from binned_indexes_: beyond
  // the bin budget the two packings differ, and streamed requests must
  // always see streamed bins (warm == cold).
  CacheTier<uint64_t, BinnedIndex> streamed_indexes_;
  // Whole ingest results of sources that vouch for their rows, keyed by
  // DatasetSource::identity(): a hit skips the fingerprint pass too.
  CacheTier<uint64_t, StreamedDataset> ingested_;
  // Finished streamed REDS relabelings, keyed by the engine-folded relabel
  // cache key (see InstallRelabelStreamHook). Entries share their index's
  // bytes with nothing else: the relabeled stream is request-recipe-keyed,
  // not dataset-keyed.
  CacheTier<uint64_t, StreamedDataset> relabel_streams_;
  // Single-flight request coalescing: one entry per in-flight leader,
  // holding the followers that attached while it ran (the cache tiers'
  // in-flight pinning, at job granularity).
  mutable std::mutex coalesce_mutex_;
  std::map<uint64_t, std::vector<JobHandle>> coalescing_;
  ResultStore store_;
  ThreadPool pool_;  // last member: drains before the fields above die
};

}  // namespace reds::engine

#endif  // REDS_ENGINE_DISCOVERY_ENGINE_H_
