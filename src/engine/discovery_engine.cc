#include "engine/discovery_engine.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/quality.h"
#include "engine/fingerprint.h"
#include "shard/coordinator.h"
#include "shard/source_spec.h"
#include "shard/worker.h"
#include "util/fingerprint.h"
#include "util/rng.h"
#include "util/simd.h"

namespace reds::engine {

namespace {

// Mixes the engine seed with the cache-key identity so every distinct
// metamodel gets its own reproducible stream, independent of which request
// triggers the fit.
uint64_t CanonicalSeed(uint64_t engine_seed, const MetamodelKey& key) {
  uint64_t stream = key.fingerprint;
  stream = DeriveSeed(stream, 0x11ULL + static_cast<uint64_t>(key.kind));
  stream = DeriveSeed(stream, 0x23ULL + (key.tuned ? 1ULL : 0ULL));
  stream = DeriveSeed(stream, 0x31ULL + static_cast<uint64_t>(key.budget));
  stream = DeriveSeed(stream, 0x41ULL + static_cast<uint64_t>(key.backend));
  // Growth fields joined the key after seeds shipped: mix them in only
  // when non-default, so every depth-wise model keeps the exact seed (and
  // therefore the exact bits) it had before leaf-wise growth existed.
  if (key.growth != ml::GrowthPolicy::kDepthWise || key.max_leaves != 0) {
    stream = DeriveSeed(stream, 0x51ULL + static_cast<uint64_t>(key.growth));
    stream = DeriveSeed(stream, 0x61ULL + static_cast<uint64_t>(key.max_leaves));
  }
  return DeriveSeed(engine_seed, stream);
}

// True while the current worker thread's job has performed cold work --
// a metamodel fit or disk load, an index build or load, a streamed ingest
// build, or a relabel-stream build. Execute() clears it at job start and
// classifies the job's latency into the warm or cold histogram at the
// end; coalesced followers never run a worker, so they are always warm.
thread_local bool t_cold_work = false;

// Sharded execution of a streamed untuned plain-PRIM request: W in-process
// workers (socketpair transport, one thread each) each ingest a
// block-stride slice of their own DatasetSource instance; the coordinator
// merges their sketch summaries into one global bin set and drives the
// shared peeling loop with one round trip per applied peel. Worker
// registries fold into the engine registry at the end, so DumpMetrics()
// reports the whole fleet.
MethodOutput RunShardedPrimOnSource(const DiscoveryRequest& req,
                                    const RunOptions& options, int block_rows,
                                    obs::MetricsRegistry* metrics) {
  const int workers = req.shard.workers;
  const auto start = std::chrono::steady_clock::now();

  std::vector<int> coordinator_fds(static_cast<size_t>(workers), -1);
  std::vector<int> worker_fds(static_cast<size_t>(workers), -1);
  const auto close_all = [&] {
    for (int& fd : coordinator_fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    for (int& fd : worker_fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  };
  for (int w = 0; w < workers; ++w) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      close_all();
      throw std::runtime_error("sharded request: socketpair failed");
    }
    coordinator_fds[static_cast<size_t>(w)] = sv[0];
    worker_fds[static_cast<size_t>(w)] = sv[1];
  }

  std::vector<Status> worker_status(static_cast<size_t>(workers),
                                    Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::unique_ptr<DatasetSource> source = req.make_train_source();
      if (source == nullptr) {
        worker_status[static_cast<size_t>(w)] = Status::InvalidArgument(
            "make_train_source returned null in a shard worker");
        // Closing the fd unblocks the coordinator with an IoError.
        ::close(worker_fds[static_cast<size_t>(w)]);
        worker_fds[static_cast<size_t>(w)] = -1;
        return;
      }
      shard::BlockStrideSource strided(std::move(source), block_rows, workers,
                                       w);
      worker_status[static_cast<size_t>(w)] =
          shard::RunShardWorker(worker_fds[static_cast<size_t>(w)], &strided);
    });
  }

  StreamedBuildOptions build_options;
  build_options.block_rows = block_rows;
  shard::ShardCoordinator coordinator(coordinator_fds, build_options);
  Status s = coordinator.BuildGlobalBins();
  Result<PrimResult> r = Status::OK();
  if (s.ok()) {
    PrimConfig config;
    config.alpha = options.default_alpha;
    config.min_points = options.min_points;
    r = coordinator.RunPrim(config);
    s = r.ok() ? Status::OK() : r.status();
  }
  if (s.ok()) s = coordinator.CollectMetrics(metrics);
  coordinator.Shutdown();  // best effort when the protocol already failed
  for (std::thread& t : threads) t.join();
  close_all();

  if (!s.ok()) {
    throw std::runtime_error("sharded discovery failed: " + s.ToString());
  }
  for (const Status& ws : worker_status) {
    if (!ws.ok()) {
      throw std::runtime_error("shard worker failed: " + ws.ToString());
    }
  }

  // The same output shape RunMethodOnStream produces for this method.
  MethodOutput out;
  out.chosen_alpha = options.default_alpha;
  out.chosen_m = coordinator.bins().num_cols;
  out.trajectory = r->ReturnedBoxes();
  out.last_box = r->BestBox();
  out.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace

JobState Job::state() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return state_;
}

void Job::Wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] {
    return state_ == JobState::kDone || state_ == JobState::kFailed;
  });
}

bool Job::Finished() const {
  const JobState s = state();
  return s == JobState::kDone || s == JobState::kFailed;
}

const MethodOutput& Job::output() const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (state_ != JobState::kDone) {
    throw std::logic_error("Job::output() read on a job that is not done");
  }
  return output_;
}

const MetricSet& Job::metrics() const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (state_ != JobState::kDone) {
    throw std::logic_error("Job::metrics() read on a job that is not done");
  }
  return metrics_;
}

const std::string& Job::error() const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (state_ != JobState::kFailed) {
    throw std::logic_error("Job::error() read on a job that has not failed");
  }
  return error_;
}

void Job::MarkRunning() {
  std::unique_lock<std::mutex> lock(mutex_);
  state_ = JobState::kRunning;
}

void Job::MarkDone(MethodOutput output, MetricSet metrics) {
  std::vector<std::function<void()>> callbacks;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    output_ = std::move(output);
    metrics_ = metrics;
    state_ = JobState::kDone;
    callbacks.swap(on_finish_);
  }
  done_.notify_all();
  for (const auto& fn : callbacks) fn();
}

void Job::MarkFailed(std::string error) {
  std::vector<std::function<void()>> callbacks;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    error_ = std::move(error);
    state_ = JobState::kFailed;
    callbacks.swap(on_finish_);
  }
  done_.notify_all();
  for (const auto& fn : callbacks) fn();
}

void Job::NotifyOnFinish(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (state_ != JobState::kDone && state_ != JobState::kFailed) {
      on_finish_.push_back(std::move(fn));
      return;
    }
  }
  fn();  // already finished: run on the caller, outside the lock
}

namespace {

std::string ResolveDir(const std::string& configured, const char* env_var) {
  if (!configured.empty()) return configured;
  const char* env = std::getenv(env_var);
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace

DiscoveryEngine::DiscoveryEngine(EngineConfig config)
    : config_(config),
      trace_dir_(ResolveDir(config.trace_dir, "REDS_TRACE_DIR")),
      metamodels_(config.metamodel_cache_capacity, &metrics_,
                  "cache.metamodel", "fits"),
      column_indexes_(config.column_index_cache_capacity, &metrics_,
                      "cache.index.column"),
      binned_indexes_(config.binned_index_cache_capacity, &metrics_,
                      "cache.index.binned"),
      streamed_indexes_(config.binned_index_cache_capacity, &metrics_,
                        "cache.index.streamed"),
      ingested_(config.binned_index_cache_capacity, &metrics_,
                "cache.ingest"),
      relabel_streams_(config.relabel_stream_cache_capacity, &metrics_,
                       "cache.relabel"),
      pool_(config.threads, &metrics_, "engine.pool") {
  jobs_submitted_ = metrics_.counter("engine.jobs.submitted");
  jobs_completed_ = metrics_.counter("engine.jobs.completed");
  jobs_failed_ = metrics_.counter("engine.jobs.failed");
  jobs_coalesced_ = metrics_.counter("engine.jobs.coalesced");
  inflight_leaders_ = metrics_.gauge("engine.jobs.inflight_leaders");
  job_latency_ = metrics_.histogram("engine.job.latency_ns");
  job_warm_latency_ = metrics_.histogram("engine.job.warm_latency_ns");
  job_cold_latency_ = metrics_.histogram("engine.job.cold_latency_ns");
  // Which kernel tier this process dispatches to (0 = scalar, 1 = AVX2);
  // surfaces the REDS_SIMD override and the host's CPU features in
  // DumpMetrics so perf numbers are attributable.
  metrics_.gauge("engine.build.simd")
      ->Set(static_cast<int64_t>(util::ActiveSimdLevel()));
  if (config.enable_persistent_cache) {
    const std::string dir = ResolveDir(config.cache_dir, "REDS_CACHE_DIR");
    if (!dir.empty()) {
      disk_ = std::make_unique<PersistentCache>(dir, config.cache_max_bytes,
                                                &metrics_);
    }
  }
  if (!trace_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir_, ec);
    if (ec) trace_dir_.clear();  // unwritable: run untraced, don't fail jobs
  }
}

JobHandle DiscoveryEngine::Submit(DiscoveryRequest request) {
  auto job = std::make_shared<Job>(std::move(request));
  job->submit_time_ = std::chrono::steady_clock::now();
  jobs_submitted_->Add(1);
  if (!trace_dir_.empty()) {
    // Process-wide, not per-engine: a warm engine sharing the trace_dir of
    // the cold one that seeded its caches must not overwrite its files.
    static std::atomic<uint64_t> g_job_seq{0};
    const uint64_t seq = g_job_seq.fetch_add(1, std::memory_order_relaxed);
    job->trace_ = std::make_shared<obs::Trace>(
        "job-" + std::to_string(seq) + ":" + job->request().method,
        &metrics_);
  }
  if (config_.coalesce_requests && TryCoalesce(job)) return job;
  // Leader (or coalescing-ineligible) job: it owns a pool slot from here
  // until its Execute returns. Coalesced followers never touch the gauge.
  inflight_leaders_->Add(1);
  pool_.Submit([this, job] { Execute(job); });
  return job;
}

bool DiscoveryEngine::ComputeCoalesceKey(const DiscoveryRequest& req,
                                         uint64_t* key) {
  // Eligible requests are those whose MethodOutput is a pure function of
  // (training bytes, method, the options below): eagerly supplied data
  // only (factories and sources may be stateful and are invoked lazily),
  // no caller-supplied providers/hooks (theirs may differ even when ours
  // would not), and no anonymous custom sampler. test / relevant / cell /
  // rep / keep_output shape each follower's own metrics and bookkeeping,
  // not the shared output, so they stay out of the key.
  if (!req.train) return false;
  const RunOptions& o = req.options;
  if (o.metamodel_provider || o.column_index_provider ||
      o.binned_index_provider || o.streamed_relabel_cache) {
    return false;
  }
  if (o.sampler && o.sampler_id.empty()) return false;

  util::ByteWriter w;
  w.U64(FingerprintDataset(*req.train));
  w.U64(req.method.size());
  for (char c : req.method) w.U8(static_cast<uint8_t>(c));
  w.F64(o.default_alpha);
  w.I32(o.min_points);
  w.I32(o.bumping_q);
  w.I32(o.l_prim);
  w.I32(o.l_bi);
  w.I32(o.cv_folds);
  w.U8(o.tune_metamodel ? 1 : 0);
  w.U8(static_cast<uint8_t>(o.budget));
  w.U8(static_cast<uint8_t>(o.split_backend));
  w.U8(static_cast<uint8_t>(o.tree_growth));
  w.I32(o.tree_max_leaves);
  w.U8(o.sampler ? 1 : 0);
  w.U64(o.seed);
  w.U8(static_cast<uint8_t>(o.data_plan));
  w.I32(o.stream_block_rows);
  w.U64(o.sampler_id.size());
  for (char c : o.sampler_id) w.U8(static_cast<uint8_t>(c));
  *key = util::Fnv64(w.data().data(), w.size());
  return true;
}

bool DiscoveryEngine::TryCoalesce(const JobHandle& job) {
  uint64_t key = 0;
  if (!ComputeCoalesceKey(job->request(), &key)) return false;

  std::unique_lock<std::mutex> lock(coalesce_mutex_);
  const auto it = coalescing_.find(key);
  if (it != coalescing_.end()) {
    // Identical request in flight: ride its job. No pool task is ever
    // scheduled for this handle; the leader fans out on completion.
    it->second.push_back(job);
    jobs_coalesced_->Add(1);
    if (job->trace_ != nullptr) job->trace_->AddInstant("job.coalesced");
    return true;
  }
  job->coalesce_key_ = key;
  job->coalesce_leader_ = true;
  coalescing_.emplace(key, std::vector<JobHandle>());
  return false;
}

std::vector<JobHandle> DiscoveryEngine::TakeCoalesced(const JobHandle& job) {
  if (!job->coalesce_leader_) return {};
  std::unique_lock<std::mutex> lock(coalesce_mutex_);
  const auto it = coalescing_.find(job->coalesce_key_);
  if (it == coalescing_.end()) return {};
  std::vector<JobHandle> followers = std::move(it->second);
  coalescing_.erase(it);
  return followers;
}

bool DiscoveryEngine::WouldCoalesce(const DiscoveryRequest& request) const {
  if (!config_.coalesce_requests) return false;
  uint64_t key = 0;
  if (!ComputeCoalesceKey(request, &key)) return false;
  std::unique_lock<std::mutex> lock(coalesce_mutex_);
  return coalescing_.find(key) != coalescing_.end();
}

int DiscoveryEngine::inflight_leader_jobs() const {
  return static_cast<int>(inflight_leaders_->Value());
}

std::vector<JobHandle> DiscoveryEngine::SubmitBatch(
    std::vector<DiscoveryRequest> requests) {
  std::vector<JobHandle> handles;
  handles.reserve(requests.size());
  for (auto& r : requests) handles.push_back(Submit(std::move(r)));
  return handles;
}

void DiscoveryEngine::WaitAll() { pool_.Wait(); }

void DiscoveryEngine::Shutdown() { pool_.Shutdown(); }

std::shared_ptr<const ColumnIndex> DiscoveryEngine::GetColumnIndex(
    const Dataset& d) {
  return GetColumnIndex(d, FingerprintInputs(d));
}

std::shared_ptr<const ColumnIndex> DiscoveryEngine::GetColumnIndex(
    const Dataset& d, uint64_t fingerprint) {
  return column_indexes_.Get(fingerprint, [&] {
    t_cold_work = true;
    obs::Span span("index.build");
    return ColumnIndex::Build(d);
  });
}

std::shared_ptr<const BinnedIndex> DiscoveryEngine::GetBinnedIndex(
    const Dataset& d) {
  // Only exact-pack indexes live in this tier; sketch indexes (streamed
  // builds) are filed separately and never returned here, so cold and warm
  // runs see identical bins.
  const uint64_t fingerprint = FingerprintInputs(d);
  return binned_indexes_.Get(
      fingerprint,
      [&]() -> std::shared_ptr<const BinnedIndex> {
        t_cold_work = true;
        if (disk_ == nullptr) return nullptr;
        obs::Span span("index.load");
        return disk_->LoadBinnedIndex(fingerprint,
                                      BinnedIndex::BuildKind::kExactPack,
                                      d.num_rows(), d.num_cols());
      },
      [&] {
        obs::Span span("index.build");
        return BinnedIndex::Build(*GetColumnIndex(d, fingerprint));
      },
      [&](const BinnedIndex& binned) {
        if (disk_ != nullptr) disk_->StoreBinnedIndex(fingerprint, binned);
      });
}

std::shared_ptr<const StreamedDataset> DiscoveryEngine::IngestSource(
    DatasetSource* source) {
  const std::optional<uint64_t> identity = source->identity();
  if (!identity) return ReadSource(source);
  // The identity names the exact row sequence, so a resident entry is what
  // reading the source would produce. A miss reads it (determinism check
  // included); a throwing read is not cached and the next call retries.
  return ingested_.Get(*identity, [&] { return ReadSource(source); });
}

std::shared_ptr<const StreamedDataset> DiscoveryEngine::ReadSource(
    DatasetSource* source) {
  obs::Span ingest_span("ingest.source");
  // Pass 1 -- identity: incremental fingerprints over the chunk stream
  // (the same byte layout the in-memory path hashes, so eager and
  // streamed requests share cache keys by construction). The labels ride
  // along: O(N) doubles, needed by every consumer of the stream.
  const Status reset = source->Reset();
  if (!reset.ok()) {
    throw std::runtime_error("streamed request source failed to reset: " +
                             reset.ToString());
  }
  const int cols = source->num_cols();
  util::DatasetHasher input_hasher(util::DatasetHasher::Scope::kInputs, cols);
  util::DatasetHasher full_hasher(util::DatasetHasher::Scope::kFull, cols);
  auto out = std::make_shared<StreamedDataset>();
  StreamedDataset& data = *out;
  std::vector<double>& y = data.y;
  const int64_t hint = source->num_rows_hint();
  if (hint > 0) y.reserve(static_cast<size_t>(hint));
  {
    obs::Span span("ingest.fingerprint");
    for (;;) {
      Result<RowBlock> block = source->NextBlock(config_.stream_block_rows);
      if (!block.ok()) {
        throw std::runtime_error("streamed request source failed: " +
                                 block.status().ToString());
      }
      if (block->empty()) break;
      input_hasher.AddRows(block->x.data(), nullptr, block->num_rows());
      full_hasher.AddRows(block->x.data(), block->y, block->num_rows());
      y.insert(y.end(), block->y, block->y + block->num_rows());
    }
  }
  if (y.empty()) {
    throw std::invalid_argument("streamed request source yielded no rows");
  }
  data.input_fingerprint = input_hasher.Finalize();
  data.fingerprint = full_hasher.Finalize();
  const int rows = static_cast<int>(y.size());

  // Index: memory LRU, then the persistent tier, then a cold build.
  data.index = streamed_indexes_.Get(
      data.input_fingerprint,
      [&]() -> std::shared_ptr<const BinnedIndex> {
        t_cold_work = true;
        if (disk_ == nullptr) return nullptr;
        obs::Span span("index.load");
        return disk_->LoadStreamedIndex(data.input_fingerprint, rows, cols);
      },
      [&] {
        // The cold build: Chrome traces show its two passes as
        // index.sketch_pass / index.code_pass children (emitted inside
        // BuildStreamed), all under this index.build span -- the one the
        // warm-trace test asserts is absent on a warm engine.
        obs::Span span("index.build");
        StreamedBuildOptions options;
        options.block_rows = config_.stream_block_rows;
        Result<StreamedDataset> built =
            BinnedIndex::BuildStreamed(source, options);
        if (!built.ok()) {
          throw std::runtime_error("streamed index build failed: " +
                                   built.status().ToString());
        }
        // A source that does not replay the identical rows poisons every
        // cache tier keyed by its first pass; refuse it loudly.
        if (built->input_fingerprint != data.input_fingerprint ||
            built->fingerprint != data.fingerprint) {
          throw std::invalid_argument(
              "streamed request source is not deterministic across Reset()");
        }
        return built->index;
      },
      [&](const BinnedIndex& index) {
        if (disk_ != nullptr) {
          disk_->StoreStreamedIndex(data.input_fingerprint, index);
        }
      });
  data.totals = StreamedBinTotals::Build(*data.index, data.y.data());
  return out;
}

PersistentCacheStats DiscoveryEngine::persistent_cache_stats() const {
  return disk_ != nullptr ? disk_->stats() : PersistentCacheStats();
}

int DiscoveryEngine::column_index_cache_size() const {
  return static_cast<int>(column_indexes_.size());
}

int DiscoveryEngine::binned_index_cache_size() const {
  return static_cast<int>(binned_indexes_.size());
}

int DiscoveryEngine::streamed_index_cache_size() const {
  return static_cast<int>(streamed_indexes_.size());
}

int DiscoveryEngine::relabel_stream_cache_size() const {
  return static_cast<int>(relabel_streams_.size());
}

void DiscoveryEngine::InstallRelabelStreamHook(RunOptions* options) {
  // The method layer's key covers the request recipe (training bytes,
  // metamodel recipe, seed, stream length, block size, sampler identity)
  // but not how this engine actually labels: with cache_metamodels on, the
  // metamodel is seeded canonically from config_.seed, not from the
  // request seed, so the labels depend on both knobs. Fold them in so two
  // engines configured differently never share an entry.
  const uint64_t engine_salt =
      DeriveSeed(config_.seed, config_.cache_metamodels ? 1 : 2);
  options->streamed_relabel_cache =
      [this, engine_salt](
          uint64_t key, int expect_rows, int expect_cols,
          const std::function<std::shared_ptr<const StreamedDataset>()>&
              build) {
        const uint64_t k = DeriveSeed(engine_salt, key);
        return relabel_streams_.Get(
            k,
            [&]() -> std::shared_ptr<const StreamedDataset> {
              // A disk load or a fresh stream build follows: cold work both.
              t_cold_work = true;
              if (disk_ == nullptr) return nullptr;
              obs::Span span("relabel.load");
              return disk_->LoadRelabelStream(k, expect_rows, expect_cols);
            },
            build,
            [&](const StreamedDataset& data) {
              if (disk_ != nullptr) disk_->StoreRelabelStream(k, data);
            });
      };
}

ColumnIndexProvider DiscoveryEngine::MakeColumnIndexProvider() {
  return [this](const Dataset& d) { return GetColumnIndex(d); };
}

BinnedIndexProvider DiscoveryEngine::MakeBinnedIndexProvider() {
  return [this](const Dataset& d) { return GetBinnedIndex(d); };
}

MetamodelProvider DiscoveryEngine::MakeCachingProvider() {
  return [this](const Dataset& train, ml::MetamodelKind kind, bool tune,
                ml::TuningBudget budget, ml::SplitBackend backend,
                ml::GrowthPolicy growth, int max_leaves,
                uint64_t /*request_seed*/) -> std::shared_ptr<const ml::Metamodel> {
    MetamodelKey key;
    key.fingerprint = FingerprintDataset(train);
    key.kind = kind;
    key.tuned = tune;
    key.budget = budget;
    key.backend = backend;
    key.growth = growth;
    key.max_leaves = max_leaves;
    key.seed = CanonicalSeed(config_.seed, key);
    bool missed = false;
    std::shared_ptr<const ml::Metamodel> model = metamodels_.Get(
        key,
        [&]() -> std::shared_ptr<const ml::Metamodel> {
          // Disk load or fit, either way this job did real metamodel work.
          missed = true;
          t_cold_work = true;
          // A model trained by an earlier engine process (or a previous run
          // of this one) reloads instead of refitting. The canonical seed in
          // the key makes it bit-identical to what the fit would produce.
          if (disk_ == nullptr) return nullptr;
          obs::Span span("metamodel.load");
          return disk_->LoadMetamodel(key);
        },
        [&]() -> std::shared_ptr<const ml::Metamodel> {
          // Tree metamodels reuse the engine's shared columnar index (and
          // quantization, under the histogram backend) of the training
          // data: untuned fits feed them straight to the split search,
          // tuned fits stream their CV folds as row views over them
          // (ml/tuning.h) -- identical results to privately built views
          // either way.
          std::shared_ptr<const ColumnIndex> index;
          std::shared_ptr<const BinnedIndex> binned;
          if (config_.cache_column_indexes &&
              kind != ml::MetamodelKind::kSvm) {
            index = GetColumnIndex(train);
            if (config_.cache_binned_indexes &&
                backend == ml::SplitBackend::kHistogram) {
              binned = GetBinnedIndex(train);
            }
          }
          obs::Span span("metamodel.fit");
          return std::shared_ptr<const ml::Metamodel>(
              ml::FitMetamodel(kind, train, key.seed, tune, budget,
                               index.get(), binned.get(), backend, growth,
                               max_leaves));
        },
        [&](const ml::Metamodel& fitted) {
          if (disk_ != nullptr) disk_->StoreMetamodel(key, fitted);
        });
    if (!missed) obs::TraceInstant("metamodel.cache_hit");
    return model;
  };
}

namespace {

// Trace names ("job-0:RPxp") become file names; keep them portable.
std::string SanitizeFileName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '-';
  }
  return out;
}

// Metric evaluation of one request against a finished MethodOutput. The
// output is request-key-shaped only; test data and relevance masks are
// follower-local, so each coalesced handle evaluates its own.
MetricSet EvaluateRequest(const DiscoveryRequest& req,
                          const MethodOutput& out) {
  obs::Span span("validate");
  MetricSet metrics;
  metrics.restricted = out.last_box.NumRestricted();
  metrics.runtime_seconds = out.runtime_seconds;
  if (req.test) {
    metrics.pr_auc = 100.0 * PrAucOnData(out.trajectory, *req.test);
    const BoxStats stats = ComputeBoxStats(*req.test, out.last_box);
    metrics.precision = 100.0 * Precision(stats);
    metrics.recall = 100.0 * Recall(stats, req.test->TotalPositive());
    metrics.wracc = 100.0 * WRAcc(stats, req.test->num_rows(),
                                  req.test->TotalPositive());
  }
  if (req.relevant) {
    metrics.irrel = NumIrrelevantRestricted(out.last_box, *req.relevant);
  }
  return metrics;
}

}  // namespace

void DiscoveryEngine::Execute(const JobHandle& job) {
  job->MarkRunning();
  t_cold_work = false;
  // Bind the job's trace (when tracing is on) to this worker thread, so
  // every Span opened anywhere below -- method dispatch, REDS, PRIM,
  // index builds, cache fits -- lands in it without signature changes.
  obs::TraceBinding binding(job->trace_.get());
  const auto job_start = std::chrono::steady_clock::now();
  std::vector<JobHandle> followers;
  // Coalesced followers never run a worker: they complete here, on the
  // leader's thread, from the leader's output, after the leader's work is
  // done. Their latency runs from their own submit time and lands in the
  // leader's class: a follower of a cold leader waited on cold work.
  const auto follower_latency = [this](const JobHandle& f) {
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - f->submit_time_)
            .count());
    job_latency_->Observe(ns);
    (t_cold_work ? job_cold_latency_ : job_warm_latency_)->Observe(ns);
  };
  try {
    obs::Span root_span("job");
    const DiscoveryRequest& req = job->request();
    const int sources_set = (req.train ? 1 : 0) + (req.make_train ? 1 : 0) +
                            (req.make_train_source ? 1 : 0);
    if (sources_set == 0) {
      throw std::invalid_argument("discovery request has no training data");
    }
    if (sources_set > 1) {
      throw std::invalid_argument(
          "discovery request sets more than one of train / make_train / "
          "make_train_source");
    }
    const auto spec = MethodSpec::Parse(req.method);
    if (!spec.ok()) throw std::invalid_argument(spec.status().ToString());

    // The request's RunOptions (including stream_block_rows, which bounds
    // the job's relabeled-double residency) pass through untouched;
    // EngineConfig::stream_block_rows governs only IngestSource, whose
    // results land in the shared cache tiers and must be
    // engine-consistent.
    RunOptions options = req.options;
    if (config_.cache_metamodels && spec->reds && !options.metamodel_provider) {
      options.metamodel_provider = MakeCachingProvider();
    }
    if (config_.cache_column_indexes && !options.column_index_provider) {
      options.column_index_provider = MakeColumnIndexProvider();
    }
    if (config_.cache_binned_indexes && !options.binned_index_provider) {
      options.binned_index_provider = MakeBinnedIndexProvider();
    }
    if (config_.cache_relabel_streams && spec->reds &&
        !options.streamed_relabel_cache) {
      InstallRelabelStreamHook(&options);
    }

    MethodOutput out;
    Dataset generated;
    if (req.make_train_source) {
      std::unique_ptr<DatasetSource> source = req.make_train_source();
      if (source == nullptr) {
        throw std::invalid_argument("make_train_source returned null");
      }
      if (!spec->reds && !spec->tuned &&
          spec->family == MethodSpec::Family::kPrim) {
        if (req.shard.workers > 1) {
          // Sharded: the source's blocks fan out across an in-process
          // worker fleet; no single thread ever holds the stream.
          obs::Span span("shard.discovery");
          source.reset();  // workers pull their own instances
          out = RunShardedPrimOnSource(req, options,
                                       config_.stream_block_rows, &metrics_);
          t_cold_work = true;  // a fleet run never serves from a cache
        } else {
          // Fully streamed: the double matrix never materializes. Warm
          // engines serve the index from the LRU / persistent tiers.
          out = RunMethodOnStream(*spec, *IngestSource(source.get()),
                                  options);
        }
      } else {
        // Tuning folds, metamodel training, and the BI/bumping scans need
        // raw doubles: materialize the stream (one pass, the original
        // sample -- REDS's L relabeled points still stream inside
        // RunMethod). Fingerprints of the materialized data agree with
        // the streamed hashes by construction, so the metamodel and index
        // tiers warm across ingestion paths.
        {
          obs::Span span("ingest.materialize");
          Result<Dataset> all =
              ReadAll(source.get(), config_.stream_block_rows);
          if (!all.ok()) {
            throw std::runtime_error("streamed request source failed: " +
                                     all.status().ToString());
          }
          generated = *std::move(all);
        }
        out = RunMethod(*spec, generated, options);
      }
    } else {
      if (!req.train) generated = req.make_train();
      const Dataset& train = req.train ? *req.train : generated;
      out = RunMethod(*spec, train, options);
    }

    // Close the coalesce window before evaluation: any identical request
    // arriving from here on starts fresh (and completes instantly off the
    // now-warm caches) instead of attaching to an almost-finished leader.
    followers = TakeCoalesced(job);

    const MetricSet metrics = EvaluateRequest(req, out);
    store_.Record(req.cell.empty() ? req.method : req.cell, req.rep, metrics,
                  out.last_box);
    // Fan the leader's output out to every coalesced follower. The method
    // output is request-key-shaped (it depends only on what the coalesce
    // key hashes), so a copy is correct for all of them; metrics, store
    // cell, and keep_output remain per-follower.
    for (const JobHandle& f : followers) {
      f->MarkRunning();
      const DiscoveryRequest& freq = f->request();
      const MetricSet fm = EvaluateRequest(freq, out);
      store_.Record(freq.cell.empty() ? freq.method : freq.cell, freq.rep,
                    fm, out.last_box);
      MethodOutput fout = out;
      if (!freq.keep_output) {
        fout.trajectory.clear();
        fout.trajectory.shrink_to_fit();
      }
      f->MarkDone(std::move(fout), fm);
      jobs_completed_->Add(1);
      follower_latency(f);
    }
    if (!req.keep_output) {
      out.trajectory.clear();
      out.trajectory.shrink_to_fit();
    }
    job->MarkDone(std::move(out), metrics);
    jobs_completed_->Add(1);
  } catch (const std::exception& e) {
    job->MarkFailed(e.what());
    jobs_failed_->Add(1);
  } catch (...) {
    job->MarkFailed("unknown error in discovery job");
    jobs_failed_->Add(1);
  }
  // A leader that threw before (or while) fanning out takes its followers
  // down with it: re-drain the window (idempotent; a no-op after the
  // success path above) and fail whatever never completed.
  if (job->state() == JobState::kFailed) {
    for (const JobHandle& f : TakeCoalesced(job)) followers.push_back(f);
    for (const JobHandle& f : followers) {
      if (f->Finished()) continue;
      f->MarkFailed("coalesced leader job failed: " + job->error());
      jobs_failed_->Add(1);
      follower_latency(f);
    }
  }
  const uint64_t leader_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - job_start)
          .count());
  job_latency_->Observe(leader_ns);
  (t_cold_work ? job_cold_latency_ : job_warm_latency_)->Observe(leader_ns);
  inflight_leaders_->Add(-1);  // the pool slot is free again
  if (!trace_dir_.empty()) {
    // The root span has closed; persist the finished traces (followers
    // carry only the job.coalesced marker -- the proof they did no work).
    // Best-effort: a full disk must not fail the job.
    if (job->trace_ != nullptr) {
      job->trace_->WriteFile(trace_dir_ + "/" +
                             SanitizeFileName(job->trace_->name()) +
                             ".trace.json");
    }
    for (const JobHandle& f : followers) {
      if (f->trace_ == nullptr) continue;
      f->trace_->WriteFile(trace_dir_ + "/" +
                           SanitizeFileName(f->trace_->name()) +
                           ".trace.json");
    }
  }
}

}  // namespace reds::engine
