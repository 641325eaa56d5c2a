// Engine observability end to end: per-job traces name every pipeline
// stage, a warm streamed REDS job's trace proves zero fits and zero index
// builds, DumpMetrics covers every subsystem, and the legacy stat views
// stay consistent with the registry that now backs them.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset_source.h"
#include "engine/discovery_engine.h"
#include "util/rng.h"

namespace reds::engine {
namespace {

#ifdef REDS_OBS_NOOP
#define SKIP_UNDER_NOOP() \
  GTEST_SKIP() << "instrumentation compiled out (REDS_OBS_NOOP)"
#else
#define SKIP_UNDER_NOOP()
#endif

// Grid-valued data: streamed quantization packs exactly (same helper as
// engine_streamed_test).
std::shared_ptr<const Dataset> MakeGridData(int n, int dim, uint64_t seed,
                                            int distinct = 48) {
  Rng rng(seed);
  auto d = std::make_shared<Dataset>(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) {
      v = static_cast<double>(rng.UniformInt(
              static_cast<uint64_t>(distinct))) /
          distinct;
    }
    const double p = (x[0] < 0.45 && x[1 % dim] > 0.3) ? 0.85 : 0.1;
    d->AddRow(x, rng.Bernoulli(p) ? 1.0 : 0.0);
  }
  return d;
}

RunOptions FastOptions() {
  RunOptions options;
  options.l_prim = 1200;
  options.tune_metamodel = false;
  options.seed = 5;
  return options;
}

DiscoveryRequest SourceRequest(std::shared_ptr<const Dataset> data,
                               std::string method) {
  DiscoveryRequest request;
  request.make_train_source =
      [data]() -> std::unique_ptr<DatasetSource> {
    return std::make_unique<MatrixSource>(data);
  };
  request.method = std::move(method);
  request.options = FastOptions();
  return request;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "reds_obs_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

int CountTraceFiles(const std::string& dir) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().string().ends_with(".trace.json")) ++n;
  }
  return n;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(EngineObsTest, NoTraceDirMeansNoTrace) {
  const auto data = MakeGridData(300, 3, 7);
  DiscoveryEngine engine({/*threads=*/2});
  ASSERT_TRUE(engine.trace_dir().empty());
  const auto job = engine.Submit(SourceRequest(data, "P"));
  engine.WaitAll();
  ASSERT_EQ(job->state(), JobState::kDone);
  EXPECT_EQ(job->trace(), nullptr);
}

TEST(EngineObsTest, ColdAndWarmStreamedRedsTracesNameThePipeline) {
  SKIP_UNDER_NOOP();
  const auto data = MakeGridData(250, 4, 11);
  const std::string cache_dir = FreshDir("cache");
  const std::string trace_dir = FreshDir("traces");

  EngineConfig config;
  config.threads = 2;
  config.cache_dir = cache_dir;
  config.trace_dir = trace_dir;

  // Cold engine: the traces show the expensive paths. The streamed plain
  // PRIM job ingests the source (fingerprint + cold sketch/code build);
  // the REDS job materializes the stream, fits a real metamodel, and
  // relabels.
  {
    DiscoveryEngine cold(config);
    ASSERT_EQ(cold.trace_dir(), trace_dir);
    const auto reds_job = cold.Submit(SourceRequest(data, "RPx"));
    const auto prim_job = cold.Submit(SourceRequest(data, "P"));
    cold.WaitAll();
    ASSERT_EQ(reds_job->state(), JobState::kDone)
        << (reds_job->state() == JobState::kFailed ? reds_job->error() : "");
    ASSERT_EQ(prim_job->state(), JobState::kDone)
        << (prim_job->state() == JobState::kFailed ? prim_job->error() : "");
    ASSERT_NE(reds_job->trace(), nullptr);
    for (const char* stage :
         {"job", "ingest.materialize", "metamodel.fit", "relabel.stream",
          "prim.peel", "validate"}) {
      EXPECT_GE(reds_job->trace()->CountEvents(stage), 1)
          << "cold REDS stage " << stage;
    }
    for (const char* stage :
         {"job", "ingest.source", "ingest.fingerprint", "index.build",
          "index.sketch_pass", "index.code_pass", "prim.peel", "validate"}) {
      EXPECT_GE(prim_job->trace()->CountEvents(stage), 1)
          << "cold PRIM stage " << stage;
    }
    // Completed spans also fed the cross-job stage histograms.
    EXPECT_GE(cold.metrics().HistogramData("stage.prim.peel").count, 2u);
    EXPECT_GE(cold.metrics().HistogramData("stage.job").count, 2u);
    cold.Shutdown();
  }

  // Warm engine: the same requests served from the persistent tier. The
  // traces must prove it -- zero fits, zero engine index builds, loads
  // instead. The REDS job is served its finished relabeled stream from
  // the relabel tier: zero labeling passes, zero sketch/code passes, and
  // the metamodel is never even loaded.
  {
    DiscoveryEngine warm(config);
    const auto reds_job = warm.Submit(SourceRequest(data, "RPx"));
    const auto prim_job = warm.Submit(SourceRequest(data, "P"));
    warm.WaitAll();
    ASSERT_EQ(reds_job->state(), JobState::kDone)
        << (reds_job->state() == JobState::kFailed ? reds_job->error() : "");
    ASSERT_EQ(prim_job->state(), JobState::kDone)
        << (prim_job->state() == JobState::kFailed ? prim_job->error() : "");
    ASSERT_NE(reds_job->trace(), nullptr);
    for (const char* absent :
         {"metamodel.fit", "metamodel.load", "index.build", "relabel.stream",
          "relabel.label_pass", "index.sketch_pass", "index.code_pass"}) {
      EXPECT_EQ(reds_job->trace()->CountEvents(absent), 0)
          << "warm REDS must skip " << absent;
    }
    for (const char* stage :
         {"job", "relabel.load", "relabel.cached", "prim.peel", "validate"}) {
      EXPECT_GE(reds_job->trace()->CountEvents(stage), 1)
          << "warm REDS stage " << stage;
    }
    EXPECT_EQ(prim_job->trace()->CountEvents("index.build"), 0);
    EXPECT_EQ(prim_job->trace()->CountEvents("index.sketch_pass"), 0);
    for (const char* stage :
         {"job", "ingest.source", "ingest.fingerprint", "index.load",
          "prim.peel", "validate"}) {
      EXPECT_GE(prim_job->trace()->CountEvents(stage), 1)
          << "warm PRIM stage " << stage;
    }
    warm.Shutdown();
  }

  // All four jobs left Chrome trace JSON on disk: job numbering is
  // process-wide, so the warm engine did not overwrite the cold files.
  EXPECT_EQ(CountTraceFiles(trace_dir), 4);
  bool saw_cold_fit = false;
  bool saw_relabel = false;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    const std::string body = ReadWholeFile(entry.path().string());
    EXPECT_NE(body.find("\"traceEvents\""), std::string::npos)
        << entry.path();
    if (body.find("metamodel.fit") != std::string::npos) saw_cold_fit = true;
    if (body.find("relabel.stream") != std::string::npos) saw_relabel = true;
  }
  EXPECT_TRUE(saw_cold_fit);
  EXPECT_TRUE(saw_relabel);

  std::filesystem::remove_all(cache_dir);
  std::filesystem::remove_all(trace_dir);
}

// A coalesced follower waits on its leader's work, so it lands in the
// leader's latency class: behind a cold leader it is cold, not warm.
TEST(EngineObsTest, FollowerOfColdLeaderIsNotCountedWarm) {
  SKIP_UNDER_NOOP();
  const auto data = MakeGridData(300, 3, 9);
  EngineConfig config;
  config.threads = 1;
  DiscoveryEngine engine(config);
  // Runs a blocker job that holds the only worker until both twins are
  // submitted, so the leader is still queued -- its coalesce window open --
  // when the follower arrives.
  const auto run_twins = [&](const DiscoveryRequest& twin) {
    std::promise<void> release;
    DiscoveryRequest blocker;
    blocker.method = "P";
    blocker.options = FastOptions();
    blocker.make_train = [gate = release.get_future().share(), data] {
      gate.wait();
      return *data;
    };
    const std::vector<JobHandle> jobs = {engine.Submit(std::move(blocker)),
                                         engine.Submit(twin),
                                         engine.Submit(twin)};
    release.set_value();
    engine.WaitAll();
    for (const JobHandle& job : jobs) {
      ASSERT_EQ(job->state(), JobState::kDone) << job->error();
    }
  };
  const auto count = [&](const char* name) {
    return engine.metrics().histogram(name)->Count();
  };
  DiscoveryRequest twin;
  twin.train = data;
  twin.method = "RPx";
  twin.options = FastOptions();
  run_twins(twin);
  EXPECT_EQ(engine.metrics().counter("engine.jobs.coalesced")->Value(), 1u);
  // All three did or waited on cold work: the blocker built the column
  // index, the leader fitted the metamodel and relabeled.
  EXPECT_EQ(count("engine.job.latency_ns"), 3u);
  EXPECT_EQ(count("engine.job.cold_latency_ns"), 3u);
  EXPECT_EQ(count("engine.job.warm_latency_ns"), 0u);

  // A new alpha peels the cached relabeling: a warm leader, whose follower
  // (and the blocker, on cached indexes) stay warm.
  twin.options.default_alpha = 0.1;
  run_twins(twin);
  EXPECT_EQ(engine.metrics().counter("engine.jobs.coalesced")->Value(), 2u);
  EXPECT_EQ(count("engine.job.cold_latency_ns"), 3u);
  EXPECT_EQ(count("engine.job.warm_latency_ns"), 3u);
}

TEST(EngineObsTest, DumpMetricsCoversEverySubsystem) {
  SKIP_UNDER_NOOP();
  const auto data = MakeGridData(250, 4, 13);
  DiscoveryEngine engine({/*threads=*/2});
  // Two concurrent REDS jobs: the single-flight relabel tier makes one
  // relabel build (hence one fit) and one relabel hit; the second job never
  // reaches the metamodel tier.
  const auto first = engine.Submit(SourceRequest(data, "RPx"));
  const auto second = engine.Submit(SourceRequest(data, "RPx"));
  engine.WaitAll();
  // Two sequential streamed PRIM jobs: one LRU miss + build, one hit
  // (sequential so the ingests cannot race past each other).
  const auto third = engine.Submit(SourceRequest(data, "P"));
  engine.WaitAll();
  const auto fourth = engine.Submit(SourceRequest(data, "P"));
  engine.WaitAll();
  ASSERT_EQ(first->state(), JobState::kDone)
      << (first->state() == JobState::kFailed ? first->error() : "");
  ASSERT_EQ(second->state(), JobState::kDone);
  ASSERT_EQ(third->state(), JobState::kDone)
      << (third->state() == JobState::kFailed ? third->error() : "");
  ASSERT_EQ(fourth->state(), JobState::kDone);
  // Joins the workers: pool counters/gauges are final, not racing the
  // tail of the task wrapper.
  engine.Shutdown();

  const obs::MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(metrics.CounterValue("engine.jobs.submitted"), 4u);
  EXPECT_EQ(metrics.CounterValue("engine.jobs.completed"), 4u);
  EXPECT_EQ(metrics.CounterValue("engine.jobs.failed"), 0u);
  EXPECT_EQ(metrics.HistogramData("engine.job.latency_ns").count, 4u);
  EXPECT_EQ(metrics.CounterValue("cache.metamodel.fits"), 1u);
  EXPECT_EQ(metrics.CounterValue("cache.metamodel.hits"), 0u);
  EXPECT_EQ(metrics.CounterValue("cache.relabel.misses"), 1u);
  EXPECT_EQ(metrics.CounterValue("cache.relabel.hits"), 1u);
  EXPECT_EQ(metrics.CounterValue("cache.index.streamed.misses"), 1u);
  EXPECT_EQ(metrics.CounterValue("cache.index.streamed.hits"), 1u);
  EXPECT_EQ(metrics.CounterValue("engine.pool.tasks_completed"), 4u);
  EXPECT_EQ(metrics.HistogramData("engine.pool.task_wait_ns").count, 4u);
  // Idle pool: nothing queued, nobody active.
  EXPECT_EQ(metrics.GaugeValue("engine.pool.queue_depth"), 0);
  EXPECT_EQ(metrics.GaugeValue("engine.pool.active_workers"), 0);

  const std::string json = engine.DumpMetrics();
  for (const char* needle :
       {"\"engine.jobs.submitted\": 4", "\"engine.job.latency_ns\"",
        "\"cache.metamodel.fits\": 1", "\"engine.pool.queue_depth\"",
        "\"cache.metamodel.size\"", "\"engine.build.simd\"",
        "\"cache.relabel.hits\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  const std::string prom = engine.DumpMetrics(obs::ExportFormat::kPrometheus);
  EXPECT_NE(prom.find("engine_jobs_submitted 4"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE engine_job_latency_ns summary"),
            std::string::npos);
}

TEST(EngineObsTest, LegacyStatViewsMatchTheRegistry) {
  SKIP_UNDER_NOOP();
  const auto data = MakeGridData(250, 4, 17);
  const std::string cache_dir = FreshDir("views");
  EngineConfig config;
  config.threads = 2;
  config.cache_dir = cache_dir;
  DiscoveryEngine engine(config);
  const auto reds_job = engine.Submit(SourceRequest(data, "RPx"));
  const auto prim_job = engine.Submit(SourceRequest(data, "P"));
  engine.WaitAll();
  ASSERT_EQ(reds_job->state(), JobState::kDone)
      << (reds_job->state() == JobState::kFailed ? reds_job->error() : "");
  ASSERT_EQ(prim_job->state(), JobState::kDone)
      << (prim_job->state() == JobState::kFailed ? prim_job->error() : "");

  const obs::MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(engine.metamodel_cache().misses(),
            metrics.CounterValue("cache.metamodel.fits"));
  EXPECT_EQ(engine.metamodel_cache().hits(),
            metrics.CounterValue("cache.metamodel.hits"));
  const PersistentCacheStats stats = engine.persistent_cache_stats();
  EXPECT_EQ(stats.model_writes,
            metrics.CounterValue("cache.persistent.model_writes"));
  EXPECT_EQ(stats.index_writes,
            metrics.CounterValue("cache.persistent.index_writes"));
  EXPECT_EQ(stats.model_hits,
            metrics.CounterValue("cache.persistent.model_hits"));
  EXPECT_EQ(stats.bytes_evicted,
            metrics.CounterValue("cache.persistent.bytes_evicted"));
  EXPECT_GE(stats.model_writes, 1u);
  EXPECT_GE(stats.index_writes, 1u);

  engine.Shutdown();
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace reds::engine
