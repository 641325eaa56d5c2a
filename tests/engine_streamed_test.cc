// DatasetSource requests end to end: the engine fingerprints streams
// incrementally, shares every cache tier with the in-memory ingestion path
// (eager, lazy, and streamed requests over bitwise-equal data train once),
// runs untuned plain PRIM without ever materializing the matrix, and --
// with a persistent tier -- serves a warm streamed REDS request with zero
// training and zero index builds. Sources that vouch for their rows with an
// identity() are served warm without being read at all.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataset_source.h"
#include "engine/discovery_engine.h"
#include "shard/source_spec.h"
#include "util/rng.h"

namespace reds::engine {
namespace {

// Grid-valued data: streamed quantization packs exactly, so streamed and
// materialized runs of the same method agree bit for bit.
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

DiscoveryRequest EagerRequest(std::shared_ptr<const Dataset> data,
                              std::string method) {
  DiscoveryRequest request;
  request.train = std::move(data);
  request.method = std::move(method);
  request.options = FastOptions();
  return request;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "reds_stream_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(EngineStreamedTest, PlainPrimSourceMatchesEagerOnGridData) {
  const auto data = MakeGridData(1000, 4, 1);
  DiscoveryEngine engine({/*threads=*/2});
  const auto streamed = engine.Submit(SourceRequest(data, "P"));
  const auto eager = engine.Submit(EagerRequest(data, "P"));
  engine.WaitAll();
  ASSERT_EQ(streamed->state(), JobState::kDone)
      << (streamed->state() == JobState::kFailed ? streamed->error() : "");
  ASSERT_EQ(eager->state(), JobState::kDone);
  EXPECT_TRUE(streamed->output().last_box == eager->output().last_box);
  // The streamed job quantized through its own tier; it never touched the
  // eager path's column index.
  EXPECT_EQ(engine.streamed_index_cache_size(), 1);
}

TEST(EngineStreamedTest, StreamedAndEagerRedsShareOneMetamodelFit) {
  // Identical bytes through different ingestion paths must land on one
  // cache key: the incremental stream hash equals the in-memory hash.
  // The relabel-stream cache is off so both jobs are guaranteed to reach
  // the metamodel cache (it keys on the same full fingerprint and would
  // otherwise serve whichever job runs second, timing-dependent).
  const auto data = MakeGridData(250, 4, 2);
  EngineConfig count_config;
  count_config.threads = 2;
  count_config.cache_relabel_streams = false;
  DiscoveryEngine engine(count_config);
  const auto streamed = engine.Submit(SourceRequest(data, "RPx"));
  const auto eager = engine.Submit(EagerRequest(data, "RPx"));
  engine.WaitAll();
  ASSERT_EQ(streamed->state(), JobState::kDone)
      << (streamed->state() == JobState::kFailed ? streamed->error() : "");
  ASSERT_EQ(eager->state(), JobState::kDone);
  EXPECT_EQ(engine.metamodel_cache().misses(), 1u);
  EXPECT_EQ(engine.metamodel_cache().hits(), 1u);
  EXPECT_TRUE(streamed->output().last_box == eager->output().last_box);
}

TEST(EngineStreamedTest, ShardedPrimMatchesSingleProcessStreamed) {
  // The same plain-PRIM source request, once through the single-process
  // streamed path and once fanned out across an in-process worker fleet
  // (ShardPlan): exact-pack data must yield the identical box, and the
  // fleet's worker metrics must fold into the engine registry.
  const auto data = MakeGridData(1200, 4, 8);
  DiscoveryEngine engine({/*threads=*/2});
  const auto single = engine.Submit(SourceRequest(data, "P"));
  DiscoveryRequest sharded_request = SourceRequest(data, "P");
  sharded_request.shard.workers = 2;
  const auto sharded = engine.Submit(std::move(sharded_request));
  engine.WaitAll();
  ASSERT_EQ(single->state(), JobState::kDone)
      << (single->state() == JobState::kFailed ? single->error() : "");
  ASSERT_EQ(sharded->state(), JobState::kDone)
      << (sharded->state() == JobState::kFailed ? sharded->error() : "");
  EXPECT_TRUE(sharded->output().last_box == single->output().last_box);
  ASSERT_EQ(sharded->output().trajectory.size(),
            single->output().trajectory.size());
  // The fleet pulled its own source instances; only the single-process job
  // went through the streamed index tier.
  EXPECT_EQ(engine.streamed_index_cache_size(), 1);
  // Worker registries folded into the engine's.
  const std::string dump = engine.DumpMetrics(obs::ExportFormat::kJson);
  EXPECT_NE(dump.find("shard.worker.rows"), std::string::npos);
  EXPECT_NE(dump.find("shard.coordinator.workers"), std::string::npos);
}

TEST(EngineStreamedTest, RepeatSourceIngestIndexesOnce) {
  const auto data = MakeGridData(800, 3, 3);
  DiscoveryEngine engine({/*threads=*/2});
  MatrixSource first(data);
  const auto a = engine.IngestSource(&first);
  MatrixSource second(data);
  const auto b = engine.IngestSource(&second);
  // Same fingerprints, same shared index object (LRU hit, no rebuild).
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_EQ(a->input_fingerprint, b->input_fingerprint);
  EXPECT_EQ(a->index.get(), b->index.get());
  EXPECT_EQ(a->y, b->y);
  // A source without an identity is read again, so its totals are counted
  // again -- to the same cells.
  ASSERT_NE(a->totals, nullptr);
  ASSERT_NE(b->totals, nullptr);
  EXPECT_EQ(a->totals->cells, b->totals->cells);
  EXPECT_EQ(engine.streamed_index_cache_size(), 1);
}

// A SyntheticBlockSource that counts every row-touching call; identity()
// is inherited, so the engine sees the generator's own identity.
class CountingSource : public shard::SyntheticBlockSource {
 public:
  CountingSource(const shard::SourceSpec& spec, int* calls)
      : SyntheticBlockSource(spec, 1, 0), calls_(calls) {}
  Status Reset() override {
    ++*calls_;
    return SyntheticBlockSource::Reset();
  }
  Result<RowBlock> NextBlock(int max_rows) override {
    ++*calls_;
    return SyntheticBlockSource::NextBlock(max_rows);
  }

 private:
  int* calls_;
};

uint64_t CounterValue(DiscoveryEngine& engine, const std::string& name) {
  return engine.metrics().counter(name)->Value();
}

TEST(EngineStreamedTest, IdentifiedSourceSkipsIngestWhenWarm) {
  shard::SourceSpec spec;
  spec.rows = 20000;
  spec.dims = 3;
  spec.distinct = 16;
  spec.seed = 7;
  EngineConfig config;
  config.threads = 2;
  config.stream_block_rows = spec.block_rows;
  config.trace_dir = FreshDir("identified_traces");
  DiscoveryEngine engine(config);

  int cold_calls = 0;
  CountingSource cold(spec, &cold_calls);
  const auto a = engine.IngestSource(&cold);
  EXPECT_GT(cold_calls, 0);

  // Warm: served on the identity alone -- not one row read, and the
  // streamed-index tier is not even consulted.
  const uint64_t index_lookups =
      CounterValue(engine, "cache.index.streamed.hits") +
      CounterValue(engine, "cache.index.streamed.misses");
  int warm_calls = 0;
  CountingSource warm(spec, &warm_calls);
  const auto b = engine.IngestSource(&warm);
  EXPECT_EQ(warm_calls, 0);
  // The whole entry is shared: index, labels and bin totals.
  EXPECT_EQ(a.get(), b.get());
  ASSERT_NE(b->totals, nullptr);
  EXPECT_EQ(CounterValue(engine, "cache.ingest.hits"), 1u);
  EXPECT_EQ(CounterValue(engine, "cache.ingest.misses"), 1u);
  EXPECT_EQ(CounterValue(engine, "cache.index.streamed.hits") +
                CounterValue(engine, "cache.index.streamed.misses"),
            index_lookups);

  // A streamed job on the same spec skips ingestion entirely: its trace
  // has no ingest span and its source is never read.
  int job_calls = 0;
  DiscoveryRequest request;
  request.method = "P";
  request.options = FastOptions();
  request.make_train_source = [&]() -> std::unique_ptr<DatasetSource> {
    return std::make_unique<CountingSource>(spec, &job_calls);
  };
  const auto job = engine.Submit(std::move(request));
  job->Wait();
  ASSERT_EQ(job->state(), JobState::kDone) << job->error();
  EXPECT_EQ(job_calls, 0);
  EXPECT_EQ(CounterValue(engine, "cache.ingest.hits"), 2u);
#ifndef REDS_OBS_NOOP
  ASSERT_NE(job->trace(), nullptr);
  EXPECT_EQ(job->trace()->CountEvents("ingest.source"), 0);
  EXPECT_EQ(job->trace()->CountEvents("ingest.fingerprint"), 0);
  EXPECT_GE(job->trace()->CountEvents("prim.peel"), 1);
#endif
  engine.Shutdown();
  std::filesystem::remove_all(config.trace_dir);
}

TEST(EngineStreamedTest, WarmEngineServesStreamedRedsWithZeroWork) {
  const auto data = MakeGridData(250, 4, 4);
  const std::string dir = FreshDir("warm_reds");

  EngineConfig config;
  config.threads = 2;
  config.cache_dir = dir;

  // Cold engine: trains the metamodel and builds + persists the streamed
  // index.
  Box cold_box;
  {
    DiscoveryEngine cold(config);
    const auto reds_job = cold.Submit(SourceRequest(data, "RPx"));
    const auto prim_job = cold.Submit(SourceRequest(data, "P"));
    cold.WaitAll();
    ASSERT_EQ(reds_job->state(), JobState::kDone)
        << (reds_job->state() == JobState::kFailed ? reds_job->error() : "");
    ASSERT_EQ(prim_job->state(), JobState::kDone);
    cold_box = reds_job->output().last_box;
    EXPECT_EQ(cold.metamodel_cache().misses(), 1u);
    const PersistentCacheStats stats = cold.persistent_cache_stats();
    EXPECT_GE(stats.model_writes, 1);
    EXPECT_GE(stats.index_writes, 1);
    EXPECT_GE(stats.relabel_writes, 1);
    cold.Shutdown();
  }

  // Warm engine (fresh process stand-in): the same streamed requests are
  // served from the persistent tier -- zero training, zero index builds,
  // bit-identical result.
  {
    DiscoveryEngine warm(config);
    const auto reds_job = warm.Submit(SourceRequest(data, "RPx"));
    const auto prim_job = warm.Submit(SourceRequest(data, "P"));
    warm.WaitAll();
    ASSERT_EQ(reds_job->state(), JobState::kDone)
        << (reds_job->state() == JobState::kFailed ? reds_job->error() : "");
    ASSERT_EQ(prim_job->state(), JobState::kDone);
    EXPECT_TRUE(reds_job->output().last_box == cold_box);
    const PersistentCacheStats stats = warm.persistent_cache_stats();
    // Zero labeling: the finished relabeled stream (labels + mapped
    // index) came straight from disk, so the metamodel was never even
    // consulted -- no hits, no misses, certainly no retraining.
    EXPECT_GE(stats.relabel_hits, 1);
    EXPECT_EQ(stats.relabel_misses, 0);
    EXPECT_EQ(stats.model_hits, 0);
    EXPECT_EQ(stats.model_misses, 0);
    EXPECT_EQ(stats.model_writes, 0);
    EXPECT_EQ(warm.metamodel_cache().misses(), 0u);
    // Zero index builds: the streamed index came from disk too.
    EXPECT_GE(stats.index_hits, 1);
    EXPECT_EQ(stats.index_writes, 0);
    warm.Shutdown();
  }
  std::filesystem::remove_all(dir);
}

// Yields different rows on every pass: a source that would poison the
// caches keyed by its first pass. `identity` is what it claims to be.
class FlakySource : public DatasetSource {
 public:
  explicit FlakySource(std::optional<uint64_t> identity = std::nullopt)
      : identity_(identity) {}
  int num_cols() const override { return 2; }
  std::optional<uint64_t> identity() const override { return identity_; }
  Status Reset() override {
    emitted_ = false;
    return Status::OK();
  }
  Result<RowBlock> NextBlock(int max_rows) override {
    (void)max_rows;
    if (emitted_) return RowBlock{};
    emitted_ = true;
    x_.clear();
    y_.clear();
    for (int i = 0; i < 64; ++i) {
      x_.push_back(rng_.Uniform());  // new draws on every pass
      x_.push_back(rng_.Uniform());
      y_.push_back(i % 2 == 0 ? 1.0 : 0.0);
    }
    RowBlock block;
    block.x = la::ConstMatrixView(x_.data(), 64, 2);
    block.y = y_.data();
    return block;
  }

 private:
  std::optional<uint64_t> identity_;
  Rng rng_{99};
  bool emitted_ = false;
  std::vector<double> x_, y_;
};

// Warm peels share one cached entry -- one relabeling or one ingested
// source, with its bin totals -- and copy its cells into private state, so
// concurrent peels at different alphas must each return what a cold engine
// computes for that request alone.
TEST(EngineStreamedTest, ConcurrentWarmPeelsMatchColdEngine) {
  const auto data = MakeGridData(400, 4, 12);
  shard::SourceSpec spec;
  spec.rows = 20000;
  spec.dims = 4;
  spec.distinct = 300;  // sketch-binned columns
  spec.seed = 13;
  const auto request = [&](bool reds, double alpha) {
    DiscoveryRequest r;
    if (reds) {
      r = EagerRequest(data, "RPx");
    } else {
      r.method = "P";
      r.options = FastOptions();
      r.make_train_source = [spec]() -> std::unique_ptr<DatasetSource> {
        return std::make_unique<shard::SyntheticBlockSource>(spec, 1, 0);
      };
    }
    r.options.default_alpha = alpha;
    return r;
  };
  const std::vector<double> alphas = {0.05, 0.07, 0.1, 0.13, 0.16, 0.2};

  EngineConfig config;
  config.threads = 1;
  config.coalesce_requests = false;
  config.stream_block_rows = spec.block_rows;

  // Cold: a fresh engine for every request.
  std::vector<MethodOutput> cold;
  for (const bool reds : {true, false}) {
    for (const double alpha : alphas) {
      DiscoveryEngine engine(config);
      const auto job = engine.Submit(request(reds, alpha));
      job->Wait();
      ASSERT_EQ(job->state(), JobState::kDone) << job->error();
      cold.push_back(job->output());
    }
  }

  config.threads = 4;
  DiscoveryEngine engine(config);
  for (const bool reds : {true, false}) {
    const auto warmup = engine.Submit(request(reds, 0.3));
    warmup->Wait();
    ASSERT_EQ(warmup->state(), JobState::kDone) << warmup->error();
  }
  std::vector<JobHandle> jobs;
  for (int round = 0; round < 3; ++round) {
    for (const bool reds : {true, false}) {
      for (const double alpha : alphas) {
        jobs.push_back(engine.Submit(request(reds, alpha)));
      }
    }
  }
  engine.WaitAll();
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(jobs[i]->state(), JobState::kDone) << jobs[i]->error();
    const MethodOutput& want = cold[i % cold.size()];
    EXPECT_TRUE(jobs[i]->output().last_box == want.last_box) << "job " << i;
    EXPECT_TRUE(jobs[i]->output().trajectory == want.trajectory)
        << "job " << i;
  }
  // Every warm job hit the one entry its warm-up built.
  EXPECT_EQ(engine.relabel_stream_cache_size(), 1);
  EXPECT_EQ(CounterValue(engine, "cache.ingest.misses"), 1u);
  EXPECT_EQ(CounterValue(engine, "cache.ingest.hits"),
            static_cast<uint64_t>(3 * alphas.size()));
}

TEST(EngineStreamedTest, NonDeterministicSourceFailsLoudly) {
  DiscoveryEngine engine({/*threads=*/2});
  DiscoveryRequest request;
  request.method = "P";
  request.options = FastOptions();
  request.make_train_source = []() -> std::unique_ptr<DatasetSource> {
    return std::make_unique<FlakySource>();
  };
  const auto job = engine.Submit(std::move(request));
  job->Wait();
  ASSERT_EQ(job->state(), JobState::kFailed);
  EXPECT_NE(job->error().find("deterministic"), std::string::npos);
}

TEST(EngineStreamedTest, FlakySourceClaimingIdentityIsNeverCached) {
  // Claiming an identity does not skip the cold determinism check: the
  // failed read is not cached, so the next call reads (and fails) again.
  EngineConfig config;
  config.threads = 1;
  DiscoveryEngine engine(config);
  for (int attempt = 1; attempt <= 2; ++attempt) {
    FlakySource source(/*identity=*/42);
    try {
      engine.IngestSource(&source);
      ADD_FAILURE() << "attempt " << attempt << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("not deterministic"),
                std::string::npos);
    }
    EXPECT_EQ(CounterValue(engine, "cache.ingest.misses"),
              static_cast<uint64_t>(attempt));
  }
  EXPECT_EQ(CounterValue(engine, "cache.ingest.hits"), 0u);
}

}  // namespace
}  // namespace reds::engine
