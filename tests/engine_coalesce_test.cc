// Single-flight job coalescing: N identical concurrent requests must
// perform exactly one metamodel fit and one index build, with the leader's
// output fanned out to every handle. The tests pin the race by plugging the
// one-thread pool with a gated job, so every identical request submitted
// behind it attaches to the queued leader deterministically; the "did no
// extra work" claim is then asserted by comparing every cold-work counter
// of an N-request burst against a single-request control run.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "engine/discovery_engine.h"
#include "util/rng.h"

namespace reds::engine {
namespace {

// Exact cold-work accounting; a developer's persistent cache directory
// must not leak in through the environment.
const bool kHermetic = [] {
  unsetenv("REDS_CACHE_DIR");
  return true;
}();

Dataset MakeDataValue(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.Uniform();
    d.AddRow(x, (x[0] < 0.45 && x[1] > 0.3) ? 1.0 : 0.0);
  }
  return d;
}

std::shared_ptr<const Dataset> MakeData(int n, int dim, uint64_t seed) {
  return std::make_shared<const Dataset>(MakeDataValue(n, dim, seed));
}

RunOptions FastOptions() {
  RunOptions options;
  options.l_prim = 1500;
  options.l_bi = 800;
  options.bumping_q = 6;
  options.tune_metamodel = false;
  options.seed = 5;
  return options;
}

EngineConfig ColdConfig() {
  EngineConfig config;
  config.threads = 1;  // one worker: the gate job plugs the whole pool
  config.enable_persistent_cache = false;
  return config;
}

// Blocks the pool's worker inside a make_train factory until opened.
class Gate {
 public:
  void Open() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Occupies the single worker with a job over its own (distinct) data, so
// everything submitted behind it is still queued -- and coalesces at
// submit time -- until the gate opens.
JobHandle SubmitGateJob(DiscoveryEngine* engine, Gate* gate) {
  DiscoveryRequest request;
  request.make_train = [gate] {
    gate->Wait();
    return MakeDataValue(80, 3, 999);
  };
  request.method = "P";
  request.options = FastOptions();
  request.cell = "gate";
  return engine->Submit(std::move(request));
}

DiscoveryRequest IdenticalRequest(std::shared_ptr<const Dataset> train,
                                  std::shared_ptr<const Dataset> test,
                                  int i) {
  DiscoveryRequest request;
  request.train = std::move(train);
  request.method = "RPx";
  request.options = FastOptions();
  request.test = std::move(test);
  request.cell = "RPx-" + std::to_string(i);  // follower-local, off the key
  request.rep = i;
  return request;
}

// Every counter that increments only when real (cache-missing) work runs.
struct ColdWork {
  uint64_t column_misses = 0;
  uint64_t binned_misses = 0;
  uint64_t streamed_misses = 0;
  uint64_t relabel_misses = 0;
};

struct BurstRun {
  ColdWork work;
  uint64_t fits = 0;
  uint64_t hits = 0;
  uint64_t coalesced = 0;
  std::vector<JobHandle> jobs;
};

BurstRun RunBurst(int n) {
  DiscoveryEngine engine(ColdConfig());
  Gate gate;
  const JobHandle gate_job = SubmitGateJob(&engine, &gate);
  const auto train = MakeData(200, 4, 1);
  const auto test = MakeData(1000, 4, 2);
  BurstRun run;
  for (int i = 0; i < n; ++i) {
    run.jobs.push_back(engine.Submit(IdenticalRequest(train, test, i)));
  }
  gate.Open();
  engine.WaitAll();
  EXPECT_EQ(gate_job->state(), JobState::kDone);
  run.work.column_misses =
      engine.metrics().counter("cache.index.column.misses")->Value();
  run.work.binned_misses =
      engine.metrics().counter("cache.index.binned.misses")->Value();
  run.work.streamed_misses =
      engine.metrics().counter("cache.index.streamed.misses")->Value();
  run.work.relabel_misses =
      engine.metrics().counter("cache.relabel.misses")->Value();
  run.fits = engine.metamodel_cache().misses();
  run.hits = engine.metamodel_cache().hits();
  run.coalesced = engine.metrics().counter("engine.jobs.coalesced")->Value();
  return run;
}

TEST(EngineCoalesceTest, NIdenticalRequestsDoTheWorkOfOne) {
  const BurstRun control = RunBurst(1);
  const BurstRun burst = RunBurst(6);

  // Exactly one metamodel fit on the cold engine, and -- unlike the
  // metamodel-cache dedup of previous engines -- zero additional cache
  // lookups: followers never reach any cache at all.
  EXPECT_EQ(burst.fits, 1u);
  EXPECT_EQ(burst.hits, 0u);
  EXPECT_EQ(burst.coalesced, 5u);

  // Every cold-work counter of the 6-request burst equals the 1-request
  // control: the five duplicates built no index, ran no relabeling, and
  // touched no cache tier.
  EXPECT_EQ(burst.work.column_misses, control.work.column_misses);
  EXPECT_EQ(burst.work.binned_misses, control.work.binned_misses);
  EXPECT_EQ(burst.work.streamed_misses, control.work.streamed_misses);
  EXPECT_EQ(burst.work.relabel_misses, control.work.relabel_misses);
  EXPECT_EQ(control.coalesced, 0u);
}

TEST(EngineCoalesceTest, EveryHandleGetsTheSameBoxesAndMetrics) {
  const BurstRun burst = RunBurst(5);
  ASSERT_EQ(burst.jobs.size(), 5u);
  for (const JobHandle& job : burst.jobs) {
    ASSERT_EQ(job->state(), JobState::kDone)
        << (job->state() == JobState::kFailed ? job->error() : "");
  }
  const JobHandle& leader = burst.jobs.front();
  ASSERT_FALSE(leader->output().trajectory.empty());
  for (size_t i = 1; i < burst.jobs.size(); ++i) {
    const JobHandle& f = burst.jobs[i];
    EXPECT_TRUE(f->output().last_box == leader->output().last_box) << i;
    ASSERT_EQ(f->output().trajectory.size(), leader->output().trajectory.size());
    for (size_t t = 0; t < leader->output().trajectory.size(); ++t) {
      EXPECT_TRUE(f->output().trajectory[t] == leader->output().trajectory[t]);
    }
    // Same test data on every request: identical metric values, evaluated
    // per handle.
    EXPECT_EQ(f->metrics().pr_auc, leader->metrics().pr_auc);
    EXPECT_EQ(f->metrics().precision, leader->metrics().precision);
    EXPECT_EQ(f->metrics().recall, leader->metrics().recall);
  }
}

TEST(EngineCoalesceTest, FollowersRecordIntoTheirOwnCells) {
  DiscoveryEngine engine(ColdConfig());
  Gate gate;
  SubmitGateJob(&engine, &gate);
  const auto train = MakeData(200, 4, 1);
  const auto test = MakeData(1000, 4, 2);
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(engine.Submit(IdenticalRequest(train, test, i)));
  }
  gate.Open();
  engine.WaitAll();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(engine.results().Contains("RPx-" + std::to_string(i))) << i;
  }
}

TEST(EngineCoalesceTest, KeepOutputStaysFollowerLocal) {
  DiscoveryEngine engine(ColdConfig());
  Gate gate;
  SubmitGateJob(&engine, &gate);
  const auto train = MakeData(200, 4, 1);
  // Leader discards its trajectory; the follower keeps its own copy.
  DiscoveryRequest lead = IdenticalRequest(train, nullptr, 0);
  lead.keep_output = false;
  DiscoveryRequest follow = IdenticalRequest(train, nullptr, 1);
  follow.keep_output = true;
  const JobHandle leader = engine.Submit(std::move(lead));
  const JobHandle follower = engine.Submit(std::move(follow));
  gate.Open();
  engine.WaitAll();
  ASSERT_EQ(leader->state(), JobState::kDone) << leader->error();
  ASSERT_EQ(follower->state(), JobState::kDone) << follower->error();
  EXPECT_TRUE(leader->output().trajectory.empty());
  EXPECT_FALSE(follower->output().trajectory.empty());
  EXPECT_TRUE(follower->output().last_box == leader->output().last_box);
}

TEST(EngineCoalesceTest, LeaderFailureFailsEveryFollower) {
  DiscoveryEngine engine(ColdConfig());
  Gate gate;
  SubmitGateJob(&engine, &gate);
  const auto train = MakeData(100, 3, 4);
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 3; ++i) {
    DiscoveryRequest request;
    request.train = train;
    request.method = "ZZZ";  // fails method parsing on the leader
    request.options = FastOptions();
    jobs.push_back(engine.Submit(std::move(request)));
  }
  gate.Open();
  engine.WaitAll();
  int leader_errors = 0;
  int follower_errors = 0;
  for (const JobHandle& job : jobs) {
    ASSERT_EQ(job->state(), JobState::kFailed);
    if (job->error().find("coalesced leader job failed") != std::string::npos) {
      ++follower_errors;
    } else {
      ++leader_errors;
    }
  }
  EXPECT_EQ(leader_errors, 1);
  EXPECT_EQ(follower_errors, 2);
}

TEST(EngineCoalesceTest, CustomProviderRequestsNeverCoalesce) {
  DiscoveryEngine engine(ColdConfig());
  Gate gate;
  SubmitGateJob(&engine, &gate);
  const auto train = MakeData(150, 3, 6);
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 2; ++i) {
    DiscoveryRequest request = IdenticalRequest(train, nullptr, i);
    // A caller-supplied provider opts the request out of coalescing: the
    // engine cannot prove two callers' hooks behave identically.
    request.options.column_index_provider = [](const Dataset& d) {
      return ColumnIndex::Build(d);
    };
    jobs.push_back(engine.Submit(std::move(request)));
  }
  gate.Open();
  engine.WaitAll();
  for (const JobHandle& job : jobs) {
    ASSERT_EQ(job->state(), JobState::kDone) << job->error();
  }
  EXPECT_EQ(engine.metrics().counter("engine.jobs.coalesced")->Value(), 0u);
}

TEST(EngineCoalesceTest, UncoalescedIdenticalRedsJobsRelabelOnce) {
  // With coalescing off, K identical streamed-REDS jobs each take a worker
  // and reach the relabel-stream tier concurrently. Its single-flight build
  // still relabels once: the other jobs join that attempt or hit its
  // result, and none of them reaches the metamodel tier.
  constexpr int kJobs = 4;
  const std::string trace_dir =
      ::testing::TempDir() + "reds_coalesce_relabel_traces";
  std::filesystem::remove_all(trace_dir);
  EngineConfig config = ColdConfig();
  config.threads = kJobs;
  config.coalesce_requests = false;
  config.trace_dir = trace_dir;
  DiscoveryEngine engine(config);
  const auto train = MakeData(200, 4, 1);
  std::vector<JobHandle> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(engine.Submit(IdenticalRequest(train, nullptr, i)));
  }
  engine.WaitAll();
  int relabel_streams = 0;
  for (const JobHandle& job : jobs) {
    ASSERT_EQ(job->state(), JobState::kDone)
        << (job->state() == JobState::kFailed ? job->error() : "");
    ASSERT_NE(job->trace(), nullptr);
    relabel_streams += job->trace()->CountEvents("relabel.stream");
  }
  EXPECT_EQ(engine.metrics().counter("cache.relabel.misses")->Value(), 1u);
  EXPECT_EQ(engine.metrics().counter("cache.relabel.hits")->Value(),
            static_cast<uint64_t>(kJobs - 1));
  EXPECT_EQ(engine.metamodel_cache().misses(), 1u);
  EXPECT_EQ(engine.metamodel_cache().hits(), 0u);
  EXPECT_EQ(engine.metrics().counter("engine.jobs.coalesced")->Value(), 0u);
#ifndef REDS_OBS_NOOP
  EXPECT_EQ(relabel_streams, 1);
#endif
  std::filesystem::remove_all(trace_dir);
}

TEST(EngineCoalesceTest, WarmAndColdLatencySplitInMetrics) {
  DiscoveryEngine engine(ColdConfig());
  const auto train = MakeData(200, 4, 1);
  engine.Submit(IdenticalRequest(train, nullptr, 0));
  engine.WaitAll();  // cold: fits the metamodel, builds the indexes
  engine.Submit(IdenticalRequest(train, nullptr, 1));
  engine.WaitAll();  // warm: every tier hits; no coalescing (leader done)
  EXPECT_EQ(engine.metrics().histogram("engine.job.cold_latency_ns")->Count(),
            1u);
  EXPECT_EQ(engine.metrics().histogram("engine.job.warm_latency_ns")->Count(),
            1u);
  EXPECT_EQ(engine.metrics().histogram("engine.job.latency_ns")->Count(), 2u);
  const std::string dump = engine.DumpMetrics();
  EXPECT_NE(dump.find("engine.job.warm_latency_ns"), std::string::npos);
  EXPECT_NE(dump.find("engine.job.cold_latency_ns"), std::string::npos);
  EXPECT_NE(dump.find("engine.jobs.coalesced"), std::string::npos);
}

}  // namespace
}  // namespace reds::engine
