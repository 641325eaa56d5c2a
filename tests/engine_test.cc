// Tests for the discovery engine: metamodel-cache accounting (k REDS
// requests on one dataset -> one fit), concurrent submission, determinism
// across thread counts, dataset fingerprints, and the result store.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "engine/discovery_engine.h"
#include "engine/fingerprint.h"
#include "util/rng.h"

namespace reds::engine {
namespace {

// These tests assert exact fit/hit accounting; a developer's persistent
// cache directory must not leak in through the environment.
const bool kHermetic = [] {
  unsetenv("REDS_CACHE_DIR");
  return true;
}();

std::shared_ptr<const Dataset> MakeData(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  auto d = std::make_shared<Dataset>(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.Uniform();
    d->AddRow(x, (x[0] < 0.45 && x[1] > 0.3) ? 1.0 : 0.0);
  }
  return d;
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

// Engine config for the metamodel-accounting tests below. The
// relabel-stream cache serves a repeat REDS job its finished relabeled
// stream before the metamodel cache is ever consulted -- and whether a
// concurrent repeat hits it depends on job timing -- so these tests turn
// it off to count every metamodel lookup deterministically. Job-level
// coalescing is off for the same reason: a coalesced follower never
// consults any cache at all (that layer has its own accounting test,
// engine_coalesce_test).
EngineConfig CountEveryLookupConfig(int threads) {
  EngineConfig config;
  config.threads = threads;
  config.cache_relabel_streams = false;
  config.coalesce_requests = false;
  return config;
}

DiscoveryRequest MakeRequest(std::shared_ptr<const Dataset> train,
                             std::string method,
                             std::shared_ptr<const Dataset> test = nullptr) {
  DiscoveryRequest request;
  request.train = std::move(train);
  request.method = std::move(method);
  request.options = FastOptions();
  request.test = std::move(test);
  return request;
}

TEST(MetamodelCacheTest, FitCountIsOneForKSameDatasetRedsRequests) {
  const auto train = MakeData(200, 4, 1);
  DiscoveryEngine engine(CountEveryLookupConfig(/*threads=*/4));
  // Three REDS variants, all with the GBT metamodel: the relabeling (hard
  // vs. probability labels) differs but the metamodel is shared.
  std::vector<JobHandle> jobs;
  for (const char* method : {"RPx", "RPxp", "RPx"}) {
    jobs.push_back(engine.Submit(MakeRequest(train, method)));
  }
  engine.WaitAll();
  for (const auto& job : jobs) {
    ASSERT_EQ(job->state(), JobState::kDone)
        << (job->state() == JobState::kFailed ? job->error() : "");
  }
  EXPECT_EQ(engine.metamodel_cache().misses(), 1u);
  EXPECT_EQ(engine.metamodel_cache().hits(), 2u);
  EXPECT_EQ(engine.metamodel_cache().size(), 1u);
}

TEST(MetamodelCacheTest, DistinctKindsAndDatasetsFitSeparately) {
  const auto train_a = MakeData(200, 4, 1);
  const auto train_b = MakeData(200, 4, 2);
  DiscoveryEngine engine({/*threads=*/2});
  engine.Submit(MakeRequest(train_a, "RPx"));
  engine.Submit(MakeRequest(train_a, "RPf"));  // same data, other metamodel
  engine.Submit(MakeRequest(train_b, "RPx"));  // other data, same metamodel
  engine.WaitAll();
  EXPECT_EQ(engine.metamodel_cache().misses(), 3u);
  EXPECT_EQ(engine.metamodel_cache().hits(), 0u);
}

TEST(MetamodelCacheTest, BitwiseEqualDatasetObjectsShareOneFit) {
  // Distinct Dataset objects with identical contents hash to the same key.
  const auto train_a = MakeData(150, 3, 7);
  const auto train_b = MakeData(150, 3, 7);
  ASSERT_NE(train_a.get(), train_b.get());
  DiscoveryEngine engine(CountEveryLookupConfig(/*threads=*/2));
  engine.Submit(MakeRequest(train_a, "RPx"));
  engine.Submit(MakeRequest(train_b, "RPx"));
  engine.WaitAll();
  EXPECT_EQ(engine.metamodel_cache().misses(), 1u);
  EXPECT_EQ(engine.metamodel_cache().hits(), 1u);
}

TEST(BinnedIndexCacheTest, BatchOverOneDatasetQuantizesOnce) {
  // Plain PRIM jobs route both the columnar index and its quantization
  // through the engine's fingerprint-keyed caches: three jobs over the same
  // data leave exactly one entry in each.
  const auto train = MakeData(300, 4, 11);
  DiscoveryEngine engine({/*threads=*/4});
  for (int rep = 0; rep < 3; ++rep) {
    auto request = MakeRequest(train, "P");
    request.rep = rep;
    engine.Submit(std::move(request));
  }
  engine.WaitAll();
  EXPECT_EQ(engine.column_index_cache_size(), 1);
  EXPECT_EQ(engine.binned_index_cache_size(), 1);
  // The cached quantization is the one the provider hands out.
  const auto binned = engine.GetBinnedIndex(*train);
  ASSERT_NE(binned, nullptr);
  EXPECT_EQ(binned->num_rows(), train->num_rows());
  EXPECT_EQ(engine.binned_index_cache_size(), 1);
}

TEST(DiscoveryEngineTest, ConcurrentSubmissionStress) {
  const auto train_a = MakeData(180, 4, 3);
  const auto train_b = MakeData(180, 4, 4);
  const auto test = MakeData(2000, 4, 5);
  DiscoveryEngine engine(CountEveryLookupConfig(/*threads=*/8));
  std::vector<JobHandle> jobs;
  const char* methods[] = {"P", "RPx", "BI", "RPxp"};
  for (int i = 0; i < 32; ++i) {
    // (method, dataset) is determined by i mod 8, so every combination runs
    // with reps 0..3 (rep = i / 8).
    const bool first_dataset = (i / 4) % 2 == 0;
    DiscoveryRequest request =
        MakeRequest(first_dataset ? train_a : train_b, methods[i % 4], test);
    request.cell = std::string(methods[i % 4]) + (first_dataset ? "|a" : "|b");
    request.rep = i / 8;
    jobs.push_back(engine.Submit(std::move(request)));
  }
  engine.WaitAll();
  for (const auto& job : jobs) {
    ASSERT_EQ(job->state(), JobState::kDone)
        << (job->state() == JobState::kFailed ? job->error() : "");
    const MetricSet& m = job->metrics();
    EXPECT_GE(m.pr_auc, 0.0);
    EXPECT_LE(m.pr_auc, 100.0 + 1e-9);
    EXPECT_GE(m.precision, 0.0);
    EXPECT_GE(m.runtime_seconds, 0.0);
  }
  // Two datasets x one (GBT, untuned) metamodel each; everything else hits.
  EXPECT_EQ(engine.metamodel_cache().misses(), 2u);
  EXPECT_EQ(engine.metamodel_cache().hits(), 16u - 2);
  EXPECT_TRUE(engine.results().Contains("RPx|a"));
  EXPECT_EQ(engine.results().cell("P|b").reps.size(), 4u);
}

TEST(DiscoveryEngineTest, SameSeedSameResultsRegardlessOfThreadCount) {
  const auto train = MakeData(200, 4, 9);
  const auto test = MakeData(1500, 4, 10);
  const char* methods[] = {"P", "RPx", "RPxp", "BI", "RPf"};

  auto run = [&](int threads) {
    EngineConfig config;
    config.threads = threads;
    config.seed = 99;
    DiscoveryEngine engine(config);
    std::vector<JobHandle> jobs;
    for (const char* method : methods) {
      jobs.push_back(engine.Submit(MakeRequest(train, method, test)));
    }
    engine.WaitAll();
    std::vector<std::pair<MetricSet, Box>> out;
    for (const auto& job : jobs) {
      EXPECT_EQ(job->state(), JobState::kDone);
      out.emplace_back(job->metrics(), job->output().last_box);
    }
    return out;
  };

  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].first.pr_auc, parallel[i].first.pr_auc)
        << methods[i];
    EXPECT_DOUBLE_EQ(serial[i].first.precision, parallel[i].first.precision)
        << methods[i];
    EXPECT_DOUBLE_EQ(serial[i].first.recall, parallel[i].first.recall)
        << methods[i];
    EXPECT_TRUE(serial[i].second == parallel[i].second) << methods[i];
  }
}

TEST(DiscoveryEngineTest, LazyDatasetFactoryMatchesEagerDataset) {
  const auto train = MakeData(150, 3, 11);
  DiscoveryEngine engine({/*threads=*/2});
  DiscoveryRequest lazy;
  lazy.make_train = [] { return *MakeData(150, 3, 11); };
  lazy.method = "RPx";
  lazy.options = FastOptions();
  lazy.cell = "lazy";
  const auto lazy_job = engine.Submit(std::move(lazy));
  DiscoveryRequest eager = MakeRequest(train, "RPx");
  eager.cell = "eager";
  const auto eager_job = engine.Submit(std::move(eager));
  engine.WaitAll();
  ASSERT_EQ(lazy_job->state(), JobState::kDone);
  ASSERT_EQ(eager_job->state(), JobState::kDone);
  // Bitwise-identical generated data shares the cache entry...
  EXPECT_EQ(engine.metamodel_cache().misses(), 1u);
  // ...and therefore the exact same discovered scenario.
  EXPECT_TRUE(lazy_job->output().last_box == eager_job->output().last_box);
}

TEST(DiscoveryEngineTest, InvalidRequestsFailCleanly) {
  DiscoveryEngine engine({/*threads=*/2});
  const auto bad_method = engine.Submit(MakeRequest(MakeData(50, 2, 1), "ZZZ"));
  DiscoveryRequest no_data;
  no_data.method = "P";
  const auto no_data_job = engine.Submit(std::move(no_data));
  DiscoveryRequest both_data = MakeRequest(MakeData(50, 2, 1), "P");
  both_data.make_train = [] { return *MakeData(50, 2, 1); };
  const auto both_data_job = engine.Submit(std::move(both_data));
  engine.WaitAll();
  EXPECT_EQ(bad_method->state(), JobState::kFailed);
  EXPECT_NE(bad_method->error().find("ZZZ"), std::string::npos);
  EXPECT_EQ(no_data_job->state(), JobState::kFailed);
  EXPECT_FALSE(no_data_job->error().empty());
  EXPECT_EQ(both_data_job->state(), JobState::kFailed);
  EXPECT_NE(both_data_job->error().find("more than one"), std::string::npos);
}

TEST(FingerprintTest, SensitiveToEveryValue) {
  const auto a = MakeData(60, 3, 21);
  const auto b = MakeData(60, 3, 21);
  EXPECT_EQ(FingerprintDataset(*a), FingerprintDataset(*b));
  Dataset c = *a;
  c.set_y(59, 1.0 - c.y(59));
  EXPECT_NE(FingerprintDataset(*a), FingerprintDataset(c));
  EXPECT_NE(FingerprintDataset(*a), FingerprintDataset(*MakeData(60, 3, 22)));
  EXPECT_NE(FingerprintDataset(*a), FingerprintDataset(*MakeData(59, 3, 21)));
}

TEST(ResultStoreTest, RecordAggregateAndExport) {
  ResultStore store;
  store.Reserve("cell", 2);
  MetricSet m0;
  m0.pr_auc = 80.0;
  m0.precision = 60.0;
  MetricSet m1;
  m1.pr_auc = 90.0;
  m1.precision = 70.0;
  const Box box = Box::Unbounded(2);
  store.Record("cell", 0, m0, box);
  store.Record("cell", 1, m1, box);
  EXPECT_EQ(store.CellNames(), std::vector<std::string>{"cell"});
  EXPECT_DOUBLE_EQ(store.cell("cell").Mean().pr_auc, 85.0);
  EXPECT_DOUBLE_EQ(store.cell("cell").Mean().precision, 65.0);
  store.ComputeConsistency("cell", {0.0, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(store.cell("cell").consistency, 100.0);
  EXPECT_THROW(store.cell("missing"), std::out_of_range);

  const std::string path = "/tmp/reds_result_store_test.csv";
  ASSERT_TRUE(store.WriteCsv(path).ok());
  const auto table = ReadCsvFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table->rows[1][2], 90.0);  // rep 1, pr_auc column
}

}  // namespace
}  // namespace reds::engine
