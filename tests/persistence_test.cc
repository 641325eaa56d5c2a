// The on-disk cache tier: serialized BinnedIndexes reload bit-identical
// (and re-serialize to identical bytes), all metamodel families predict
// identically after a reload, corrupted/truncated/mismatched cache files
// are rejected -- never trusted -- and a warm engine run over the same
// data skips both index building and metamodel training, producing
// bit-identical results (the warm-vs-cold smoke the CI job drives through
// examples/streaming_discovery as two separate processes).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/binned_index.h"
#include "core/dataset_source.h"
#include "engine/discovery_engine.h"
#include "engine/persistent_cache.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "ml/svm.h"
#include "ml/tuning.h"
#include "util/rng.h"

namespace reds {
namespace {

Dataset MakeData(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.Uniform();
    const double p = (x[0] < 0.45 && x[1] > 0.3) ? 0.8 : 0.15;
    d.AddRow(x, rng.Bernoulli(p) ? 1.0 : 0.0);
  }
  return d;
}

std::string FreshCacheDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "reds_cache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(BinnedIndexSerializationTest, RoundTripsBitIdentical) {
  const Dataset d = MakeData(700, 4, 1);
  const auto original = BinnedIndex::Build(d);
  util::ByteWriter bytes;
  original->Serialize(&bytes);

  util::ByteReader reader(bytes.data());
  auto loaded = BinnedIndex::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  ASSERT_EQ((*loaded)->num_rows(), original->num_rows());
  ASSERT_EQ((*loaded)->num_cols(), original->num_cols());
  EXPECT_EQ((*loaded)->kind(), original->kind());
  for (int j = 0; j < original->num_cols(); ++j) {
    EXPECT_EQ((*loaded)->codes(j), original->codes(j));
    ASSERT_EQ((*loaded)->num_bins(j), original->num_bins(j));
    for (int b = 0; b < original->num_bins(j); ++b) {
      EXPECT_EQ((*loaded)->bin_first(j, b), original->bin_first(j, b));
      EXPECT_EQ((*loaded)->bin_last(j, b), original->bin_last(j, b));
      EXPECT_EQ((*loaded)->bin_begin_rank(j, b),
                original->bin_begin_rank(j, b));
    }
  }
  // Re-serializing the reload produces identical bytes.
  util::ByteWriter again;
  (*loaded)->Serialize(&again);
  EXPECT_EQ(bytes.data(), again.data());
}

TEST(BinnedIndexSerializationTest, StreamedIndexKeepsItsPermutation) {
  const auto data = std::make_shared<Dataset>(MakeData(400, 3, 2));
  MatrixSource source(data);
  auto streamed = BinnedIndex::BuildStreamed(&source);
  ASSERT_TRUE(streamed.ok());
  util::ByteWriter bytes;
  streamed->index->Serialize(&bytes);
  util::ByteReader reader(bytes.data());
  auto loaded = BinnedIndex::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE((*loaded)->has_sorted_rows());
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ((*loaded)->sorted_rows(j), streamed->index->sorted_rows(j));
  }
}

TEST(BinnedIndexSerializationTest, RejectsCorruptionAndTruncation) {
  const Dataset d = MakeData(300, 3, 3);
  const auto original = BinnedIndex::Build(d);
  util::ByteWriter bytes;
  original->Serialize(&bytes);
  const std::string& good = bytes.data();

  // Truncations at every granularity fail cleanly.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{20}, good.size() / 2,
                      good.size() - 1}) {
    util::ByteReader reader(good.data(), keep);
    EXPECT_FALSE(BinnedIndex::Deserialize(&reader).ok()) << keep;
  }
  // A flipped byte in the middle of the payload is caught by the
  // structural / count validation.
  std::string corrupt = good;
  corrupt[corrupt.size() / 2] = static_cast<char>(
      static_cast<uint8_t>(corrupt[corrupt.size() / 2]) ^ 0x5a);
  util::ByteReader reader(corrupt);
  // Either rejected outright, or -- if the flip landed in a value field --
  // it must still parse into a structurally valid index; both are safe.
  auto result = BinnedIndex::Deserialize(&reader);
  if (result.ok()) {
    EXPECT_EQ((*result)->num_rows(), original->num_rows());
    EXPECT_EQ((*result)->num_cols(), original->num_cols());
  }
}

TEST(MetamodelSerializationTest, AllFamiliesPredictIdenticallyAfterReload) {
  const Dataset train = MakeData(300, 4, 4);
  const Dataset probe = MakeData(64, 4, 5);
  const ml::MetamodelKind kinds[] = {ml::MetamodelKind::kRandomForest,
                                     ml::MetamodelKind::kGbt,
                                     ml::MetamodelKind::kSvm};
  for (const ml::MetamodelKind kind : kinds) {
    const auto model = ml::FitDefault(kind, train, 42);
    util::ByteWriter bytes;
    ml::SerializeMetamodel(*model, kind, &bytes);
    util::ByteReader reader(bytes.data());
    auto loaded = ml::DeserializeMetamodel(&reader, kind);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    for (int i = 0; i < probe.num_rows(); ++i) {
      EXPECT_EQ(model->PredictProb(probe.row(i)),
                (*loaded)->PredictProb(probe.row(i)))
          << ml::MetamodelSuffix(kind) << " row " << i;
    }
    // A kind mismatch is rejected.
    util::ByteReader wrong(bytes.data());
    EXPECT_FALSE(ml::DeserializeMetamodel(
                     &wrong, kind == ml::MetamodelKind::kSvm
                                 ? ml::MetamodelKind::kGbt
                                 : ml::MetamodelKind::kSvm)
                     .ok());
  }
}

TEST(PersistentCacheTest, StoresAndReloadsAcrossInstances) {
  const std::string dir = FreshCacheDir("roundtrip");
  const Dataset d = MakeData(250, 3, 6);
  const auto index = BinnedIndex::Build(d);

  {
    engine::PersistentCache cache(dir);
    EXPECT_EQ(cache.LoadBinnedIndex(99, BinnedIndex::BuildKind::kExactPack,
                                    250, 3),
              nullptr);
    cache.StoreBinnedIndex(99, *index);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.index_misses, 1);
    EXPECT_EQ(stats.index_writes, 1);
  }
  {
    // A second instance (a "second process") sees the file.
    engine::PersistentCache cache(dir);
    const auto loaded = cache.LoadBinnedIndex(
        99, BinnedIndex::BuildKind::kExactPack, 250, 3);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->codes(0), index->codes(0));
    EXPECT_EQ(cache.stats().index_hits, 1);
    // Shape or kind mismatches miss instead of returning the wrong index.
    EXPECT_EQ(cache.LoadBinnedIndex(99, BinnedIndex::BuildKind::kSketch, 250,
                                    3),
              nullptr);
    EXPECT_EQ(cache.LoadBinnedIndex(99, BinnedIndex::BuildKind::kExactPack,
                                    251, 3),
              nullptr);
  }
}

TEST(PersistentCacheTest, RejectsTamperedFiles) {
  const std::string dir = FreshCacheDir("tamper");
  const Dataset d = MakeData(200, 3, 7);
  const auto index = BinnedIndex::Build(d);
  engine::PersistentCache cache(dir);
  cache.StoreBinnedIndex(7, *index);

  // Find the written file and flip a payload byte.
  std::string file;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) / 2);
    f.put('\x7f');
  }
  EXPECT_EQ(cache.LoadBinnedIndex(7, BinnedIndex::BuildKind::kExactPack, 200,
                                  3),
            nullptr);
  EXPECT_GE(cache.stats().rejected, 1);

  // Truncation is also rejected.
  std::filesystem::resize_file(file, 10);
  EXPECT_EQ(cache.LoadBinnedIndex(7, BinnedIndex::BuildKind::kExactPack, 200,
                                  3),
            nullptr);
  EXPECT_GE(cache.stats().rejected, 2);
}

TEST(PersistentCacheTest, RejectsMetamodelOfPreviousFormatVersion) {
  // A metamodel file whose header carries the previous format version is
  // refused and counted, never served -- even with its name, key echo and
  // payload checksum intact (the checksum does not cover the header).
  const std::string dir = FreshCacheDir("old_version");
  const Dataset train = MakeData(200, 3, 8);
  const auto model = ml::FitDefault(ml::MetamodelKind::kGbt, train, 9);
  engine::MetamodelKey key;
  key.fingerprint = 0x1234;
  key.kind = ml::MetamodelKind::kGbt;
  key.seed = 5;
  engine::PersistentCache cache(dir);
  cache.StoreMetamodel(key, *model);
  ASSERT_NE(cache.LoadMetamodel(key), nullptr);

  std::string file;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    // Header: u64 magic, then the u32 little-endian format version.
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    unsigned char v[4];
    f.seekg(8);
    f.read(reinterpret_cast<char*>(v), 4);
    const uint32_t version = v[0] | (v[1] << 8) | (v[2] << 16) |
                             (static_cast<uint32_t>(v[3]) << 24);
    ASSERT_GE(version, 2u);
    const uint32_t previous = version - 1;
    for (int b = 0; b < 4; ++b) {
      v[b] = static_cast<unsigned char>(previous >> (8 * b));
    }
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(v), 4);
  }
  const int rejected = cache.stats().rejected;
  EXPECT_EQ(cache.LoadMetamodel(key), nullptr);
  EXPECT_EQ(cache.stats().rejected, rejected + 1);
  EXPECT_EQ(cache.stats().model_hits, 1);
}

// The warm-vs-cold contract, in process: a second engine over the same
// cache directory reloads the quantization and the trained metamodel
// instead of rebuilding them, and produces bit-identical results.
TEST(PersistenceSmokeTest, WarmEngineSkipsIndexBuildAndTraining) {
  const std::string dir = FreshCacheDir("warmcold");
  const auto train = std::make_shared<Dataset>(MakeData(400, 4, 8));

  auto run = [&](std::vector<Box>* boxes) -> engine::PersistentCacheStats {
    engine::EngineConfig config;
    config.threads = 2;
    config.cache_dir = dir;
    engine::DiscoveryEngine engine(config);
    // "RPx" exercises the metamodel tier (REDS + GBT trains on a miss);
    // "P" exercises the index tier (binned PRIM on `train` goes through
    // the engine's BinnedIndex provider).
    for (const char* method : {"RPx", "P"}) {
      engine::DiscoveryRequest request;
      request.train = train;
      request.method = method;
      request.options.l_prim = 3000;
      request.options.tune_metamodel = false;
      const auto job = engine.Submit(request);
      job->Wait();
      EXPECT_EQ(job->state(), engine::JobState::kDone);
      boxes->push_back(job->output().last_box);
    }
    const auto stats = engine.persistent_cache_stats();
    engine.Shutdown();
    return stats;
  };

  std::vector<Box> boxes;
  const auto cold = run(&boxes);
  EXPECT_TRUE(std::filesystem::exists(dir));
  EXPECT_EQ(cold.model_hits, 0);
  EXPECT_GE(cold.model_writes, 1);
  EXPECT_GE(cold.index_writes, 1);
  EXPECT_GE(cold.relabel_writes, 1);

  const auto warm = run(&boxes);
  // The relabel-stream tier serves the REDS job its finished relabeled
  // stream, so the warm run neither retrains nor even reloads the
  // metamodel -- the model tier is never consulted.
  EXPECT_GE(warm.relabel_hits, 1) << "warm run must reuse the relabeling";
  EXPECT_EQ(warm.relabel_misses, 0);
  EXPECT_EQ(warm.model_hits, 0);
  EXPECT_EQ(warm.model_misses, 0) << "warm run must not retrain";
  EXPECT_GE(warm.index_hits, 1) << "warm run must reload the quantization";
  ASSERT_EQ(boxes.size(), 4u);
  EXPECT_TRUE(boxes[0] == boxes[2])
      << "cold and warm REDS runs must produce bit-identical boxes";
  EXPECT_TRUE(boxes[1] == boxes[3])
      << "cold and warm PRIM runs must produce bit-identical boxes";
}

TEST(PersistentCacheTest, StreamedNamespaceIsSeparateAndKeepsPermutation) {
  const std::string dir = FreshCacheDir("streamns");
  const auto data = std::make_shared<Dataset>(MakeData(300, 3, 9));
  MatrixSource source(data);
  auto streamed = BinnedIndex::BuildStreamed(&source);
  ASSERT_TRUE(streamed.ok());

  engine::PersistentCache cache(dir);
  cache.StoreStreamedIndex(17, *streamed->index);
  // The exact-pack namespace does not see the streamed entry (and vice
  // versa): streamed requests are only ever served streamed bins.
  EXPECT_EQ(cache.LoadBinnedIndex(17, streamed->index->kind(), 300, 3),
            nullptr);
  const auto loaded = cache.LoadStreamedIndex(17, 300, 3);
  ASSERT_NE(loaded, nullptr);
  ASSERT_TRUE(loaded->has_sorted_rows());
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(loaded->sorted_rows(j), streamed->index->sorted_rows(j));
    EXPECT_EQ(loaded->codes(j), streamed->index->codes(j));
  }
  // Shape mismatches miss.
  EXPECT_EQ(cache.LoadStreamedIndex(17, 299, 3), nullptr);
  EXPECT_EQ(cache.LoadStreamedIndex(18, 300, 3), nullptr);
}

// The disk tier's byte cap: filling a tiny cache drops the oldest entries
// (by mtime) first, never the entry just written, and counts every
// eviction.
TEST(PersistentCacheTest, ByteCapEvictsOldestEntries) {
  const std::string dir = FreshCacheDir("evict");
  const Dataset d = MakeData(400, 3, 10);
  const auto index = BinnedIndex::Build(d);

  // Size one entry, then cap the cache at just over two of them.
  uint64_t entry_bytes = 0;
  {
    engine::PersistentCache probe(dir);
    probe.StoreBinnedIndex(1, *index);
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      entry_bytes = static_cast<uint64_t>(f.file_size());
    }
    ASSERT_GT(entry_bytes, 0u);
    std::filesystem::remove_all(dir);
  }

  engine::PersistentCache cache(dir, /*max_bytes=*/entry_bytes * 2 +
                                         entry_bytes / 2);
  for (uint64_t fp : {1ULL, 2ULL, 3ULL}) {
    cache.StoreBinnedIndex(fp, *index);
    // Distinct mtimes even on coarse-granularity filesystems.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Three entries never fit: the oldest (fp 1) was dropped, the newer two
  // survive, and the eviction is counted.
  EXPECT_EQ(cache.LoadBinnedIndex(1, BinnedIndex::BuildKind::kExactPack,
                                  400, 3),
            nullptr);
  EXPECT_NE(cache.LoadBinnedIndex(2, BinnedIndex::BuildKind::kExactPack,
                                  400, 3),
            nullptr);
  EXPECT_NE(cache.LoadBinnedIndex(3, BinnedIndex::BuildKind::kExactPack,
                                  400, 3),
            nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().index_writes, 3);

  // A store that alone exceeds the cap still lands (the cap spares the
  // entry just written) but evicts everything else. The trailing slash is
  // deliberate: dir spelling must not defeat the sparing.
  engine::PersistentCache tiny(dir + "/", /*max_bytes=*/1);
  tiny.StoreBinnedIndex(4, *index);
  EXPECT_NE(tiny.LoadBinnedIndex(4, BinnedIndex::BuildKind::kExactPack,
                                 400, 3),
            nullptr);
  EXPECT_EQ(tiny.LoadBinnedIndex(2, BinnedIndex::BuildKind::kExactPack,
                                 400, 3),
            nullptr);
  EXPECT_EQ(tiny.stats().evictions, 2);
}

// EngineConfig::cache_max_bytes reaches the tier: two datasets through a
// one-byte cap leave only the newest entry and surface the eviction in
// the engine's stats.
TEST(PersistentCacheTest, EngineExposesEvictionCounter) {
  const std::string dir = FreshCacheDir("engine_evict");
  engine::EngineConfig config;
  config.threads = 1;
  config.cache_dir = dir;
  config.cache_max_bytes = 1;  // everything but the newest entry evicts
  engine::DiscoveryEngine engine(config);
  for (uint64_t seed : {11ULL, 12ULL}) {
    engine::DiscoveryRequest request;
    request.train = std::make_shared<Dataset>(MakeData(200, 3, seed));
    request.method = "P";
    request.options.tune_metamodel = false;
    engine.Submit(request)->Wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  engine.Shutdown();
  EXPECT_EQ(engine.persistent_cache_stats().index_writes, 2);
  EXPECT_GE(engine.persistent_cache_stats().evictions, 1);
}

// --- Multi-process hardening: several processes sharing one cache
// directory must never corrupt it, whatever the interleaving.

// Counts files in `dir` whose name contains `needle`.
int CountFilesContaining(const std::string& dir, const std::string& needle) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find(needle) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

// Four processes hammer the same two cache keys (an exact-pack entry and a
// streamed entry) with identical bytes while also loading them back. Temp
// files carry a pid/seq suffix so writers never clobber each other's
// in-progress file; renames are atomic so readers only ever observe a
// complete entry. Every load in every process must return valid data, and
// the directory must end clean: one file per entry, no orphaned temps.
TEST(PersistentCacheMultiProcessTest, ConcurrentSameKeyStoresStayValid) {
  const std::string dir = FreshCacheDir("mproc");
  const auto data = std::make_shared<Dataset>(MakeData(300, 3, 21));
  const auto index = BinnedIndex::Build(*data);
  MatrixSource source(data);
  const auto streamed = BinnedIndex::BuildStreamed(&source);
  ASSERT_TRUE(streamed.ok());

  constexpr int kProcesses = 4;
  constexpr int kIters = 30;
  constexpr uint64_t kPackKey = 101;
  constexpr uint64_t kStreamKey = 202;

  std::vector<pid_t> children;
  for (int p = 0; p < kProcesses; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: its own cache instance over the shared directory. Exit
      // codes signal the first failed check; _exit avoids running gtest
      // teardown in the forked copy.
      engine::PersistentCache cache(dir);
      for (int i = 0; i < kIters; ++i) {
        cache.StoreBinnedIndex(kPackKey, *index);
        cache.StoreStreamedIndex(kStreamKey, *streamed->index);
        const auto pack = cache.LoadBinnedIndex(
            kPackKey, BinnedIndex::BuildKind::kExactPack, 300, 3);
        if (pack == nullptr || pack->codes(0) != index->codes(0)) _exit(2);
        const auto stream = cache.LoadStreamedIndex(kStreamKey, 300, 3);
        if (stream == nullptr ||
            stream->codes(0) != streamed->index->codes(0)) {
          _exit(3);
        }
      }
      // Rejections would mean a reader observed a torn file.
      _exit(cache.stats().rejected == 0 ? 0 : 4);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // The directory ends clean: the two entries, no .tmp- orphans.
  EXPECT_EQ(CountFilesContaining(dir, ".tmp-"), 0);
  EXPECT_EQ(CountFilesContaining(dir, ""), 2);

  // And a fresh instance (a later process) still loads both.
  engine::PersistentCache after(dir);
  EXPECT_NE(after.LoadBinnedIndex(kPackKey,
                                  BinnedIndex::BuildKind::kExactPack, 300, 3),
            nullptr);
  EXPECT_NE(after.LoadStreamedIndex(kStreamKey, 300, 3), nullptr);
  EXPECT_EQ(after.stats().rejected, 0);
}

// A pre-existing entry that fails validation must be REPLACED by the next
// store -- never preserved as a "concurrent winner". (The win heuristic
// only applies to files that appear while our own write is in flight;
// files already present when the store starts are stale by definition:
// the engine only stores after a load missed.)
TEST(PersistentCacheMultiProcessTest, StaleEntryIsReplacedNotPreserved) {
  const std::string dir = FreshCacheDir("stale");
  const Dataset d = MakeData(250, 3, 22);
  const auto index = BinnedIndex::Build(d);
  engine::PersistentCache cache(dir);
  cache.StoreBinnedIndex(55, *index);

  // Another "process revision" left garbage under the same name.
  std::string file;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::ofstream f(file, std::ios::binary | std::ios::trunc);
    f << "not a cache entry";
  }
  EXPECT_EQ(cache.LoadBinnedIndex(55, BinnedIndex::BuildKind::kExactPack,
                                  250, 3),
            nullptr);
  EXPECT_GE(cache.stats().rejected, 1);

  // The re-store must overwrite the garbage, and the next load must hit.
  cache.StoreBinnedIndex(55, *index);
  EXPECT_EQ(cache.stats().concurrent_wins, 0);
  const auto reloaded = cache.LoadBinnedIndex(
      55, BinnedIndex::BuildKind::kExactPack, 250, 3);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->codes(0), index->codes(0));
}

// The concurrent-win counter surfaces through stats() and the engine's
// metric registry name.
TEST(PersistentCacheMultiProcessTest, ConcurrentWinCounterIsExposed) {
  const std::string dir = FreshCacheDir("winctr");
  obs::MetricsRegistry metrics;
  engine::PersistentCache cache(dir, 0, &metrics);
  EXPECT_EQ(cache.stats().concurrent_wins, 0);
  metrics.counter("cache.persistent.concurrent_wins")->Add(3);
  EXPECT_EQ(cache.stats().concurrent_wins, 3);
}

}  // namespace
}  // namespace reds
