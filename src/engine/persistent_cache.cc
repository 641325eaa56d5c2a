#include "engine/persistent_cache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "ml/serialize.h"

namespace reds::engine {

namespace {

// File layout: magic, format version, algorithm revision, payload size,
// payload, FNV-64 of the payload. The payload itself opens with an echo of
// the cache key.
constexpr uint64_t kIndexMagic = 0x5245445342494458ULL;   // "REDSBIDX"
constexpr uint64_t kModelMagic = 0x524544534d4f444cULL;   // "REDSMODL"
constexpr uint64_t kRelabelMagic = 0x52454453524c4253ULL; // "REDSRLBS"
constexpr uint32_t kFormatVersion = 1;

// Revision of the *producing algorithms* (quantile packing, metamodel
// training), not the wire layout: a cached artifact is only valid if the
// current binary would have produced the identical bytes, because the
// engine promises warm and cold runs bit-identical results. Bump this
// whenever a change alters what Build/Fit computes for the same inputs
// (as PR 2's presorted and PR 3's histogram rework did) -- every stale
// cache entry is then rejected and rebuilt instead of silently served.
constexpr uint32_t kAlgorithmRevision = 1;

// Temp-file names: pid + thread-id hash + a process-wide sequence number.
// The sequence makes every temp name unique even when thread ids recycle
// or two threads' id hashes collide, so concurrent writers (threads or
// whole processes, as in a sharded fleet) can never interleave bytes into
// one temp file.
std::atomic<uint64_t> g_tmp_seq{0};

std::string TmpName(const std::string& path) {
  return path + ".tmp-" +
         std::to_string(static_cast<long long>(::getpid())) + "-" +
         std::to_string(static_cast<long long>(
             std::hash<std::thread::id>{}(std::this_thread::get_id()) &
             0xffffffULL)) +
         "-" + std::to_string(g_tmp_seq.fetch_add(1));
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void WriteKeyEcho(const MetamodelKey& key, util::ByteWriter* out) {
  out->U64(key.fingerprint);
  out->U8(static_cast<uint8_t>(key.kind));
  out->U8(key.tuned ? 1 : 0);
  out->U8(static_cast<uint8_t>(key.budget));
  out->U8(static_cast<uint8_t>(key.backend));
  out->U8(static_cast<uint8_t>(key.growth));
  out->I32(key.max_leaves);
  out->U64(key.seed);
}

// File-name hash over exactly the bytes WriteKeyEcho emits, so a new
// MetamodelKey field added there automatically reaches the name too (a
// name/echo drift would make two keys thrash one file).
uint64_t HashKey(const MetamodelKey& key) {
  util::ByteWriter w;
  WriteKeyEcho(key, &w);
  return util::Fnv64(w.data().data(), w.data().size());
}

bool ReadKeyEchoMatches(const MetamodelKey& key, util::ByteReader* in) {
  const uint64_t fingerprint = in->U64();
  const uint8_t kind = in->U8();
  const uint8_t tuned = in->U8();
  const uint8_t budget = in->U8();
  const uint8_t backend = in->U8();
  const uint8_t growth = in->U8();
  const int32_t max_leaves = in->I32();
  const uint64_t seed = in->U64();
  return in->ok() && fingerprint == key.fingerprint &&
         kind == static_cast<uint8_t>(key.kind) &&
         tuned == (key.tuned ? 1 : 0) &&
         budget == static_cast<uint8_t>(key.budget) &&
         backend == static_cast<uint8_t>(key.backend) &&
         growth == static_cast<uint8_t>(key.growth) &&
         max_leaves == key.max_leaves && seed == key.seed;
}

}  // namespace

PersistentCache::PersistentCache(std::string dir, uint64_t max_bytes,
                                 obs::MetricsRegistry* metrics)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Best-effort: an unwritable directory just makes every lookup miss and
  // every store a no-op; the engine falls back to building/fitting.
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  index_hits_ = metrics->counter("cache.persistent.index_hits");
  index_misses_ = metrics->counter("cache.persistent.index_misses");
  index_writes_ = metrics->counter("cache.persistent.index_writes");
  model_hits_ = metrics->counter("cache.persistent.model_hits");
  model_misses_ = metrics->counter("cache.persistent.model_misses");
  model_writes_ = metrics->counter("cache.persistent.model_writes");
  relabel_hits_ = metrics->counter("cache.persistent.relabel_hits");
  relabel_misses_ = metrics->counter("cache.persistent.relabel_misses");
  relabel_writes_ = metrics->counter("cache.persistent.relabel_writes");
  rejected_ = metrics->counter("cache.persistent.rejected");
  evictions_ = metrics->counter("cache.persistent.evictions");
  bytes_evicted_ = metrics->counter("cache.persistent.bytes_evicted");
  concurrent_wins_ = metrics->counter("cache.persistent.concurrent_wins");
}

std::string PersistentCache::IndexPath(uint64_t input_fingerprint,
                                       BinnedIndex::BuildKind kind) const {
  const char* tag =
      kind == BinnedIndex::BuildKind::kExactPack ? "exact" : "sketch";
  return dir_ + "/bidx-" + tag + "-" + Hex16(input_fingerprint) + ".bin";
}

std::string PersistentCache::StreamedIndexPath(
    uint64_t input_fingerprint) const {
  // "bmap": the mapped REDSBMAP format. The name changed with the format,
  // so pre-mapped "bidx-stream-*" entries simply plain-miss and rebuild
  // (then age out under the byte cap) instead of being misparsed.
  return dir_ + "/bmap-stream-" + Hex16(input_fingerprint) + ".bin";
}

std::string PersistentCache::RelabelStreamPath(uint64_t key) const {
  return dir_ + "/reds-stream-" + Hex16(key) + ".bin";
}

std::string PersistentCache::ModelPath(const MetamodelKey& key) const {
  return dir_ + "/model-" + Hex16(HashKey(key)) + ".bin";
}

bool PersistentCache::ReadPayload(const std::string& path,
                                  uint64_t expected_magic, std::string* raw,
                                  size_t* payload_begin,
                                  size_t* payload_size) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return false;  // plain miss, not a rejection
  // One sized read: payloads are O(N x M) bytes and sit on the warm-start
  // path, so no per-character extraction.
  const std::streamoff file_size = f.tellg();
  if (file_size < 0) return false;
  raw->assign(static_cast<size_t>(file_size), '\0');
  f.seekg(0);
  f.read(raw->data(), file_size);
  if (!f) return false;
  util::ByteReader header(*raw);
  const uint64_t magic = header.U64();
  const uint32_t version = header.U32();
  const uint32_t revision = header.U32();
  const uint64_t size = header.U64();
  bool valid = header.ok() && magic == expected_magic &&
               version == kFormatVersion &&
               revision == kAlgorithmRevision && header.remaining() >= 8 &&
               size == header.remaining() - 8;
  if (valid) {
    *payload_begin = raw->size() - header.remaining();
    *payload_size = static_cast<size_t>(size);
    const uint64_t checksum =
        util::Fnv64(raw->data() + *payload_begin, *payload_size);
    util::ByteReader trailer(raw->data() + *payload_begin + *payload_size, 8);
    valid = checksum == trailer.U64();
  }
  if (!valid) rejected_->Add(1);
  return valid;
}

bool PersistentCache::WritePayload(const std::string& path, uint64_t magic,
                                   const std::string& payload) {
  util::ByteWriter header;
  header.U64(magic);
  header.U32(kFormatVersion);
  header.U32(kAlgorithmRevision);
  header.U64(payload.size());
  util::ByteWriter trailer;
  trailer.U64(util::Fnv64(payload.data(), payload.size()));

  // Write-then-rename: concurrent readers (and other engine processes)
  // only ever see complete files. The temp name (pid, thread-id hash,
  // sequence) is unique per write attempt.
  std::error_code probe;
  const bool existed_at_start =
      std::filesystem::exists(path, probe) && !probe;
  const std::string tmp = TmpName(path);
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f.write(header.data().data(),
            static_cast<std::streamsize>(header.size()));
    f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    f.write(trailer.data().data(),
            static_cast<std::streamsize>(trailer.size()));
    if (!f) {
      // Don't leave partial temp files behind (e.g. on a full disk); the
      // directory has no eviction, so orphans would accumulate forever.
      f.close();
      std::error_code cleanup;
      std::filesystem::remove(tmp, cleanup);
      return false;
    }
  }
  // Multi-process race on one key: a destination that APPEARED while we
  // were writing is another process's complete entry for the same key --
  // same bytes (the tier caches deterministic artifacts) -- so keep
  // theirs, drop ours, and count a win rather than a failure. A file that
  // already existed when the store began is different: we are refreshing
  // an entry whose load was just rejected (stale revision, corruption),
  // and the rename below must replace it.
  std::error_code ec;
  if (!existed_at_start && std::filesystem::exists(path, ec) && !ec) {
    concurrent_wins_->Add(1);
    std::filesystem::remove(tmp, ec);
    return true;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    // rename itself lost a race (e.g. directory mutation under us): if the
    // destination now exists, the entry is in place regardless of whose
    // bytes won.
    const bool winner_exists = std::filesystem::exists(path, probe) && !probe;
    std::filesystem::remove(tmp, ec);
    if (winner_exists) {
      concurrent_wins_->Add(1);
      return true;
    }
    return false;
  }
  return true;
}

std::shared_ptr<const BinnedIndex> PersistentCache::LoadIndexFile(
    const std::string& path, uint64_t input_fingerprint, int expect_rows,
    int expect_cols, bool require_sorted_rows,
    const BinnedIndex::BuildKind* expect_kind) {
  std::string raw;
  size_t begin = 0, size = 0;
  if (!ReadPayload(path, kIndexMagic, &raw, &begin, &size)) {
    index_misses_->Add(1);
    return nullptr;
  }
  util::ByteReader in(raw.data() + begin, size);
  const uint64_t echoed = in.U64();
  Result<std::shared_ptr<const BinnedIndex>> index =
      BinnedIndex::Deserialize(&in);
  const bool valid = in.ok() && index.ok() && echoed == input_fingerprint &&
                     (expect_kind == nullptr ||
                      (*index)->kind() == *expect_kind) &&
                     (!require_sorted_rows || (*index)->has_sorted_rows()) &&
                     (*index)->num_rows() == expect_rows &&
                     (*index)->num_cols() == expect_cols;
  if (!valid) {
    rejected_->Add(1);
    index_misses_->Add(1);
    return nullptr;
  }
  index_hits_->Add(1);
  return *std::move(index);
}

std::shared_ptr<const BinnedIndex> PersistentCache::LoadBinnedIndex(
    uint64_t input_fingerprint, BinnedIndex::BuildKind kind, int expect_rows,
    int expect_cols) {
  return LoadIndexFile(IndexPath(input_fingerprint, kind), input_fingerprint,
                       expect_rows, expect_cols,
                       /*require_sorted_rows=*/false, &kind);
}

std::shared_ptr<const BinnedIndex> PersistentCache::LoadStreamedIndex(
    uint64_t input_fingerprint, int expect_rows, int expect_cols) {
  // Either build kind is valid (whatever the stream's distinct-value
  // profile produced); mapped entries always carry their permutation.
  // OpenMapped validates magic, version, key echo, shape, and the
  // full-file checksum; an absent file is a plain miss, anything else
  // invalid is a rejection.
  const std::string path = StreamedIndexPath(input_fingerprint);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    index_misses_->Add(1);
    return nullptr;
  }
  Result<std::shared_ptr<const BinnedIndex>> index =
      BinnedIndex::OpenMapped(path, input_fingerprint, expect_rows,
                              expect_cols);
  if (!index.ok()) {
    rejected_->Add(1);
    index_misses_->Add(1);
    return nullptr;
  }
  index_hits_->Add(1);
  return *std::move(index);
}

void PersistentCache::StoreBinnedIndex(uint64_t input_fingerprint,
                                       const BinnedIndex& index) {
  util::ByteWriter payload;
  payload.U64(input_fingerprint);
  index.Serialize(&payload);
  // Only completed writes count: an unwritable directory or full disk
  // must read as "nothing stored", not as a populated cache.
  const std::string path = IndexPath(input_fingerprint, index.kind());
  if (!WritePayload(path, kIndexMagic, payload.data())) return;
  index_writes_->Add(1);
  EvictOverCap(path);
}

void PersistentCache::StoreStreamedIndex(uint64_t input_fingerprint,
                                         const BinnedIndex& index) {
  assert(index.has_sorted_rows());
  // Same write-then-rename discipline as WritePayload, but through the
  // mapped writer: readers only ever mmap complete files.
  const std::string path = StreamedIndexPath(input_fingerprint);
  std::error_code probe;
  const bool existed_at_start =
      std::filesystem::exists(path, probe) && !probe;
  const std::string tmp = TmpName(path);
  if (!index.WriteMapped(tmp, input_fingerprint).ok()) {
    std::error_code cleanup;
    std::filesystem::remove(tmp, cleanup);
    return;
  }
  // Same concurrent-winner tolerance as WritePayload: an entry that
  // appeared during our write is another process's win; one that existed
  // at the start is stale and gets replaced by the rename.
  std::error_code ec;
  if (!existed_at_start && std::filesystem::exists(path, ec) && !ec) {
    concurrent_wins_->Add(1);
    std::filesystem::remove(tmp, ec);
    return;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const bool winner_exists = std::filesystem::exists(path, probe) && !probe;
    std::filesystem::remove(tmp, ec);
    if (winner_exists) concurrent_wins_->Add(1);
    return;
  }
  index_writes_->Add(1);
  EvictOverCap(path);
}

std::shared_ptr<const StreamedDataset> PersistentCache::LoadRelabelStream(
    uint64_t key, int expect_rows, int expect_cols) {
  std::string raw;
  size_t begin = 0, size = 0;
  if (!ReadPayload(RelabelStreamPath(key), kRelabelMagic, &raw, &begin,
                   &size)) {
    relabel_misses_->Add(1);
    return nullptr;
  }
  util::ByteReader in(raw.data() + begin, size);
  const uint64_t echoed_key = in.U64();
  const uint64_t input_fp = in.U64();
  const uint64_t full_fp = in.U64();
  const int32_t cols = in.I32();
  std::vector<double> y = in.VecF64();
  const bool valid = in.ok() && in.AtEnd() && echoed_key == key &&
                     cols == expect_cols &&
                     y.size() == static_cast<size_t>(expect_rows);
  if (!valid) {
    rejected_->Add(1);
    relabel_misses_->Add(1);
    return nullptr;
  }
  // The quantized index lives in the shared streamed-index namespace
  // (mapped, per input fingerprint); without it the labels alone cannot
  // serve a request, so a missing/invalid index file is a relabel miss.
  std::shared_ptr<const BinnedIndex> index =
      LoadStreamedIndex(input_fp, expect_rows, expect_cols);
  if (index == nullptr) {
    relabel_misses_->Add(1);
    return nullptr;
  }
  auto data = std::make_shared<StreamedDataset>();
  data->index = std::move(index);
  data->y = std::move(y);
  data->input_fingerprint = input_fp;
  data->fingerprint = full_fp;
  // Totals are not serialized: a load counts them once for the entry.
  data->totals = StreamedBinTotals::Build(*data->index, data->y.data());
  relabel_hits_->Add(1);
  return data;
}

void PersistentCache::StoreRelabelStream(uint64_t key,
                                         const StreamedDataset& data) {
  assert(data.index != nullptr && data.index->has_sorted_rows());
  // Index first: if its write fails, the labels entry must not exist
  // either (a labels file pointing at a missing index would always miss
  // anyway, but would waste a read on every lookup).
  StoreStreamedIndex(data.input_fingerprint, *data.index);
  util::ByteWriter payload;
  payload.U64(key);
  payload.U64(data.input_fingerprint);
  payload.U64(data.fingerprint);
  payload.I32(static_cast<int32_t>(data.index->num_cols()));
  payload.VecF64(data.y);
  const std::string path = RelabelStreamPath(key);
  if (!WritePayload(path, kRelabelMagic, payload.data())) return;
  relabel_writes_->Add(1);
  EvictOverCap(path);
}

std::shared_ptr<const ml::Metamodel> PersistentCache::LoadMetamodel(
    const MetamodelKey& key) {
  std::string raw;
  size_t begin = 0, size = 0;
  if (!ReadPayload(ModelPath(key), kModelMagic, &raw, &begin, &size)) {
    model_misses_->Add(1);
    return nullptr;
  }
  util::ByteReader in(raw.data() + begin, size);
  if (!ReadKeyEchoMatches(key, &in)) {
    rejected_->Add(1);
    model_misses_->Add(1);
    return nullptr;
  }
  Result<std::shared_ptr<const ml::Metamodel>> model =
      ml::DeserializeMetamodel(&in, key.kind);
  if (!model.ok()) {
    rejected_->Add(1);
    model_misses_->Add(1);
    return nullptr;
  }
  model_hits_->Add(1);
  return *std::move(model);
}

void PersistentCache::StoreMetamodel(const MetamodelKey& key,
                                     const ml::Metamodel& model) {
  util::ByteWriter payload;
  WriteKeyEcho(key, &payload);
  ml::SerializeMetamodel(model, key.kind, &payload);
  const std::string path = ModelPath(key);
  if (!WritePayload(path, kModelMagic, payload.data())) return;
  model_writes_->Add(1);
  EvictOverCap(path);
}

void PersistentCache::EvictOverCap(const std::string& just_written) {
  if (max_bytes_ == 0) return;
  namespace fs = std::filesystem;
  // Snapshot our cache entries (".bin" suffix; temp files are mid-write
  // and carry ".tmp-" suffixes, so they never match) with size and mtime.
  struct Entry {
    fs::file_time_type mtime;
    std::string path;
    uint64_t size = 0;
  };
  std::vector<Entry> entries;
  uint64_t total = 0;
  try {
    for (const auto& item : fs::directory_iterator(dir_)) {
      // Fresh error codes per call: a concurrent engine process may
      // remove files mid-scan, and one vanished entry must not abort the
      // whole eviction pass.
      std::error_code ec;
      if (!item.is_regular_file(ec) || ec) continue;
      const std::string path = item.path().string();
      if (path.size() < 4 || path.compare(path.size() - 4, 4, ".bin") != 0) {
        continue;
      }
      Entry e;
      e.path = path;
      e.size = static_cast<uint64_t>(item.file_size(ec));
      if (ec) continue;
      e.mtime = fs::last_write_time(item.path(), ec);
      if (ec) continue;
      total += e.size;
      entries.push_back(std::move(e));
    }
  } catch (const fs::filesystem_error&) {
    return;  // unreadable directory: leave the cache alone
  }
  if (total <= max_bytes_) return;
  // Oldest first; ties (filesystem mtime granularity) break by path so
  // concurrent writers converge on the same eviction order.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  int evicted = 0;
  uint64_t bytes_freed = 0;
  // Cache files are uniquely named within the directory, so filename
  // equality is the robust comparison (dir_ spellings -- trailing slashes,
  // relative prefixes -- must not defeat the sparing below).
  const fs::path spared = fs::path(just_written).filename();
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    // The entry just written survives even when it alone exceeds the cap:
    // evicting it would make the store a silent no-op.
    if (fs::path(e.path).filename() == spared) continue;
    std::error_code remove_ec;
    if (std::filesystem::remove(e.path, remove_ec) && !remove_ec) {
      total -= e.size;
      bytes_freed += e.size;
      ++evicted;
    }
  }
  if (evicted > 0) {
    evictions_->Add(static_cast<uint64_t>(evicted));
    bytes_evicted_->Add(bytes_freed);
  }
}

PersistentCacheStats PersistentCache::stats() const {
  PersistentCacheStats s;
  s.index_hits = static_cast<int>(index_hits_->Value());
  s.index_misses = static_cast<int>(index_misses_->Value());
  s.index_writes = static_cast<int>(index_writes_->Value());
  s.model_hits = static_cast<int>(model_hits_->Value());
  s.model_misses = static_cast<int>(model_misses_->Value());
  s.model_writes = static_cast<int>(model_writes_->Value());
  s.relabel_hits = static_cast<int>(relabel_hits_->Value());
  s.relabel_misses = static_cast<int>(relabel_misses_->Value());
  s.relabel_writes = static_cast<int>(relabel_writes_->Value());
  s.rejected = static_cast<int>(rejected_->Value());
  s.evictions = static_cast<int>(evictions_->Value());
  s.bytes_evicted = bytes_evicted_->Value();
  s.concurrent_wins = static_cast<int>(concurrent_wins_->Value());
  return s;
}

}  // namespace reds::engine
