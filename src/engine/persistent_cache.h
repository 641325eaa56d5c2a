// PersistentCache: the engine's on-disk cache tier. BinnedIndexes and
// trained metamodels are serialized to a cache directory keyed by dataset
// fingerprint, so a second engine process (or a restarted one) skips both
// quantization and metamodel training -- the cross-engine persistence the
// ROADMAP names. Files are self-validating: a magic tag and version,
// the full cache key echoed in the header (guarding against 64-bit key
// collisions mapping to the same file name), an FNV-64 checksum over the
// payload, and structural validation in the deserializers. Anything that
// fails any check is rejected and counted, never trusted. Writes go to a
// temp file first and rename into place, so readers only ever observe
// complete files.
#ifndef REDS_ENGINE_PERSISTENT_CACHE_H_
#define REDS_ENGINE_PERSISTENT_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "core/binned_index.h"
#include "ml/model.h"
#include "ml/tuning.h"
#include "obs/metrics.h"

namespace reds::engine {

/// Identity of one trained metamodel: the key of the engine's metamodel
/// tier and of its files here. It names what is fitted, not how: the
/// engine's provider picks the split-search kernel and the indexes, and
/// must fit the same model whichever it picks.
struct MetamodelKey {
  uint64_t fingerprint = 0;  // FingerprintDataset of the training data
  ml::MetamodelKind kind = ml::MetamodelKind::kGbt;
  bool tuned = false;
  ml::TuningBudget budget = ml::TuningBudget::kQuick;
  uint64_t seed = 0;

  friend bool operator<(const MetamodelKey& a, const MetamodelKey& b) {
    return std::tie(a.fingerprint, a.kind, a.tuned, a.budget, a.seed) <
           std::tie(b.fingerprint, b.kind, b.tuned, b.budget, b.seed);
  }
};

/// Point-in-time counters of the disk tier. A view assembled from the
/// `cache.persistent.*` registry counters, which are the single source of
/// truth (see PersistentCache's constructor).
struct PersistentCacheStats {
  int index_hits = 0;     // BinnedIndexes loaded from disk
  int index_misses = 0;   // lookups with no (valid) file
  int index_writes = 0;
  int model_hits = 0;     // metamodels loaded from disk
  int model_misses = 0;
  int model_writes = 0;
  int relabel_hits = 0;   // streamed relabelings (labels + index) loaded
  int relabel_misses = 0;
  int relabel_writes = 0;
  int rejected = 0;       // corrupt/truncated/mismatched files refused
  int evictions = 0;      // entries dropped to respect the byte cap
  uint64_t bytes_evicted = 0;  // summed size of the entries dropped
  /// Stores that found another process's complete entry already in place
  /// (multi-process races on one key). Counted as a successful store, not
  /// a failure: the bytes on disk are the same bytes we computed.
  int concurrent_wins = 0;
};

class PersistentCache {
 public:
  /// Creates `dir` (and parents) if missing. `max_bytes` caps the summed
  /// size of the cache files (0 = unlimited, the historical grow-only
  /// behavior): after every store that pushes the directory past the cap,
  /// the oldest entries by modification time are deleted until the
  /// remainder fits. The entry just written is never evicted, so the cap
  /// is approximate by at most one entry. Counters live in `metrics` under
  /// `cache.persistent.{index_hits,index_misses,index_writes,model_hits,
  /// model_misses,model_writes,rejected,evictions,bytes_evicted}`; when
  /// null the cache owns a private registry so standalone construction
  /// keeps working.
  explicit PersistentCache(std::string dir, uint64_t max_bytes = 0,
                           obs::MetricsRegistry* metrics = nullptr);

  PersistentCache(const PersistentCache&) = delete;
  PersistentCache& operator=(const PersistentCache&) = delete;

  const std::string& dir() const { return dir_; }

  /// Loads the cached quantization of the dataset identified by
  /// `input_fingerprint`, or null on miss/rejection. `expect_rows` and
  /// `expect_cols` guard against fingerprint collisions across shapes;
  /// `kind` separates exact-pack and sketch-binned indexes, which must
  /// never share entries.
  std::shared_ptr<const BinnedIndex> LoadBinnedIndex(
      uint64_t input_fingerprint, BinnedIndex::BuildKind kind,
      int expect_rows, int expect_cols);

  void StoreBinnedIndex(uint64_t input_fingerprint, const BinnedIndex& index);

  /// Streamed-ingestion namespace: indexes produced by
  /// BinnedIndex::BuildStreamed (either build kind, always carrying their
  /// own permutation). Kept apart from the exact-pack entries above so a
  /// streamed request is only ever served bins a streamed build would have
  /// produced -- warm and cold runs stay bit-identical. Stored in the
  /// write-once mapped format ("REDSBMAP"): loads alias the mmap'd file,
  /// so the O(N x M) code/permutation payload pages in on demand instead
  /// of being copied to the heap, and warm starts skip the code rebuild
  /// outright. Entries lacking the permutation are rejected.
  std::shared_ptr<const BinnedIndex> LoadStreamedIndex(
      uint64_t input_fingerprint, int expect_rows, int expect_cols);

  void StoreStreamedIndex(uint64_t input_fingerprint,
                          const BinnedIndex& index);

  /// Relabel-stream namespace: the finished product of a streamed REDS
  /// relabeling -- the O(L) label vector in its own checksummed file plus
  /// the quantized index shared with the streamed-index namespace above
  /// (mapped, per input fingerprint). A hit hands back a complete
  /// StreamedDataset, so a warm engine replays neither the sampler nor the
  /// metamodel nor the quantization; its bin totals are not stored but
  /// counted once on load. `key` is the engine-folded relabel
  /// cache key; returns null when either file is missing or invalid.
  std::shared_ptr<const StreamedDataset> LoadRelabelStream(uint64_t key,
                                                           int expect_rows,
                                                           int expect_cols);

  void StoreRelabelStream(uint64_t key, const StreamedDataset& data);

  /// Loads the trained metamodel for `key`, or null on miss/rejection.
  std::shared_ptr<const ml::Metamodel> LoadMetamodel(const MetamodelKey& key);

  void StoreMetamodel(const MetamodelKey& key, const ml::Metamodel& model);

  PersistentCacheStats stats() const;

 private:
  std::string IndexPath(uint64_t input_fingerprint,
                        BinnedIndex::BuildKind kind) const;
  std::string StreamedIndexPath(uint64_t input_fingerprint) const;
  std::string RelabelStreamPath(uint64_t key) const;
  std::string ModelPath(const MetamodelKey& key) const;
  /// Shared load path of the exact-pack and streamed index namespaces.
  std::shared_ptr<const BinnedIndex> LoadIndexFile(
      const std::string& path, uint64_t input_fingerprint, int expect_rows,
      int expect_cols, bool require_sorted_rows,
      const BinnedIndex::BuildKind* expect_kind);
  /// Deletes oldest-mtime cache entries until the directory fits
  /// max_bytes_ again, sparing `just_written`. No-op when max_bytes_ == 0.
  void EvictOverCap(const std::string& just_written);
  /// Reads and validates a cache file. On success `raw` holds the whole
  /// file and [*payload_begin, *payload_begin + *payload_size) delimits
  /// the checksummed payload in place -- no second copy of the O(N x M)
  /// bytes on the warm-start path.
  bool ReadPayload(const std::string& path, uint64_t expected_magic,
                   std::string* raw, size_t* payload_begin,
                   size_t* payload_size);
  /// True only when the file was fully written and renamed into place.
  bool WritePayload(const std::string& path, uint64_t magic,
                    const std::string& payload);

  std::string dir_;
  uint64_t max_bytes_ = 0;  // 0: unlimited
  // Fallback registry when none is shared in; declared before the metric
  // pointers it backs. Counters are thread-safe on their own, so the disk
  // tier needs no stats mutex.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* index_hits_ = nullptr;
  obs::Counter* index_misses_ = nullptr;
  obs::Counter* index_writes_ = nullptr;
  obs::Counter* model_hits_ = nullptr;
  obs::Counter* model_misses_ = nullptr;
  obs::Counter* model_writes_ = nullptr;
  obs::Counter* relabel_hits_ = nullptr;
  obs::Counter* relabel_misses_ = nullptr;
  obs::Counter* relabel_writes_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* bytes_evicted_ = nullptr;
  obs::Counter* concurrent_wins_ = nullptr;
};

}  // namespace reds::engine

#endif  // REDS_ENGINE_PERSISTENT_CACHE_H_
