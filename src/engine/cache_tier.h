// CacheTier: the engine's one cache mechanism. Every engine cache -- the
// metamodel cache, the column / binned / streamed index caches and the
// relabel-stream cache -- is an instance of it: a memory LRU in front of
// an optional persistent load/store pair in front of a single-flight
// build, with hit/miss/eviction/size accounting under a metric prefix.
//
// Get() walks that chain. A resident value is a hit. So is a key whose
// load-or-build is already running: the caller waits on that one attempt
// instead of starting a second, so concurrent callers build a key exactly
// once. Otherwise the caller counts the miss and runs the chain itself --
// `load` (the persistent tier; null on a disk miss), `build` when the load
// missed, `store` with what build produced -- and the value enters the LRU
// whichever way it was obtained. In-flight attempts are pinned outside the
// LRU until they finish, so eviction pressure can never trigger a duplicate
// concurrent build of the same key. An attempt that throws is not cached:
// the exception reaches every waiter of that attempt and the next Get
// retries.
#ifndef REDS_ENGINE_CACHE_TIER_H_
#define REDS_ENGINE_CACHE_TIER_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/lru_map.h"

namespace reds::engine {

/// Point-in-time tier counters.
struct CacheTierStats {
  uint64_t hits = 0;       // resident values plus joined in-flight attempts
  uint64_t misses = 0;     // calls that ran load-or-build
  uint64_t evictions = 0;  // LRU drops
  size_t size = 0;         // resident plus in-flight entries
  size_t capacity = 0;     // LRU bound; 0 = unbounded
};

/// Thread-safe cache of immutable `V`s shared by pointer, keyed by `K`
/// (ordered by operator<).
template <typename K, typename V>
class CacheTier {
 public:
  using Ptr = std::shared_ptr<const V>;
  using Fn = std::function<Ptr()>;
  using StoreFn = std::function<void(const V&)>;

  /// `capacity` bounds the LRU; 0 = unbounded. Counters register in
  /// `metrics` as `<prefix>.hits`, `<prefix>.<miss_name>` and
  /// `<prefix>.evictions`, plus a `<prefix>.size` gauge; when null the tier
  /// owns a private registry, so the accessors below stay exact either way.
  CacheTier(size_t capacity, obs::MetricsRegistry* metrics,
            const std::string& prefix,
            const std::string& miss_name = "misses")
      : entries_(capacity) {
    if (metrics == nullptr) {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
      metrics = owned_metrics_.get();
    }
    hits_ = metrics->counter(prefix + ".hits");
    misses_ = metrics->counter(prefix + "." + miss_name);
    evictions_ = metrics->counter(prefix + ".evictions");
    size_gauge_ = metrics->gauge(prefix + ".size");
  }

  CacheTier(const CacheTier&) = delete;
  CacheTier& operator=(const CacheTier&) = delete;

  /// The value for `key`: resident, joined in flight, or obtained by this
  /// call through `load` then `build` (see the file comment). `load` and
  /// `store` may be empty; `build` must not return null.
  Ptr Get(const K& key, const Fn& load, const Fn& build,
          const StoreFn& store) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (Ptr* found = entries_.Get(key)) {
      hits_->Add(1);
      return *found;
    }
    const auto running = in_flight_.find(key);
    if (running != in_flight_.end()) {
      hits_->Add(1);
      const std::shared_ptr<Attempt> attempt = running->second;
      lock.unlock();
      return attempt->get();  // blocks until the owning attempt finishes
    }
    std::promise<Ptr> promise;
    const auto mine = std::make_shared<Attempt>(promise.get_future().share());
    in_flight_.emplace(key, mine);
    misses_->Add(1);
    UpdateSizeGauge();
    lock.unlock();
    try {
      Ptr value = load ? load() : nullptr;
      if (value == nullptr) {
        value = build();
        if (store) store(*value);
      }
      promise.set_value(value);
      Retire(key, mine, &value);
      return value;
    } catch (...) {
      // Unpin before publishing the failure, so a caller arriving after it
      // starts a fresh attempt instead of joining the failed one.
      Retire(key, mine, nullptr);
      promise.set_exception(std::current_exception());
      throw;
    }
  }

  /// Get without a persistent tier.
  Ptr Get(const K& key, const Fn& build) {
    return Get(key, nullptr, build, nullptr);
  }

  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }

  /// Resident plus in-flight entries.
  size_t size() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return entries_.size() + in_flight_.size();
  }

  /// All counters plus size/capacity in one snapshot.
  CacheTierStats stats() const {
    std::unique_lock<std::mutex> lock(mutex_);
    CacheTierStats s;
    s.hits = hits_->Value();
    s.misses = misses_->Value();
    s.evictions = entries_.evictions();
    s.size = entries_.size() + in_flight_.size();
    s.capacity = entries_.capacity();
    return s;
  }

  /// Drops every entry; counters are kept and drops are not evictions. An
  /// attempt in flight still completes for its waiters but is not cached.
  void Clear() {
    std::unique_lock<std::mutex> lock(mutex_);
    entries_.Clear();
    in_flight_.clear();
    UpdateSizeGauge();
  }

 private:
  // Held by shared_ptr so an attempt's completion acts on exactly its own
  // slot (identity compare), never a successor's inserted after a Clear().
  using Attempt = std::shared_future<Ptr>;

  // Unpins `mine` and, on success, moves `*value` into the LRU.
  void Retire(const K& key, const std::shared_ptr<Attempt>& mine,
              const Ptr* value) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = in_flight_.find(key);
    if (it == in_flight_.end() || it->second != mine) return;
    in_flight_.erase(it);
    if (value != nullptr) {
      const uint64_t before = entries_.evictions();
      entries_.Put(key, *value);
      const uint64_t delta = entries_.evictions() - before;
      if (delta > 0) evictions_->Add(delta);
    }
    UpdateSizeGauge();
  }

  void UpdateSizeGauge() {  // requires mutex_ held
    size_gauge_->Set(static_cast<int64_t>(entries_.size() + in_flight_.size()));
  }

  mutable std::mutex mutex_;
  std::map<K, std::shared_ptr<Attempt>> in_flight_;
  LruMap<K, Ptr> entries_;
  // Fallback registry when none is shared in; declared before the metric
  // pointers it backs.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;  // mirrors LruMap deltas
  obs::Gauge* size_gauge_ = nullptr;
};

}  // namespace reds::engine

#endif  // REDS_ENGINE_CACHE_TIER_H_
