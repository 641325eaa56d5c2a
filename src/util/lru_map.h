// Generic least-recently-used map: an ordered map over a recency list with
// max-entry eviction. Single-threaded by design -- callers that share one
// (engine::CacheTier, the net server's caches) hold their own mutex.
#ifndef REDS_UTIL_LRU_MAP_H_
#define REDS_UTIL_LRU_MAP_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <utility>

namespace reds {

/// Map with LRU eviction. Get() and Put() count as uses; when a Put pushes
/// the size above the capacity, least-recently-used entries are dropped.
/// Capacity 0 means unbounded.
template <typename Key, typename Value>
class LruMap {
 public:
  explicit LruMap(size_t capacity = 0) : capacity_(capacity) {}

  /// Pointer to the value (touching the entry), or nullptr when absent.
  /// Valid until the next modifying call.
  Value* Get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// As Get() without refreshing the entry's recency.
  Value* Peek(const Key& key) {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Inserts or overwrites, marks the entry most recent, and evicts the
  /// least recent entries while over capacity.
  void Put(const Key& key, Value value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      items_.splice(items_.begin(), items_, it->second);
      return;
    }
    items_.emplace_front(key, std::move(value));
    index_.emplace(key, items_.begin());
    EvictOverCapacity();
  }

  /// Removes the entry; returns whether it existed. Not counted as an
  /// eviction.
  bool Erase(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    items_.erase(it->second);
    index_.erase(it);
    return true;
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }

  /// Changes the bound, evicting down if the map is over the new capacity.
  void SetCapacity(size_t capacity) {
    capacity_ = capacity;
    EvictOverCapacity();
  }

  /// Drops everything; not counted as evictions.
  void Clear() {
    items_.clear();
    index_.clear();
  }

 private:
  void EvictOverCapacity() {
    while (capacity_ > 0 && index_.size() > capacity_) {
      index_.erase(items_.back().first);
      items_.pop_back();
      ++evictions_;
    }
  }

  using Item = std::pair<Key, Value>;
  std::list<Item> items_;  // front = most recently used
  std::map<Key, typename std::list<Item>::iterator> index_;
  size_t capacity_;
  uint64_t evictions_ = 0;
};

}  // namespace reds

#endif  // REDS_UTIL_LRU_MAP_H_
