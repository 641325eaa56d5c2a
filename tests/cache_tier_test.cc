// engine::CacheTier, the mechanism behind every engine cache: LRU bounds
// and recency, the counting rule (the caller that runs load-or-build
// counts the miss; resident values and joined in-flight attempts are
// hits), single-flight builds, failed builds, and the persistent
// load/store chain.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/cache_tier.h"

namespace reds::engine {
namespace {

using Tier = CacheTier<uint64_t, int>;

Tier::Ptr Value(int v) { return std::make_shared<const int>(v); }

// A build that counts its runs and yields `v`.
Tier::Fn Counting(std::atomic<int>* builds, int v) {
  return [builds, v] {
    builds->fetch_add(1);
    return Value(v);
  };
}

TEST(CacheTierTest, EvictsBeyondCapacityAndRebuilds) {
  Tier tier(/*capacity=*/2, nullptr, "t");
  std::atomic<int> builds{0};
  tier.Get(1, Counting(&builds, 1));
  tier.Get(2, Counting(&builds, 2));
  tier.Get(3, Counting(&builds, 3));  // evicts key 1
  EXPECT_EQ(tier.size(), 2u);
  EXPECT_EQ(tier.misses(), 3u);
  EXPECT_EQ(tier.stats().evictions, 1u);

  // Key 1 was evicted: asking again is a miss that rebuilds (and evicts 2).
  EXPECT_EQ(*tier.Get(1, Counting(&builds, 1)), 1);
  EXPECT_EQ(tier.misses(), 4u);
  EXPECT_EQ(tier.stats().evictions, 2u);
  // Keys 3 and 1 are resident: both hit without building.
  tier.Get(3, Counting(&builds, 3));
  tier.Get(1, Counting(&builds, 1));
  EXPECT_EQ(builds.load(), 4);
  EXPECT_EQ(tier.hits(), 2u);
}

TEST(CacheTierTest, HitsRefreshRecency) {
  Tier tier(/*capacity=*/2, nullptr, "t");
  std::atomic<int> builds{0};
  tier.Get(1, Counting(&builds, 1));
  tier.Get(2, Counting(&builds, 2));
  tier.Get(1, Counting(&builds, 1));  // hit: 1 most recent
  tier.Get(3, Counting(&builds, 3));  // evicts 2, not 1
  tier.Get(1, Counting(&builds, 1));  // still resident
  EXPECT_EQ(tier.misses(), 3u);
  EXPECT_EQ(tier.hits(), 2u);
}

TEST(CacheTierTest, StatsSnapshot) {
  Tier tier(/*capacity=*/4, nullptr, "t");
  std::atomic<int> builds{0};
  tier.Get(1, Counting(&builds, 1));
  tier.Get(1, Counting(&builds, 1));
  const CacheTierStats stats = tier.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(CacheTierTest, CountersRegisterUnderThePrefix) {
  obs::MetricsRegistry metrics;
  Tier tier(/*capacity=*/1, &metrics, "cache.demo", "fits");
  std::atomic<int> builds{0};
  tier.Get(1, Counting(&builds, 1));
  tier.Get(1, Counting(&builds, 1));
  tier.Get(2, Counting(&builds, 2));  // evicts key 1
  EXPECT_EQ(metrics.CounterValue("cache.demo.fits"), 2u);
  EXPECT_EQ(metrics.CounterValue("cache.demo.hits"), 1u);
  EXPECT_EQ(metrics.CounterValue("cache.demo.evictions"), 1u);
  EXPECT_EQ(metrics.GaugeValue("cache.demo.size"), 1);
}

TEST(CacheTierTest, ClearDropsEntriesButKeepsCounters) {
  Tier tier(/*capacity=*/0, nullptr, "t");
  std::atomic<int> builds{0};
  tier.Get(1, Counting(&builds, 1));
  tier.Clear();
  EXPECT_EQ(tier.size(), 0u);
  tier.Get(1, Counting(&builds, 1));  // gone: a miss again
  EXPECT_EQ(tier.misses(), 2u);
  EXPECT_EQ(tier.stats().evictions, 0u);
}

TEST(CacheTierTest, InFlightBuildSurvivesEvictionPressure) {
  // An in-flight build is pinned: even with capacity 1 and other keys
  // churning the LRU, a racing request for the same key must wait on the
  // one running build instead of starting a duplicate.
  Tier tier(/*capacity=*/1, nullptr, "t");
  std::atomic<int> slow_builds{0};
  std::thread slow([&] {
    tier.Get(100, [&] {
      slow_builds.fetch_add(1);
      // Finish only once the waiter below has joined this attempt.
      while (tier.hits() < 1) std::this_thread::yield();
      return Value(100);
    });
  });
  // Churn the (capacity 1) LRU while key 100 is building.
  while (slow_builds.load() == 0) std::this_thread::yield();
  std::atomic<int> churn{0};
  for (uint64_t i = 0; i < 8; ++i) tier.Get(i, Counting(&churn, 0));
  EXPECT_EQ(tier.hits(), 0u);

  std::thread waiter([&] {
    // Must join the in-flight build (a hit), not start a second one.
    EXPECT_EQ(*tier.Get(100, Counting(&slow_builds, -1)), 100);
  });
  slow.join();
  waiter.join();
  EXPECT_EQ(slow_builds.load(), 1);
  EXPECT_EQ(tier.misses(), 9u);
}

TEST(CacheTierTest, UnboundedWhenCapacityIsZero) {
  Tier tier(/*capacity=*/0, nullptr, "t");
  std::atomic<int> builds{0};
  for (uint64_t i = 0; i < 300; ++i) tier.Get(i, Counting(&builds, 0));
  EXPECT_EQ(tier.size(), 300u);
  EXPECT_EQ(tier.stats().evictions, 0u);
}

// Starts the owning caller of `key` with `build`, waits until it is
// building, then has `waiters` more callers ask for the same key. `build`
// decides when the attempt finishes; every caller's outcome lands in
// `results` (null: that caller saw an exception).
void RaceOnOneKey(Tier* tier, uint64_t key, const Tier::Fn& build,
                  int waiters, std::atomic<int>* builds,
                  std::vector<Tier::Ptr>* results) {
  results->assign(static_cast<size_t>(waiters) + 1, nullptr);
  std::atomic<bool> building{false};
  const auto call = [&](size_t slot, const Tier::Fn& fn) {
    try {
      (*results)[slot] = tier->Get(key, fn);
    } catch (const std::runtime_error&) {
      (*results)[slot] = nullptr;
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(call, 0, [&] {
    builds->fetch_add(1);
    building.store(true);
    return build();
  });
  while (!building.load()) std::this_thread::yield();
  for (int i = 1; i <= waiters; ++i) {
    threads.emplace_back(call, static_cast<size_t>(i),
                         Counting(builds, -1));
  }
  for (std::thread& t : threads) t.join();
}

TEST(CacheTierTest, ConcurrentCallersBuildOnce) {
  constexpr int kWaiters = 5;
  Tier tier(/*capacity=*/0, nullptr, "t");
  std::atomic<int> builds{0};
  std::vector<Tier::Ptr> results;
  RaceOnOneKey(
      &tier, 7,
      [&] {
        // Hold the attempt open until every waiter has joined it.
        while (tier.hits() < kWaiters) std::this_thread::yield();
        return Value(42);
      },
      kWaiters, &builds, &results);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(tier.misses(), 1u);
  EXPECT_EQ(tier.hits(), static_cast<uint64_t>(kWaiters));
  ASSERT_NE(results[0], nullptr);
  for (const Tier::Ptr& r : results) EXPECT_EQ(r, results[0]);
  EXPECT_EQ(*results[0], 42);
}

TEST(CacheTierTest, ThrowingBuildIsNotCachedAndReachesEveryWaiter) {
  constexpr int kWaiters = 3;
  Tier tier(/*capacity=*/0, nullptr, "t");
  std::atomic<int> builds{0};
  std::vector<Tier::Ptr> results;
  RaceOnOneKey(
      &tier, 7,
      [&]() -> Tier::Ptr {
        while (tier.hits() < kWaiters) std::this_thread::yield();
        throw std::runtime_error("build failed");
      },
      kWaiters, &builds, &results);
  EXPECT_EQ(builds.load(), 1);
  for (const Tier::Ptr& r : results) EXPECT_EQ(r, nullptr);
  EXPECT_EQ(tier.size(), 0u);

  // The failure was not cached: the next call retries and succeeds.
  EXPECT_EQ(*tier.Get(7, Counting(&builds, 9)), 9);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(tier.misses(), 2u);
  EXPECT_EQ(tier.size(), 1u);
}

TEST(CacheTierTest, DiskLoadHitSkipsBuildAndFillsTheLru) {
  Tier tier(/*capacity=*/4, nullptr, "t");
  int loads = 0;
  int stores = 0;
  std::atomic<int> builds{0};
  const Tier::Fn load_hit = [&] {
    ++loads;
    return Value(7);
  };
  const Tier::StoreFn store = [&](const int&) { ++stores; };
  EXPECT_EQ(*tier.Get(1, load_hit, Counting(&builds, 8), store), 7);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(builds.load(), 0);
  EXPECT_EQ(stores, 0);  // loaded values are already persisted
  EXPECT_EQ(tier.misses(), 1u);
  EXPECT_EQ(tier.size(), 1u);

  // Now resident: a memory hit that touches neither tier below.
  EXPECT_EQ(*tier.Get(1, load_hit, Counting(&builds, 8), store), 7);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(tier.hits(), 1u);

  // A disk miss falls through to build, whose result is stored.
  const Tier::Fn load_miss = [&] {
    ++loads;
    return Tier::Ptr();
  };
  EXPECT_EQ(*tier.Get(2, load_miss, Counting(&builds, 8), store), 8);
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(stores, 1);
}

}  // namespace
}  // namespace reds::engine
