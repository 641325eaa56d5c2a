// LruMap semantics: max-entries eviction, recency updates, and the
// eviction count (engine::CacheTier builds on it; see cache_tier_test).
#include <gtest/gtest.h>

#include <string>

#include "util/lru_map.h"

namespace reds {
namespace {

TEST(LruMapTest, PutGetAndEviction) {
  LruMap<int, std::string> map(2);
  map.Put(1, "one");
  map.Put(2, "two");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 0u);

  map.Put(3, "three");  // evicts 1, the least recently used
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 1u);
  EXPECT_EQ(map.Get(1), nullptr);
  ASSERT_NE(map.Get(2), nullptr);
  EXPECT_EQ(*map.Get(3), "three");
}

TEST(LruMapTest, GetRefreshesRecency) {
  LruMap<int, int> map(2);
  map.Put(1, 10);
  map.Put(2, 20);
  ASSERT_NE(map.Get(1), nullptr);  // 1 becomes most recent
  map.Put(3, 30);                  // evicts 2, not 1
  EXPECT_NE(map.Get(1), nullptr);
  EXPECT_EQ(map.Get(2), nullptr);
  EXPECT_NE(map.Get(3), nullptr);
}

TEST(LruMapTest, PeekDoesNotRefreshRecency) {
  LruMap<int, int> map(2);
  map.Put(1, 10);
  map.Put(2, 20);
  ASSERT_NE(map.Peek(1), nullptr);  // no touch
  map.Put(3, 30);                   // still evicts 1
  EXPECT_EQ(map.Get(1), nullptr);
}

TEST(LruMapTest, PutOverwritesInPlace) {
  LruMap<int, int> map(2);
  map.Put(1, 10);
  map.Put(2, 20);
  map.Put(1, 11);  // overwrite, no growth, no eviction
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 0u);
  EXPECT_EQ(*map.Get(1), 11);
}

TEST(LruMapTest, ZeroCapacityIsUnbounded) {
  LruMap<int, int> map(0);
  for (int i = 0; i < 100; ++i) map.Put(i, i);
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.evictions(), 0u);
}

TEST(LruMapTest, SetCapacityEvictsDown) {
  LruMap<int, int> map(0);
  for (int i = 0; i < 10; ++i) map.Put(i, i);
  map.SetCapacity(3);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.evictions(), 7u);
  // The three most recent survive.
  EXPECT_NE(map.Peek(9), nullptr);
  EXPECT_NE(map.Peek(8), nullptr);
  EXPECT_NE(map.Peek(7), nullptr);
}

TEST(LruMapTest, EraseAndClearAreNotEvictions) {
  LruMap<int, int> map(5);
  map.Put(1, 10);
  map.Put(2, 20);
  EXPECT_TRUE(map.Erase(1));
  EXPECT_FALSE(map.Erase(1));
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.evictions(), 0u);
}

}  // namespace
}  // namespace reds
