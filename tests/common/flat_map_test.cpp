// FlatMap is the deterministic replacement for the hash maps that used to
// back scheduler/controller/policy bookkeeping: iteration is
// key-sorted by construction, so anything it feeds — reports, stats,
// serialization — is byte-stable. These tests pin the std::map-subset API
// the call sites and ckpt::saveMapSorted rely on.
#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace mb {
namespace {

TEST(FlatMap, StartsEmpty) {
  FlatMap<int, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(3), m.end());
  EXPECT_EQ(m.count(3), 0u);
}

TEST(FlatMap, IterationIsKeySortedRegardlessOfInsertionOrder) {
  FlatMap<int, std::string> m;
  m[30] = "c";
  m[10] = "a";
  m[20] = "b";
  std::vector<int> keys;
  std::string values;
  for (const auto& [k, v] : m) {
    keys.push_back(k);
    values += v;
  }
  EXPECT_EQ(keys, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(values, "abc");
}

TEST(FlatMap, OperatorBracketInsertsDefaultAndFinds) {
  FlatMap<long long, int> m;
  EXPECT_EQ(m[7], 0);  // default-constructed on first touch
  m[7] = 42;
  EXPECT_EQ(m[7], 42);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.count(7), 1u);
}

TEST(FlatMap, EmplaceReportsInsertionAndKeepsExisting) {
  FlatMap<int, int> m;
  auto [it1, inserted1] = m.emplace(5, 50);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(it1->second, 50);
  auto [it2, inserted2] = m.emplace(5, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 50);  // first value wins, like std::map
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, AtReturnsMutableReference) {
  FlatMap<int, int> m;
  m.emplace(1, 10);
  m.at(1) += 5;
  EXPECT_EQ(m.at(1), 15);
}

TEST(FlatMap, AtOnMissingKeyTrapsViaCheck) {
  FlatMap<int, int> m;
  m.emplace(1, 10);
  ScopedCheckTrap trap;
  EXPECT_THROW(m.at(2), CheckFailure);
}

TEST(FlatMap, EraseByKeyAndByIterator) {
  FlatMap<int, int> m;
  for (int k : {4, 1, 3, 2}) m.emplace(k, k * 10);
  EXPECT_EQ(m.erase(3), 1u);
  EXPECT_EQ(m.erase(3), 0u);
  const auto it = m.find(1);
  ASSERT_NE(it, m.end());
  m.erase(it);
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{2, 4}));
}

TEST(FlatMap, ClearAndReserve) {
  FlatMap<int, int> m;
  m.reserve(16);
  for (int k = 0; k < 8; ++k) m.emplace(k, k);
  EXPECT_EQ(m.size(), 8u);
  m.clear();
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, FindIsExactNotLowerBound) {
  FlatMap<int, int> m;
  m.emplace(10, 1);
  m.emplace(20, 2);
  EXPECT_EQ(m.find(15), m.end());
  ASSERT_NE(m.find(20), m.end());
  EXPECT_EQ(m.find(20)->second, 2);
}

TEST(FlatMap, HoldsUpUnderMixedChurn) {
  // Mirror the scheduler's marked-request usage: interleaved insert/erase
  // with a shadow std::vector kept sorted for reference.
  FlatMap<int, int> m;
  std::vector<std::pair<int, int>> ref;
  const auto refFind = [&](int k) {
    for (auto& kv : ref)
      if (kv.first == k) return true;
    return false;
  };
  std::uint64_t x = 12345;
  for (int step = 0; step < 2000; ++step) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const int key = static_cast<int>((x >> 33) % 64);
    if (refFind(key)) {
      m.erase(key);
      ref.erase(std::find_if(ref.begin(), ref.end(),
                             [&](const auto& kv) { return kv.first == key; }));
    } else {
      m.emplace(key, step);
      ref.emplace_back(key, step);
    }
  }
  std::sort(ref.begin(), ref.end());
  ASSERT_EQ(m.size(), ref.size());
  std::size_t i = 0;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k, ref[i].first);
    EXPECT_EQ(v, ref[i].second);
    ++i;
  }
}

}  // namespace
}  // namespace mb
