#include "cpu/cache.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ckpt/serialize.hpp"

namespace mb::cpu {
namespace {

TEST(Cache, GeometryDerivation) {
  Cache c(16 * kKiB, 4);
  EXPECT_EQ(c.numSets(), 64);  // 16 KB / 64 B / 4 ways
  EXPECT_EQ(c.associativity(), 4);
  EXPECT_EQ(c.validLineCount(), 0);
}

TEST(Cache, MissThenHit) {
  Cache c(16 * kKiB, 4);
  EXPECT_EQ(c.lookup(0x1000), nullptr);
  c.insert(0x1000, LineState::Shared);
  auto* line = c.lookup(0x1000);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::Shared);
}

TEST(Cache, LineGranularity) {
  Cache c(16 * kKiB, 4);
  c.insert(0x1000, LineState::Shared);
  // Any address within the same 64 B line hits.
  EXPECT_NE(c.lookup(0x103F), nullptr);
  EXPECT_EQ(c.lookup(0x1040), nullptr);
  EXPECT_EQ(c.lineBase(0x103F), 0x1000u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(4 * 64, 4);  // one set, 4 ways
  for (std::uint64_t i = 0; i < 4; ++i) c.insert(i * 64, LineState::Shared);
  (void)c.lookup(0);  // refresh line 0
  const auto ev = c.insert(4 * 64, LineState::Shared);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 64u);  // line 1 was the LRU
  EXPECT_NE(c.lookup(0), nullptr);
}

TEST(Cache, EvictionReportsDirtiness) {
  Cache c(64, 1);  // a single line
  c.insert(0, LineState::Modified);
  const auto ev = c.insert(4096, LineState::Shared);
  EXPECT_TRUE(ev.valid);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.addr, 0u);
  const auto ev2 = c.insert(8192, LineState::Shared);
  EXPECT_TRUE(ev2.valid);
  EXPECT_FALSE(ev2.dirty);
}

TEST(Cache, EvictionRebuildsFullAddress) {
  Cache c(16 * kKiB, 4);
  const std::uint64_t addr = 0xABCDEF00 & ~63ull;
  c.insert(addr, LineState::Modified);
  // Fill the set with conflicting lines (same set index, different tags).
  const std::uint64_t setStride = 64ull * static_cast<std::uint64_t>(c.numSets());
  Cache::Eviction ev;
  for (int i = 1; i <= 4; ++i) {
    ev = c.insert(addr + static_cast<std::uint64_t>(i) * setStride, LineState::Shared);
    if (ev.valid && ev.addr == addr) break;
  }
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, addr);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(16 * kKiB, 4);
  c.insert(0x2000, LineState::Modified);
  bool dirty = false;
  EXPECT_TRUE(c.invalidate(0x2000, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_EQ(c.lookup(0x2000), nullptr);
  EXPECT_FALSE(c.invalidate(0x2000));
}

TEST(Cache, DowngradeModifiedReportsDirty) {
  Cache c(16 * kKiB, 4);
  c.insert(0x3000, LineState::Modified);
  EXPECT_TRUE(c.downgrade(0x3000));
  EXPECT_EQ(c.lookup(0x3000)->state, LineState::Shared);
  EXPECT_FALSE(c.downgrade(0x3000));  // already shared: not dirty
}

TEST(Cache, PeekDoesNotTouchLru) {
  Cache c(4 * 64, 4);
  for (std::uint64_t i = 0; i < 4; ++i) c.insert(i * 64, LineState::Shared);
  (void)c.peek(0);  // must NOT refresh line 0
  const auto ev = c.insert(4 * 64, LineState::Shared);
  EXPECT_EQ(ev.addr, 0u);  // line 0 evicted despite the peek
}

TEST(Cache, ValidLineCountTracksContents) {
  Cache c(16 * kKiB, 4);
  c.insert(0, LineState::Shared);
  c.insert(64, LineState::Exclusive);
  EXPECT_EQ(c.validLineCount(), 2);
  c.invalidate(0);
  EXPECT_EQ(c.validLineCount(), 1);
}

TEST(Cache, DistinctSetsDoNotConflict) {
  Cache c(2 * 64 * 2, 2);  // 2 sets, 2 ways
  c.insert(0, LineState::Shared);     // set 0
  c.insert(64, LineState::Shared);    // set 1
  c.insert(128, LineState::Shared);   // set 0
  c.insert(192, LineState::Shared);   // set 1
  EXPECT_EQ(c.validLineCount(), 4);   // no evictions
}

/// A 1 KiB 4-way cache (4 sets, 16 lines) with every state, prefetched
/// flags, refreshed LRU stamps, an eviction and an invalidated way.
Cache populatedCache() {
  Cache c(1 * kKiB, 4);
  const LineState states[] = {LineState::Shared, LineState::Exclusive,
                              LineState::Modified};
  for (std::uint64_t i = 0; i < 18; ++i)
    c.insert(i * 64, states[i % 3], /*prefetched=*/i % 4 == 1);
  (void)c.lookup(5 * 64);
  (void)c.lookup(17 * 64);
  c.invalidate(6 * 64);
  return c;
}

std::string saved(const Cache& c) {
  ckpt::Writer w;
  c.save(w);
  return w.take();
}

/// Whether `bytes` load into a fresh 1 KiB 4-way cache, with nothing left.
bool loads(const std::string& bytes) {
  Cache c(1 * kKiB, 4);
  ckpt::Reader r(bytes);
  c.load(r);
  return r.ok() && r.atEnd();
}

// A cache's section is a u64 line count, 18 bytes a line (u64 tag, state,
// u64 LRU stamp, prefetched flag) and the u64 LRU clock.
TEST(Cache, SaveLoadRoundTripsEveryLineByteForByte) {
  Cache a = populatedCache();
  const std::string bytes = saved(a);
  ASSERT_EQ(bytes.size(), 8u + 16 * 18 + 8);
  Cache b(1 * kKiB, 4);
  ckpt::Reader r(bytes);
  b.load(r);
  ASSERT_TRUE(r.ok() && r.atEnd());
  EXPECT_EQ(saved(b), bytes);
  for (std::uint64_t i = 0; i < 18; ++i) {
    const Cache::Line* la = a.peek(i * 64);
    const Cache::Line* lb = b.peek(i * 64);
    ASSERT_EQ(la == nullptr, lb == nullptr) << i;
    if (la == nullptr) continue;
    EXPECT_EQ(la->state, lb->state) << i;
    EXPECT_EQ(la->prefetched, lb->prefetched) << i;
    EXPECT_EQ(la->lruStamp, lb->lruStamp) << i;
  }
  // The LRU clock came back too: the same later accesses pick the same
  // victims and stamp the same values.
  for (std::uint64_t i = 18; i < 30; ++i) {
    const auto ea = a.insert(i * 64, LineState::Shared);
    const auto eb = b.insert(i * 64, LineState::Shared);
    EXPECT_EQ(ea.valid, eb.valid) << i;
    EXPECT_EQ(ea.addr, eb.addr) << i;
    EXPECT_EQ(ea.dirty, eb.dirty) << i;
  }
  EXPECT_EQ(saved(a), saved(b));
}

TEST(Cache, LoadRejectsAnUnknownStateInTheLastLine) {
  std::string bytes = saved(populatedCache());
  const std::size_t lastState = 8 + 15 * 18 + 8;
  ASSERT_TRUE(loads(bytes));
  bytes[lastState] = static_cast<char>(static_cast<std::uint8_t>(LineState::Modified) + 1);
  EXPECT_FALSE(loads(bytes));
}

TEST(Cache, LoadRejectsALineCountThatIsNotTheGeometry) {
  const std::string bytes = saved(populatedCache());
  for (const std::uint64_t n : {15u, 17u, 0u}) {
    ckpt::Writer count;
    count.u64(n);
    EXPECT_FALSE(loads(count.str() + bytes.substr(8))) << n;
  }
  // Another geometry's lines: 32 of them.
  EXPECT_FALSE(loads(saved(Cache(2 * kKiB, 4))));
}

TEST(Cache, LoadRejectsATruncatedLineArray) {
  const std::string bytes = saved(populatedCache());
  for (const std::size_t keep : {std::size_t{8}, std::size_t{8 + 16 * 18 - 1},
                                 std::size_t{8 + 16 * 18 + 4}})
    EXPECT_FALSE(loads(bytes.substr(0, keep))) << keep;
}

TEST(CacheDeath, NonPow2SizeAborts) {
  EXPECT_DEATH(Cache(100, 4), "check failed");
}

}  // namespace
}  // namespace mb::cpu
