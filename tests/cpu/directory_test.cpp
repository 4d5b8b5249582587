// The coherence directory's flat table (cpu/directory.hpp): differential
// against std::unordered_map, backward-shift erase across the table's wrap,
// the bound's MB_CHECK, and a multi-cluster hierarchy that must stay inside
// the bound while coherence traffic churns it.
#include "cpu/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "engine_rig.hpp"

namespace mb::cpu {
namespace {

using Entry = CoherenceDirectory::Entry;
using Contents = std::vector<std::pair<std::uint64_t, std::pair<std::uint32_t, int>>>;

Contents contents(const CoherenceDirectory& d) {
  Contents out;
  for (const auto& [line, e] : d) out.push_back({line, {e.sharers, e.owner}});
  std::sort(out.begin(), out.end());
  return out;
}

Contents contents(const std::unordered_map<std::uint64_t, Entry>& m) {
  Contents out;
  for (const auto& [line, e] : m) out.push_back({line, {e.sharers, e.owner}});
  std::sort(out.begin(), out.end());
  return out;
}

/// The first `n` line addresses whose probe starts at `slot`.
std::vector<std::uint64_t> linesHomedAt(const CoherenceDirectory& d, std::size_t slot,
                                        std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t line = 0; out.size() < n; line += 64)
    if (d.home(line) == slot) out.push_back(line);
  return out;
}

TEST(CoherenceDirectory, CapacityIsTheSmallestAtThreeQuartersLoad) {
  for (std::size_t bound : {1u, 2u, 3u, 4u, 24u, 1025u, 32769u}) {
    const CoherenceDirectory d(bound);
    EXPECT_LE(bound * 4, d.capacity() * 3) << bound;
    EXPECT_GT(bound * 4, (d.capacity() - 1) * 3) << bound;
  }
  // One 4-core cluster's 2 MiB L2: 32768 lines plus the one in flight.
  EXPECT_EQ(CoherenceDirectory(32769).capacity(), 43692u);
}

TEST(CoherenceDirectory, MatchesUnorderedMapUnderSeededChurn) {
  // 48 candidate lines over 32 slots: chains run long and many wrap past
  // the last slot, and inserts outnumber erases, so the table keeps
  // reaching its bound.
  constexpr std::size_t kBound = 24;
  CoherenceDirectory table(kBound);
  ASSERT_EQ(table.capacity(), 32u);
  std::unordered_map<std::uint64_t, Entry> ref;
  Rng rng(7);
  int timesFull = 0;
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t line = rng.nextBounded(48) * 64;
    const std::uint64_t kind = rng.nextBounded(8);
    const auto it = ref.find(line);
    if (kind < 3) {
      Entry* e = table.find(line);
      ASSERT_EQ(e != nullptr, it != ref.end()) << "op " << op;
      if (e != nullptr) {
        EXPECT_EQ(e->sharers, it->second.sharers);
        EXPECT_EQ(e->owner, it->second.owner);
      }
      EXPECT_EQ(table.contains(line), it != ref.end());
    } else if (kind < 6) {
      if (it == ref.end() && ref.size() == kBound) continue;
      const auto sharers = static_cast<std::uint32_t>(rng.nextU64());
      const int owner = static_cast<int>(rng.nextBounded(16)) - 1;
      Entry& e = table[line];
      e.sharers = sharers;
      e.owner = owner;
      ref[line] = e;
    } else {
      table.erase(line);
      ref.erase(line);
    }
    ASSERT_EQ(table.size(), ref.size()) << "op " << op;
    if (ref.size() == kBound) ++timesFull;
    if (op % 16 == 0) {
      ASSERT_EQ(contents(table), contents(ref)) << "op " << op;
    }
  }
  EXPECT_EQ(contents(table), contents(ref));
  EXPECT_GT(timesFull, 1000);
}

TEST(CoherenceDirectory, EraseShiftsAChainBackAcrossTheWrap) {
  CoherenceDirectory d(24);
  const std::size_t last = d.capacity() - 1;
  // a, b and c start at the last slot and d at slot 0, so they sit at
  // last, 0, 2 and 1: b and c wrapped, and d was pushed along by b.
  const auto atLast = linesHomedAt(d, last, 3);
  const std::uint64_t a = atLast[0], b = atLast[1], c = atLast[2];
  const std::uint64_t d0 = linesHomedAt(d, 0, 1)[0];
  d[a].owner = 1;
  d[b].owner = 2;
  d[d0].owner = 3;
  d[c].owner = 4;
  // Erasing a pulls b back across the wrap, then d into b's old slot,
  // then c into d's.
  d.erase(a);
  EXPECT_EQ(d.find(a), nullptr);
  ASSERT_NE(d.find(b), nullptr);
  ASSERT_NE(d.find(d0), nullptr);
  ASSERT_NE(d.find(c), nullptr);
  EXPECT_EQ(d.find(b)->owner, 2);
  EXPECT_EQ(d.find(d0)->owner, 3);
  EXPECT_EQ(d.find(c)->owner, 4);
  EXPECT_EQ(d.size(), 3u);
  // And erasing what now sits in the last slot shifts the rest back again.
  d.erase(b);
  EXPECT_EQ(d.find(d0)->owner, 3);
  EXPECT_EQ(d.find(c)->owner, 4);
  d.erase(d0);
  EXPECT_EQ(d.find(c)->owner, 4);
  d.erase(c);
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(contents(d), Contents{});
}

TEST(CoherenceDirectory, ClearEmptiesEverySlot) {
  CoherenceDirectory d(8);
  for (std::uint64_t i = 0; i < 8; ++i) d[i * 64].sharers = 1;
  d.clear();
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(contents(d), Contents{});
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_FALSE(d.contains(i * 64));
  EXPECT_EQ(d[64].owner, -1);  // a fresh insert, not a stale entry
}

TEST(CoherenceDirectoryDeathTest, InsertPastTheBoundFailsItsCheck) {
  CoherenceDirectory d(3);
  for (std::uint64_t i = 0; i < 3; ++i) d[i * 64].sharers = 1;
  EXPECT_EQ(d[0].sharers, 1u);  // present: no insert, so no check
  EXPECT_DEATH(d[3 * 64], "coherence directory past its bound of 3 lines");
}

// 4 clusters of 4 cores, each with a 16 KiB L2 (256 lines): the directory's
// bound is 1025 entries.
class DirectoryBoundTest : public EngineRigTest {
 protected:
  static constexpr int kAccesses = 20000;

  void SetUp() override {
    geom_.channels = 2;
    geom_.ranksPerChannel = 2;
    geom_.banksPerRank = 8;
    geom_.capacityBytes = 8 * kGiB;
    hcfg_.numCores = 16;
    hcfg_.coresPerCluster = 4;
    hcfg_.l1Bytes = 4 * kKiB;
    hcfg_.l2Bytes = 16 * kKiB;
    buildRig();
  }

  /// A seeded stream over the 16 cores. The first half reads and writes a
  /// 512-line shared set: cache-to-cache transfers, upgrades and
  /// invalidations. In the second half each core walks a region of its own
  /// line by line, so the prefetcher fills ahead, all four L2s fill with
  /// distinct lines, and each new fill meets a directory at its bound
  /// minus the one line in flight.
  template <typename Access>
  void drive(Access&& access) {
    Rng rng(11);
    std::vector<std::uint64_t> cursor(16, 0);
    for (int i = 0; i < kAccesses; ++i) {
      const auto core = static_cast<CoreId>(rng.nextBounded(16));
      std::uint64_t line = 0;
      bool write = false;
      if (i < kAccesses / 2) {
        line = rng.nextBounded(512);
        write = rng.nextBounded(4) == 0;
      } else {
        line = (static_cast<std::uint64_t>(core) + 1) * 4096 +
               cursor[static_cast<std::size_t>(core)]++;
        write = rng.nextBounded(8) == 0;
      }
      access(core, line * 64, write);
    }
  }

  void expectCoherenceTraffic() {
    const HierarchyStats& s = hier_->stats();
    EXPECT_EQ(s.accesses, kAccesses);
    EXPECT_GT(s.c2cTransfers, 0);
    EXPECT_GT(s.upgrades, 0);
    EXPECT_GT(s.invalidations, 0);
    EXPECT_GT(s.prefetchIssued, 0);
    EXPECT_GT(s.dramWrites, 0);
  }
};

TEST_F(DirectoryBoundTest, FunctionalStreamStaysInsideTheBound) {
  hier_->setFunctionalMode(true);
  drive([&](CoreId core, std::uint64_t addr, bool write) {
    hier_->warmAccess(core, addr, write);
  });
  expectCoherenceTraffic();
}

TEST_F(DirectoryBoundTest, TimedStreamStaysInsideTheBound) {
  int issued = 0;
  drive([&](CoreId core, std::uint64_t addr, bool write) {
    (void)hier_->access(core, addr, write, now(), nullptr);
    if (++issued % 32 == 0) drain();
  });
  drain();
  expectCoherenceTraffic();
}

}  // namespace
}  // namespace mb::cpu
