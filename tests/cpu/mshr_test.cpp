// The MSHR file (cpu/mshr.hpp): its table, the LineTable the coherence
// directory also uses but rehashed as it fills, against std::map under
// seeded churn; and its waiter pool's arrival order and node reuse.
#include "cpu/mshr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace mb::cpu {
namespace {

/// What the reference map holds per fill: anyWrite and its waiters' cores.
struct Ref {
  bool anyWrite = false;
  std::vector<CoreId> cores;
};
using Contents = std::vector<std::pair<std::uint64_t, std::pair<bool, std::vector<CoreId>>>>;

std::vector<CoreId> coresOf(const MshrFile& m, const PendingFill& f) {
  std::vector<CoreId> out;
  m.forEachWaiter(f, [&](const Waiter& w) { out.push_back(w.core); });
  return out;
}

Contents contents(const MshrFile& m) {
  Contents out;
  for (const auto& [key, f] : m.fills()) out.push_back({key, {f.anyWrite, coresOf(m, f)}});
  std::sort(out.begin(), out.end());
  return out;
}

Contents contents(const std::map<std::uint64_t, Ref>& ref) {
  Contents out;
  for (const auto& [key, r] : ref) out.push_back({key, {r.anyWrite, r.cores}});
  return out;
}

TEST(MshrFile, MatchesStdMapUnderSeededChurn) {
  // 24 keys whose probe starts at the last slot at every capacity up to
  // 1024, so their chains wrap past it and erases shift entries back
  // across the wrap, and 300 keys spread over 16 clusters. Inserts
  // outnumber erases, so the table rehashes from 64 slots while fills come
  // and go.
  const LineTable<int> last(1024);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t line = 0; keys.size() < 24; line += 64)
    if (last.home(line) == 1023) keys.push_back(line);
  Rng rng(29);
  while (keys.size() < 324)
    keys.push_back((rng.nextBounded(16) << 58) | (rng.nextBounded(1u << 20) * 64));

  MshrFile m;
  std::map<std::uint64_t, Ref> ref;
  std::vector<std::size_t> capacities{m.fills().capacity()};
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = keys[rng.nextBounded(keys.size())];
    const std::uint64_t kind = rng.nextBounded(8);
    const auto it = ref.find(key);
    PendingFill* f = m.find(key);
    ASSERT_EQ(f != nullptr, it != ref.end()) << "op " << op;
    ASSERT_EQ(m.contains(key), it != ref.end()) << "op " << op;
    if (kind < 3) {
      if (f != nullptr) {
        EXPECT_EQ(f->anyWrite, it->second.anyWrite);
        EXPECT_EQ(coresOf(m, *f), it->second.cores);
      }
    } else if (kind < 6) {
      // A miss: a new fill, or a waiter joining one in flight.
      const auto core = static_cast<CoreId>(rng.nextBounded(64));
      const bool write = rng.nextBounded(4) == 0;
      if (f == nullptr) f = &m.insert(key);
      f->anyWrite |= write;
      m.push(*f, Waiter{core, write, nullptr, -1});
      Ref& r = ref[key];
      r.anyWrite |= write;
      r.cores.push_back(core);
    } else if (f != nullptr) {
      // A fill: erase the record, then serve its waiters in arrival order.
      const PendingFill served = *f;
      m.erase(key);
      std::vector<CoreId> cores;
      for (std::uint32_t n = served.head; n != PendingFill::kNone;)
        cores.push_back(m.take(n).core);
      EXPECT_EQ(cores, it->second.cores) << "op " << op;
      EXPECT_EQ(served.count, cores.size());
      ref.erase(it);
    }
    ASSERT_EQ(m.fills().size(), ref.size()) << "op " << op;
    ASSERT_LE(4 * m.fills().size(), 3 * m.fills().capacity());
    if (m.fills().capacity() != capacities.back()) {
      capacities.push_back(m.fills().capacity());
      ASSERT_EQ(contents(m), contents(ref)) << "after the rehash at op " << op;
    }
    if (op % 64 == 0) ASSERT_EQ(contents(m), contents(ref)) << "op " << op;
  }
  EXPECT_EQ(contents(m), contents(ref));
  EXPECT_EQ(capacities, (std::vector<std::size_t>{64, 128, 256, 512}));
}

TEST(MshrFile, WaitersKeepArrivalOrderAndFreedNodesAreReused) {
  MshrFile m;
  PendingFill& a = m.insert(64);
  for (CoreId c : {3, 1, 2}) m.push(a, Waiter{c, c == 1, nullptr, c});
  m.push(m.insert(128), Waiter{7, false, nullptr, 0});
  const PendingFill served = *m.find(64);
  EXPECT_EQ(served.count, 3u);
  EXPECT_TRUE(served.anyWrite == false && served.prefetch == false);
  EXPECT_EQ(coresOf(m, served), (std::vector<CoreId>{3, 1, 2}));

  // Serving takes the waiters in arrival order, and frees each node.
  m.erase(64);
  std::vector<std::uint32_t> freed;
  std::vector<CoreId> order;
  for (std::uint32_t n = served.head; n != PendingFill::kNone;) {
    freed.push_back(n);
    const Waiter w = m.take(n);
    EXPECT_EQ(w.tag, w.core);
    order.push_back(w.core);
  }
  EXPECT_EQ(order, (std::vector<CoreId>{3, 1, 2}));

  // The next waiters take those nodes rather than growing the pool, and
  // the other fill's waiter stays where it was.
  PendingFill& c = m.insert(192);
  for (CoreId core : {4, 5, 6}) m.push(c, Waiter{core, false, nullptr, -1});
  for (const std::uint32_t n : {c.head, c.tail})
    EXPECT_NE(std::find(freed.begin(), freed.end(), n), freed.end()) << n;
  EXPECT_EQ(coresOf(m, *m.find(192)), (std::vector<CoreId>{4, 5, 6}));
  EXPECT_EQ(coresOf(m, *m.find(128)), (std::vector<CoreId>{7}));
}

}  // namespace
}  // namespace mb::cpu
