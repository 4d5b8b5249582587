// Snapshot completeness of one memory controller, for every page policy
// under every scheduler (DESIGN.md §11). A seeded stream of reads and
// writes, with refresh and the live auditor on and write watermarks low
// enough that drains start and stop, is cut at three points. At each cut
// the controller is saved and a fresh one is restored from the bytes:
//   - saving the restored controller again must give the same bytes, so a
//     field load() reads in another order, skips or recomputes differently
//     fails here;
//   - the original and the restored controller then finish the same
//     remaining arrivals, and must commit the same commands, complete the
//     same reads at the same ticks and end in byte-identical state, so a
//     field save() drops but the schedule depends on fails too.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "core/address_map.hpp"
#include "mc/controller.hpp"

namespace mb::mc {
namespace {

using Param = std::tuple<core::PolicyKind, SchedulerKind>;

constexpr core::PolicyKind kPolicies[] = {
    core::PolicyKind::Open,         core::PolicyKind::Close,
    core::PolicyKind::MinimalistOpen, core::PolicyKind::LocalBimodal,
    core::PolicyKind::GlobalBimodal, core::PolicyKind::Tournament,
    core::PolicyKind::Perfect};
constexpr SchedulerKind kSchedulers[] = {SchedulerKind::Fcfs, SchedulerKind::FrFcfs,
                                         SchedulerKind::ParBs};

dram::Geometry roundTripGeometry() {
  dram::Geometry g;
  g.channels = 1;
  g.ranksPerChannel = 2;
  g.banksPerRank = 8;
  g.ubank = {2, 2};
  g.capacityBytes = 4 * kGiB;
  return g;
}

ControllerConfig roundTripConfig(const Param& p) {
  ControllerConfig cfg;
  cfg.pagePolicy = std::get<0>(p);
  cfg.scheduler = std::get<1>(p);
  cfg.queueDepth = 16;
  cfg.writeHighWatermark = 12;
  cfg.writeLowWatermark = 4;
  cfg.enableTimingCheck = true;
  cfg.refreshEnabled = true;
  return cfg;
}

/// One request of the offered stream, due at `at`.
struct Arrival {
  Tick at = 0;
  std::uint64_t addr = 0;
  bool write = false;
  ThreadId thread = 0;
};

/// Bursts of requests on a few rows per μbank, so hits, conflicts, idle
/// gaps, forwarding and write drains all occur.
std::vector<Arrival> offeredStream(const core::AddressMap& map) {
  Rng rng(0xc0ffee5eedull);
  std::vector<Arrival> out;
  Tick at = 0;
  for (int burst = 0; burst < 24; ++burst) {
    at += 20'000 + static_cast<Tick>(rng.nextBounded(400'000));  // idle gap
    const int n = 4 + static_cast<int>(rng.nextBounded(20));
    for (int i = 0; i < n; ++i) {
      core::DramAddress da;
      da.rank = static_cast<int>(rng.nextBounded(2));
      da.bank = static_cast<int>(rng.nextBounded(3));
      da.ubank = static_cast<int>(rng.nextBounded(4));
      da.row = static_cast<std::int64_t>(rng.nextBounded(3));
      da.column = static_cast<std::int64_t>(rng.nextBounded(8));
      Arrival a;
      a.at = at;
      a.addr = map.compose(da);
      a.write = rng.nextBool(0.4);
      a.thread = static_cast<ThreadId>(rng.nextBounded(4));
      out.push_back(a);
      at += static_cast<Tick>(rng.nextBounded(3'000));
    }
  }
  return out;
}

/// What one controller did after the cut, in the order it did it.
struct Observed {
  std::vector<std::tuple<int, std::string, Tick>> commands;
  std::vector<std::pair<Tick, std::uint64_t>> completions;
};

/// One controller on its own event queue, fed the offered stream.
struct Rig {
  Rig(const dram::Geometry& geom, const core::AddressMap& map, const ControllerConfig& cfg)
      : mc(0, geom, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(), map, cfg,
           eq) {
    mc.commandTrace = [this](DramCommand cmd, const core::DramAddress& da, Tick t) {
      seen.commands.emplace_back(static_cast<int>(cmd), da.toString(), t);
    };
    mc.completionFactory = [this](std::uint64_t addr, CoreId) {
      return [this, addr](Tick when) { seen.completions.emplace_back(when, addr); };
    };
  }

  /// Arm arrival `i` of `stream`, under `stamp` when it carries one.
  void arm(const std::vector<Arrival>& stream, std::size_t i, const EventStamp* stamp,
           std::vector<bool>* fired) {
    auto cb = [this, &stream, i, fired] {
      (*fired)[i] = true;
      MemRequest r;
      r.addr = stream[i].addr;
      r.write = stream[i].write;
      r.thread = stream[i].thread;
      if (!r.write)
        r.onComplete = [this, addr = r.addr](Tick when) {
          seen.completions.emplace_back(when, addr);
        };
      mc.enqueue(std::move(r));
    };
    if (stamp != nullptr) {
      eq.scheduleStamped(stream[i].at, *stamp, std::move(cb));
    } else {
      stamps[i] = eq.scheduleAt(stream[i].at, std::move(cb));
    }
  }

  std::string bytes() const {
    ckpt::Writer w;
    mc.save(w);
    return w.str();
  }

  EventQueue eq;
  MemoryController mc;
  Observed seen;
  std::vector<EventStamp> stamps;
};

class ControllerSnapshotRoundTrip : public ::testing::TestWithParam<Param> {};

TEST_P(ControllerSnapshotRoundTrip, RestoreResavesAndReplaysTheOriginal) {
  const dram::Geometry geom = roundTripGeometry();
  const core::AddressMap map = core::AddressMap::pageInterleaved(geom);
  const ControllerConfig cfg = roundTripConfig(GetParam());
  const std::vector<Arrival> stream = offeredStream(map);

  // The uncut run's end tick places the cuts.
  Tick end = 0;
  {
    std::vector<bool> fired(stream.size(), false);
    Rig whole(geom, map, cfg);
    whole.stamps.resize(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) whole.arm(stream, i, nullptr, &fired);
    whole.eq.run();
    ASSERT_EQ(whole.mc.outstanding(), 0);
    end = whole.eq.now();
  }

  for (const int quarter : {1, 2, 3}) {
    const Tick cut = end * quarter / 4;
    SCOPED_TRACE("cut at " + std::to_string(cut) + " ps");
    std::vector<bool> fired(stream.size(), false);
    Rig original(geom, map, cfg);
    original.stamps.resize(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) original.arm(stream, i, nullptr, &fired);
    while (original.eq.nextEventTime() <= cut && original.eq.step()) {
    }
    ASSERT_GT(original.mc.outstanding() + static_cast<int>(original.eq.size()), 0)
        << "the cut landed after the run";
    const std::string saved = original.bytes();

    Rig restored(geom, map, cfg);
    restored.eq.restoreClock(original.eq.now());
    restored.eq.restoreNextCounter(original.eq.nextCounter());
    ckpt::Reader r(saved);
    restored.mc.load(r);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd()) << "load() left bytes save() wrote";
    restored.mc.reschedule();
    EXPECT_EQ(restored.bytes(), saved) << "save(load(bytes)) != bytes";

    std::vector<bool> restoredFired = fired;
    for (std::size_t i = 0; i < stream.size(); ++i)
      if (!fired[i]) restored.arm(stream, i, &original.stamps[i], &restoredFired);
    original.seen = Observed{};
    original.eq.run();
    restored.eq.run();

    EXPECT_EQ(restored.seen.commands, original.seen.commands);
    EXPECT_EQ(restored.seen.completions, original.seen.completions);
    ASSERT_EQ(restored.eq.now(), original.eq.now());
    original.mc.finalize(original.eq.now());
    restored.mc.finalize(restored.eq.now());
    EXPECT_EQ(restored.bytes(), original.bytes())
        << "the restored controller ended in another state";
  }
}

std::string paramName(const ::testing::TestParamInfo<Param>& info) {
  std::string name = core::policyKindName(std::get<0>(info.param)) + "_" +
                     schedulerKindName(std::get<1>(info.param));
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(EveryPolicyAndScheduler, ControllerSnapshotRoundTrip,
                         ::testing::Combine(::testing::ValuesIn(kPolicies),
                                            ::testing::ValuesIn(kSchedulers)),
                         paramName);

}  // namespace
}  // namespace mb::mc
