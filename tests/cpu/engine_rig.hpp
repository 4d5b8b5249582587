// Shared fixture of the cpu tests: a MemoryHierarchy over real controllers,
// each on its own channel queue behind a sim::ShardedEngine, built by the
// constructor that wires every run. Misses leave the hierarchy through the
// engine's mailbox and completions come back through it, so a test
// exercises the one path every simulation runs.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.hpp"
#include "core/address_map.hpp"
#include "cpu/hierarchy.hpp"
#include "dram/energy.hpp"
#include "dram/timing.hpp"
#include "mc/controller.hpp"
#include "sim/shard.hpp"

namespace mb::cpu {

class EngineRigTest : public ::testing::Test {
 protected:
  /// (Re)build the system from geom_ and hcfg_: one controller per channel
  /// (TSI timing, LPDDR-TSI energy, page-interleaved map, a live protocol
  /// auditor, no refresh) and the hierarchy on the CPU queue.
  void buildRig() {
    engine_.reset();
    hier_.reset();
    mcs_.clear();
    chQs_.clear();
    const dram::TimingParams timing = dram::TimingParams::tsi();
    const core::AddressMap map = core::AddressMap::pageInterleaved(geom_);
    mc::ControllerConfig cfg;
    cfg.enableTimingCheck = true;
    cfg.refreshEnabled = false;
    cpuQ_ = std::make_unique<EventQueue>();
    cpuQ_->setShardId(geom_.channels);
    for (int ch = 0; ch < geom_.channels; ++ch) {
      chQs_.push_back(std::make_unique<EventQueue>());
      chQs_.back()->setShardId(ch);
      mcs_.push_back(std::make_unique<mc::MemoryController>(
          ch, geom_, timing, dram::EnergyParams::lpddrTsi(), map, cfg,
          *chQs_.back()));
    }
    hier_ = std::make_unique<MemoryHierarchy>(hcfg_, mcs_, *cpuQ_);
    engine_ =
        std::make_unique<sim::ShardedEngine>(*cpuQ_, chQs_, *hier_, mcs_, timing, 1);
  }

  /// Clock of the CPU queue, where the hierarchy and the cores run.
  Tick now() const { return cpuQ_->now(); }

  /// Run the engine until `stop` holds after a CPU event, or until every
  /// queue is empty.
  void runUntil(const std::function<bool()>& stop) { engine_->run(-1, {}, stop); }

  /// Run every queue dry, then bring them all to the latest clock. A drain
  /// can leave the channel queues ahead of the CPU queue, and a test access
  /// made at now() would then post an admission behind a channel's clock.
  /// A simulation never needs this: it posts only from inside the engine's
  /// windows.
  void drain() {
    runUntil([] { return false; });
    const Tick t = engine_->maxNow();
    cpuQ_->runUntil(t);
    for (auto& q : chQs_) q->runUntil(t);
  }

  dram::Geometry geom_;
  HierarchyConfig hcfg_;
  // In build order, so teardown runs from the engine down to the queues.
  std::unique_ptr<EventQueue> cpuQ_;
  std::vector<std::unique_ptr<EventQueue>> chQs_;
  std::vector<std::unique_ptr<mc::MemoryController>> mcs_;
  std::unique_ptr<MemoryHierarchy> hier_;
  std::unique_ptr<sim::ShardedEngine> engine_;
};

}  // namespace mb::cpu
