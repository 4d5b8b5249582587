#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine_rig.hpp"

namespace mb::cpu {
namespace {

/// Scripted trace source for deterministic core tests.
class ScriptedTrace final : public trace::TraceSource {
 public:
  explicit ScriptedTrace(std::vector<trace::Record> records)
      : records_(std::move(records)) {}
  trace::Record next() override {
    if (idx_ < records_.size()) return records_[idx_++];
    // Past the script: pure compute filler.
    trace::Record r;
    r.gapInstrs = 1000;
    r.addr = 0;
    return r;
  }
  void save(ckpt::Writer& w) const override { w.u64(idx_); }
  void load(ckpt::Reader& r) override { idx_ = static_cast<size_t>(r.u64()); }

 private:
  std::vector<trace::Record> records_;
  size_t idx_ = 0;
};

class CoreTest : public EngineRigTest {
 protected:
  void build(std::vector<trace::Record> records, std::int64_t maxInstrs,
             int mshrs = 8) {
    core_.reset();
    geom_.channels = 1;
    geom_.ranksPerChannel = 2;
    geom_.banksPerRank = 8;
    geom_.capacityBytes = 4 * kGiB;
    hcfg_.numCores = 1;
    hcfg_.coresPerCluster = 1;
    buildRig();
    trace_ = std::make_unique<ScriptedTrace>(std::move(records));
    params_.maxInstrs = maxInstrs;
    params_.mshrs = mshrs;
    core_ = std::make_unique<RobCore>(0, params_, *trace_, *hier_, *cpuQ_);
  }

  void run() {
    core_->start();
    runUntil([this] { return core_->done(); });
  }

  std::unique_ptr<ScriptedTrace> trace_;
  CoreParams params_;
  std::unique_ptr<RobCore> core_;
};

trace::Record compute(std::uint32_t gap) {
  trace::Record r;
  r.gapInstrs = gap;
  r.addr = 64;  // lands in the cache after the first touch
  return r;
}

trace::Record load(std::uint64_t addr, bool dependent = false) {
  trace::Record r;
  r.gapInstrs = 0;
  r.addr = addr;
  r.dependent = dependent;
  return r;
}

// Address stride that advances both the bank field (bits 14-16 under the
// page-interleaved map of this 1-channel geometry) and the row field, so
// consecutive loads exercise bank-level parallelism.
constexpr std::uint64_t kSpreadStride = 144 * kKiB;

TEST_F(CoreTest, PureComputeRunsAtIssueWidth) {
  build({compute(100000)}, 100000);
  run();
  EXPECT_TRUE(core_->done());
  // 2-wide issue: IPC should approach 2 for pure compute.
  EXPECT_NEAR(core_->ipc(), 2.0, 0.05);
}

TEST_F(CoreTest, CacheHitsBarelySlowTheCore) {
  // First touch misses; later loads to the same line hit in the L1.
  std::vector<trace::Record> recs;
  for (int i = 0; i < 2000; ++i) {
    auto r = load(0x5000);
    r.gapInstrs = 50;
    recs.push_back(r);
  }
  build(std::move(recs), 100000);
  run();
  EXPECT_GT(core_->ipc(), 1.5);
}

TEST_F(CoreTest, DramBoundLoadsAreMlpLimited) {
  // Independent loads to distinct rows of the same bank: the ROB window
  // allows several to overlap; IPC is far below compute but far above
  // fully-serialized.
  std::vector<trace::Record> recs;
  for (int i = 0; i < 3000; ++i) {
    auto r = load(static_cast<std::uint64_t>(i) * kSpreadStride);
    r.gapInstrs = 20;
    recs.push_back(r);
  }
  build(std::move(recs), 60000);
  run();
  EXPECT_TRUE(core_->done());
  EXPECT_LT(core_->ipc(), 1.0);
  EXPECT_GT(core_->ipc(), 0.05);
}

TEST_F(CoreTest, DependentChainsSerialize) {
  auto makeRecs = [](bool dependent) {
    std::vector<trace::Record> recs;
    for (int i = 0; i < 1500; ++i) {
      auto r = load(static_cast<std::uint64_t>(i) * kSpreadStride, dependent);
      r.gapInstrs = 10;
      recs.push_back(r);
    }
    return recs;
  };
  build(makeRecs(false), 15000);
  run();
  const double independentIpc = core_->ipc();

  // Rebuild with dependent chains: pointer chasing kills MLP.
  build(makeRecs(true), 15000);
  run();
  const double dependentIpc = core_->ipc();
  EXPECT_LT(dependentIpc, independentIpc * 0.7);
}

TEST_F(CoreTest, MshrLimitReducesOverlap) {
  auto makeRecs = [] {
    std::vector<trace::Record> recs;
    for (int i = 0; i < 1500; ++i) {
      auto r = load(static_cast<std::uint64_t>(i) * kSpreadStride);
      r.gapInstrs = 2;
      recs.push_back(r);
    }
    return recs;
  };
  build(makeRecs(), 4000, /*mshrs=*/8);
  run();
  const double wideIpc = core_->ipc();

  build(makeRecs(), 4000, /*mshrs=*/1);
  run();
  const double narrowIpc = core_->ipc();
  EXPECT_LT(narrowIpc, wideIpc);
}

TEST_F(CoreTest, InstrsRetiredCapsAtBudget) {
  build({compute(1000)}, 5000);
  run();
  EXPECT_EQ(core_->instrsRetired(), 5000);
  EXPECT_GT(core_->finishTick(), 0);
}

TEST_F(CoreTest, StoresOutpaceEquivalentLoads) {
  // Stores are posted (store-buffer limited); loads block the ROB. The same
  // miss stream must therefore retire faster as stores than as loads.
  auto makeRecs = [](bool asWrites) {
    std::vector<trace::Record> recs;
    for (int i = 0; i < 500; ++i) {
      auto r = load(static_cast<std::uint64_t>(i) * kSpreadStride);
      r.write = asWrites;
      r.gapInstrs = 30;
      recs.push_back(r);
    }
    return recs;
  };
  build(makeRecs(true), 15000);
  run();
  const double storeIpc = core_->ipc();

  build(makeRecs(false), 15000);
  run();
  const double loadIpc = core_->ipc();
  EXPECT_GT(storeIpc, loadIpc);
}

TEST_F(CoreTest, IpcIsDeterministic) {
  auto makeRecs = [] {
    std::vector<trace::Record> recs;
    for (int i = 0; i < 500; ++i) {
      auto r = load(static_cast<std::uint64_t>(i % 37) * 2 * kMiB);
      r.gapInstrs = 13;
      recs.push_back(r);
    }
    return recs;
  };
  build(makeRecs(), 7000);
  run();
  const double first = core_->ipc();

  build(makeRecs(), 7000);
  run();
  EXPECT_DOUBLE_EQ(core_->ipc(), first);
}

}  // namespace
}  // namespace mb::cpu
