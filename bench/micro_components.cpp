// google-benchmark microbenchmarks for the simulator's hot paths: address
// decomposition, cache lookup, scheduler candidate selection, DRAM command
// commit, trace generation, and a full small simulation as the end-to-end
// cost yardstick.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "core/address_map.hpp"
#include "cpu/cache.hpp"
#include "mc/controller.hpp"
#include "mc/scheduler.hpp"
#include "sim/experiment.hpp"
#include "trace/generator.hpp"

namespace {

using namespace mb;

dram::Geometry benchGeometry() {
  dram::Geometry g;
  g.channels = 16;
  g.ranksPerChannel = 8;
  g.banksPerRank = 8;
  g.ubank = {2, 8};
  return g;
}

void BM_AddressDecompose(benchmark::State& state) {
  const auto g = benchGeometry();
  const auto map = core::AddressMap::pageInterleaved(g);
  Rng rng(1);
  std::vector<std::uint64_t> addrs(1024);
  for (auto& a : addrs) a = rng.nextU64() & ((1ull << 40) - 64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.decompose(addrs[i++ & 1023]));
  }
}
BENCHMARK(BM_AddressDecompose);

void BM_AddressRoundTrip(benchmark::State& state) {
  const auto g = benchGeometry();
  const auto map = core::AddressMap::pageInterleaved(g);
  std::uint64_t a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.compose(map.decompose(a)));
    a += 4096;
  }
}
BENCHMARK(BM_AddressRoundTrip);

void BM_CacheLookupHit(benchmark::State& state) {
  cpu::Cache cache(2 * kMiB, 16);
  for (std::uint64_t i = 0; i < 1024; ++i)
    cache.insert(i * 64, cpu::LineState::Shared);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup((i++ & 1023) * 64));
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  cpu::Cache cache(16 * kKiB, 4);
  std::uint64_t a = 0;
  for (auto _ : state) {
    if (cache.peek(a) == nullptr) {
      benchmark::DoNotOptimize(cache.insert(a, cpu::LineState::Modified));
    }
    a += 64 * 64;  // new set walk, forces evictions
  }
}
BENCHMARK(BM_CacheInsertEvict);

/// A read window of `n` requests of 8 threads with a formed PAR-BS batch
/// (5 marks per thread), one candidate per window position, 70 % of them
/// issuable at the benchmarks' `now`.
std::vector<mc::Candidate> makeCandidates(mc::Scheduler& sched, std::size_t n) {
  Rng rng(3);
  std::vector<mc::Candidate> cands(n);
  for (size_t i = 0; i < cands.size(); ++i) {
    auto& c = cands[i];
    c.viewPos = static_cast<int>(i);
    c.id = i + 1;
    c.thread = static_cast<ThreadId>(rng.nextBounded(8));
    c.arrival = static_cast<Tick>(rng.nextBounded(100000));
    c.earliestIssue = rng.nextBool(0.7) ? 0 : 1000000;
    c.rowHit = rng.nextBool(0.4);
    mc::MemRequest req;
    req.id = c.id;
    req.thread = c.thread;
    req.arrival = c.arrival;
    sched.onEnqueue(req);
  }
  sched.formBatchIfDrained();
  return cands;
}

void BM_SchedulerPick(benchmark::State& state) {
  // The scheduler's share of a full arbitration pass: one priority key per
  // request (PAR-BS reads the mark and rank by window position), folded
  // into the lowest.
  mc::Scheduler sched(static_cast<mc::SchedulerKind>(state.range(0)));
  const auto cands = makeCandidates(sched, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    std::uint64_t best = ~std::uint64_t{0};
    for (const auto& c : cands)
      best = std::min(best, sched.key(c.viewPos, c.rowHit, c.arrival));
    benchmark::DoNotOptimize(best);
  }
}
// Args: {scheduler kind (FCFS, FR-FCFS, PAR-BS), candidate count}. The large
// counts model deep per-channel queues where the walk dominates kick().
BENCHMARK(BM_SchedulerPick)
    ->Args({0, 32})->Args({1, 32})->Args({2, 32})
    ->Args({0, 64})->Args({1, 64})->Args({2, 64})
    ->Args({0, 256})->Args({1, 256})->Args({2, 256});

void BM_SchedulerPickPair(benchmark::State& state) {
  // The whole selection of a full pass: the key of each request plus the
  // issuable and overall running bests the priority gate reads, in one
  // scan (Scheduler::pick, the walk's selection over a candidate list).
  mc::Scheduler sched(static_cast<mc::SchedulerKind>(state.range(0)));
  const auto cands = makeCandidates(sched, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    const auto pp = sched.pick(cands, 500000);
    benchmark::DoNotOptimize(pp.issuable);
    benchmark::DoNotOptimize(pp.overall);
  }
}
BENCHMARK(BM_SchedulerPickPair)
    ->Args({0, 32})->Args({1, 32})->Args({2, 32})
    ->Args({0, 64})->Args({1, 64})->Args({2, 64})
    ->Args({0, 256})->Args({1, 256})->Args({2, 256});

void BM_DramCommandCycle(benchmark::State& state) {
  const auto g = benchGeometry();
  mc::ChannelState ch(g, dram::TimingParams::tsi());
  ch.refreshEnabled = false;
  core::DramAddress da;
  Tick t = 0;
  std::int64_t row = 0;
  for (auto _ : state) {
    da.row = ++row;
    t = ch.earliestAct(da, t);
    ch.commitAct(da, t);
    const Tick cas = ch.earliestCas(da, false, t);
    ch.commitCas(da, false, cas);
    const Tick pre = ch.earliestPre(da, cas);
    ch.commitPre(da, pre);
    t = pre;
  }
}
BENCHMARK(BM_DramCommandCycle);

void BM_TraceGeneration(benchmark::State& state) {
  trace::SyntheticParams p = trace::specProfile("429.mcf").params;
  trace::SyntheticSource src(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.next());
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_EndToEndSmallRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::SystemConfig cfg = sim::tsiBaselineConfig();
    cfg.core.maxInstrs = 20000;
    const auto r = sim::runSimulation(cfg, sim::WorkloadSpec::spec("450.soplex"));
    benchmark::DoNotOptimize(r.systemIpc);
  }
}
BENCHMARK(BM_EndToEndSmallRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
