// Full-system assembly and simulation driver.
//
// SystemConfig captures everything the paper's evaluation varies:
// processor-memory interface (PHY), μbank partitioning (nW, nB), page
// policy, scheduler, interleaving base bit, queue depth, and the CPU-side
// configuration. WorkloadSpec names what to run on it. runSimulation()
// builds the system, runs it to completion, and returns the metrics every
// figure of the paper is drawn from.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "core/page_policy.hpp"
#include "cpu/core.hpp"
#include "cpu/hierarchy.hpp"
#include "dram/geometry.hpp"
#include "interface/phy.hpp"
#include "mc/controller.hpp"
#include "power/mcpat_lite.hpp"
#include "trace/generator.hpp"
#include "trace/profiles.hpp"

namespace mb::sim {

struct SystemConfig {
  interface::PhyKind phy = interface::PhyKind::LpddrTsi;
  dram::UbankConfig ubank{1, 1};
  /// -1: use the PHY's channel count; single-threaded runs use 1 (§VI-A:
  /// "we populated only one memory controller ... to stress bandwidth").
  int channels = -1;
  /// Cores used for a SingleSpec workload: the paper evaluates each SPEC
  /// application through its top-4 SimPoint slices (§VI-A), so four
  /// independently seeded copies run on one 4-core cluster against the one
  /// populated channel.
  int specCopies = 4;
  core::PolicyKind pagePolicy = core::PolicyKind::Open;
  mc::SchedulerKind scheduler = mc::SchedulerKind::ParBs;
  /// -1: page interleaving (the maximum legal base bit); 6: cache-line.
  int interleaveBaseBit = -1;
  /// Extension: permutation-based interleaving — XOR-fold low row bits into
  /// the bank/μbank indices (the system-level bank-conflict remedy that
  /// μbank is the device-level alternative to).
  bool xorBankHash = false;
  int queueDepth = 32;
  bool refresh = true;
  /// Extension: per-bank rotating refresh instead of all-bank tRFC.
  bool perBankRefresh = false;
  /// Extension: scale the rank activation window (tRRD/tFAW) with the
  /// μbank row size — a 1/nW row draws ~1/nW activation current, so the
  /// power-delivery window can admit activates proportionally faster.
  bool scaleActWindowWithRowSize = false;
  bool timingCheck = false;
  /// Non-empty: stream every DRAM command of the run to this MBCMDT1 file
  /// (see mc/command_log.hpp), including the end-of-run energy trailer, for
  /// offline re-verification with analysis/trace_audit (tools/mbaudit).
  std::string recordCmdsPath;

  cpu::HierarchyConfig hier;
  cpu::CoreParams core;
  power::ProcessorEnergyParams procEnergy;
  std::uint64_t seed = 12345;
};

struct WorkloadSpec {
  enum class Kind { SingleSpec, Mix, Multithreaded, TraceFile };
  Kind kind = Kind::SingleSpec;
  std::string name;  // app / mix / kernel name, or a trace-file prefix
  trace::MtKind mtKind = trace::MtKind::Radix;

  static WorkloadSpec spec(const std::string& appName) {
    return WorkloadSpec{Kind::SingleSpec, appName, trace::MtKind::Radix};
  }
  static WorkloadSpec mix(const std::string& mixName) {
    return WorkloadSpec{Kind::Mix, mixName, trace::MtKind::Radix};
  }
  static WorkloadSpec mt(trace::MtKind kind) {
    return WorkloadSpec{Kind::Multithreaded, trace::mtKindName(kind), kind};
  }
  /// Replay recorded traces: one file per core, "<prefix>.<core>.mbt"
  /// (see trace/trace_file.hpp and tools/mbtrace.cpp). Core count follows
  /// `SystemConfig::specCopies`, channels default to 1 like SingleSpec.
  static WorkloadSpec traceFiles(const std::string& prefix) {
    return WorkloadSpec{Kind::TraceFile, prefix, trace::MtKind::Radix};
  }
};

/// Resolve a workload name: a SPEC app ("429.mcf"), a mix ("mix-high" /
/// "mix-blend"), a kernel ("RADIX"/"FFT"/"canneal"/"TPC-C"/"TPC-H"), or
/// recorded traces ("trace:PREFIX", accepted without file checks — a
/// missing file is a run-time failure). nullopt for any other name.
std::optional<WorkloadSpec> workloadByName(const std::string& name);

/// Multicore workloads run on the full cluster topology (64 cores in
/// clusters of 4) and populate the PHY's channel count unless cfg.channels
/// overrides; single-core workloads leave cfg untouched.
void applyWorkloadShape(SystemConfig& cfg, const WorkloadSpec& workload);

struct RunResult {
  std::string workload;
  double systemIpc = 0.0;   // sum of per-core IPC (multiprogram throughput)
  Tick elapsed = 0;         // latest core finish tick
  std::int64_t instructions = 0;

  power::SystemEnergyBreakdown energy;
  double invEdp = 0.0;  // 1 / (totalEnergy * elapsed); normalize vs a baseline

  // Memory-system behaviour.
  double rowHitRate = 0.0;
  double predictorHitRate = 0.0;
  double avgQueueOccupancy = 0.0;
  double avgReadLatencyNs = 0.0;
  double dataBusUtilization = 0.0;
  std::int64_t dramReads = 0;
  std::int64_t dramWrites = 0;
  std::int64_t activations = 0;
  double mapki = 0.0;  // measured main-memory accesses per kilo-instruction
  cpu::HierarchyStats hierarchy;
  std::vector<double> coreIpc;

  // Host-side observability (mbperf): events the queue dispatched during
  // this run. Deliberately NOT part of the canonical JSON report — it
  // measures the engine, not the simulated machine, and the golden-identity
  // corpus hashes the report.
  std::uint64_t eventsProcessed = 0;
};

/// Derive the DRAM geometry a SystemConfig implies.
dram::Geometry geometryFor(const SystemConfig& cfg, int channels);

/// Channel population a run of (cfg, workload) uses: single-threaded
/// workloads stress one controller (§VI-A), the rest default to the PHY's
/// channel count unless cfg.channels overrides.
int resolvedChannels(const SystemConfig& cfg, const WorkloadSpec& workload);

/// Effective DRAM timing of a run, including the scaled activation window
/// (scaleActWindowWithRowSize) — what the controllers are actually built
/// with, and therefore what a recorded command trace must be audited
/// against.
dram::TimingParams effectiveTiming(const SystemConfig& cfg);

/// Resolved interleave base bit (cfg.interleaveBaseBit, or page
/// interleaving when negative).
int resolvedBaseBit(const SystemConfig& cfg, const dram::Geometry& geom);

/// The self-describing MBCMDT1 header a recording of (cfg, workload)
/// carries; mbaudit --geometry uses it to cross-check a trace against a
/// named preset (MB-AUD-021).
mc::CmdTraceConfig cmdTraceConfigFor(const SystemConfig& cfg,
                                     const WorkloadSpec& workload);

/// Optional checkpoint / warmup behaviour for a run. Default-constructed
/// options reproduce the plain runSimulation() exactly.
struct RunOptions {
  /// Functional cache warmup: before the timed run, each core consumes this
  /// many trace records through the hierarchy with zero latency (caches,
  /// directory and prefetcher warm; DRAM and the event queue untouched).
  /// Statistics are reset afterwards, so measurements start warm.
  std::int64_t warmupRecords = 0;
  /// Restore the warmup state from an encoded MBCKPT1 warmup snapshot
  /// (captureWarmupSnapshot) instead of replaying it. The snapshot's warmup
  /// key must match warmupKeyHash(cfg, workload, warmupRecords). The buffer
  /// wins when both buffer and path are set.
  const std::string* warmupRestoreBuf = nullptr;
  std::string warmupRestorePath;
  /// Write a full-run MBCKPT1 checkpoint at the first event boundary at or
  /// after this tick (ps); the run then continues to completion. -1: off.
  Tick checkpointAt = -1;
  std::string checkpointPath;
  /// Resume from a full-run checkpoint file and run to completion (the
  /// warmup options above are ignored: the snapshot carries all state).
  std::string restorePath;
  /// Worker threads for the channel-sharded engine (DESIGN.md §14), clamped
  /// to [1, nChannels]. Results — report, command trace, snapshots — are
  /// byte-identical at every value; this knob trades threads for wall-clock
  /// only. 1 = serial (no worker pool).
  int shards = 1;
};

/// FNV-1a hash of the canonically encoded resolved configuration +
/// workload; embedded in full-run snapshots so a restore into a different
/// configuration is rejected (MB-CKP-004).
std::uint64_t systemConfigHash(const SystemConfig& cfg, const WorkloadSpec& workload);

/// Hash of the warmup-relevant subset only — workload identity, seed, core
/// population, cache/prefetcher configuration, warmup length. Memory-side
/// parameters (nW/nB, PHY, scheduler, policy, channels...) are deliberately
/// excluded: one warmup snapshot serves every memory config in a sweep.
std::uint64_t warmupKeyHash(const SystemConfig& cfg, const WorkloadSpec& workload,
                            std::int64_t warmupRecords);

/// Build the system, run the functional warmup, and return the encoded
/// MBCKPT1 warmup snapshot (trace-source + hierarchy state).
std::string captureWarmupSnapshot(const SystemConfig& cfg, const WorkloadSpec& workload,
                                  std::int64_t warmupRecords);

/// Build and run one simulation to completion.
RunResult runSimulation(const SystemConfig& cfg, const WorkloadSpec& workload);
RunResult runSimulation(const SystemConfig& cfg, const WorkloadSpec& workload,
                        const RunOptions& opts);

}  // namespace mb::sim
