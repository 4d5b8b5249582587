#include "analysis/config_lint.hpp"

#include <algorithm>

namespace mb::analysis {

namespace {

/// Collects the diagnostics of one lint invocation: add() hands back a
/// Diagnostic& for .with() chaining, the finished diagnostic is forwarded
/// to the engine on the next add() / clean() / destruction, and clean()
/// reports whether the invocation stayed error-free.
class RuleSink {
 public:
  explicit RuleSink(DiagnosticEngine& engine) : engine_(engine) {}
  ~RuleSink() { flush(); }
  RuleSink(const RuleSink&) = delete;
  RuleSink& operator=(const RuleSink&) = delete;

  Diagnostic& add(const char* code, Severity sev, std::string message) {
    flush();
    pending_ = Diagnostic(code, sev, std::move(message));
    live_ = true;
    if (sev == Severity::Error || sev == Severity::Fatal) sawError_ = true;
    return pending_;
  }

  bool clean() {
    flush();
    return !sawError_;
  }

 private:
  void flush() {
    if (live_) {
      engine_.report(std::move(pending_));
      live_ = false;
    }
  }

  DiagnosticEngine& engine_;
  Diagnostic pending_;
  bool live_ = false;
  bool sawError_ = false;
};

}  // namespace

bool ConfigLinter::lintGeometry(const dram::Geometry& g) {
  RuleSink sink(engine_);
  const auto& ub = g.ubank;
  if (!(isPowerOfTwo(ub.nW) && ub.nW >= 1 && ub.nW <= 16)) {
    sink.add("MB-CFG-001", Severity::Error,
             "μbank wordline partition count nW must be a power of two in [1, 16]")
        .with("nW", static_cast<std::int64_t>(ub.nW));
  }
  if (!(isPowerOfTwo(ub.nB) && ub.nB >= 1 && ub.nB <= 16)) {
    sink.add("MB-CFG-002", Severity::Error,
             "μbank bitline partition count nB must be a power of two in [1, 16]")
        .with("nB", static_cast<std::int64_t>(ub.nB));
  }
  if (!isPowerOfTwo(g.channels)) {
    sink.add("MB-CFG-003", Severity::Error,
             "channel count must be a positive power of two")
        .with("channels", static_cast<std::int64_t>(g.channels));
  }
  if (!isPowerOfTwo(g.ranksPerChannel)) {
    sink.add("MB-CFG-004", Severity::Error,
             "ranks per channel must be a positive power of two")
        .with("ranksPerChannel", static_cast<std::int64_t>(g.ranksPerChannel));
  }
  if (!isPowerOfTwo(g.banksPerRank)) {
    sink.add("MB-CFG-005", Severity::Error,
             "banks per rank must be a positive power of two")
        .with("banksPerRank", static_cast<std::int64_t>(g.banksPerRank));
  }
  if (!isPowerOfTwo(g.lineBytes) || g.lineBytes < 8) {
    sink.add("MB-CFG-008", Severity::Error,
             "cache line size must be a power of two of at least 8 bytes")
        .with("lineBytes", static_cast<std::int64_t>(g.lineBytes));
  }
  // Derived checks only run over prerequisites that are individually sane —
  // the guards keep the arithmetic below well-defined (no division by zero).
  const bool ubankOk = ub.nW >= 1 && ub.nB >= 1;
  if (!isPowerOfTwo(g.rowBytes) ||
      (ubankOk && g.lineBytes > 0 &&
       g.rowBytes % (static_cast<std::int64_t>(ub.nW) * g.lineBytes) != 0)) {
    sink.add("MB-CFG-006", Severity::Error,
             "row size must be a power of two divisible by nW cache lines")
        .with("rowBytes", g.rowBytes)
        .with("nW", static_cast<std::int64_t>(ub.nW))
        .with("lineBytes", static_cast<std::int64_t>(g.lineBytes));
  }
  if (!isPowerOfTwo(g.capacityBytes)) {
    sink.add("MB-CFG-007", Severity::Error,
             "total capacity must be a positive power of two")
        .with("capacityBytes", g.capacityBytes);
  } else if (ubankOk && g.channels >= 1 && g.ranksPerChannel >= 1 &&
             g.banksPerRank >= 1 && g.rowBytes >= ub.nW &&
             g.capacityBytes < g.totalUbanks() * g.ubankRowBytes()) {
    sink.add("MB-CFG-007", Severity::Error,
             "capacity too small: every μbank must hold at least one row")
        .with("capacityBytes", g.capacityBytes)
        .with("totalUbanks", g.totalUbanks())
        .with("ubankRowBytes", g.ubankRowBytes());
  }
  return sink.clean();
}

bool ConfigLinter::lintTiming(const dram::TimingParams& t) {
  RuleSink sink(engine_);
  const struct {
    const char* name;
    Tick value;
  } positives[] = {
      {"tCMD", t.tCMD},   {"tBURST", t.tBURST}, {"tCCD", t.tCCD},
      {"tRCD", t.tRCD},   {"tAA", t.tAA},       {"tRAS", t.tRAS},
      {"tRP", t.tRP},     {"tRRD", t.tRRD},     {"tFAW", t.tFAW},
      {"tWR", t.tWR},     {"tWTR", t.tWTR},     {"tRTP", t.tRTP},
      {"tREFI", t.tREFI}, {"tRFC", t.tRFC},     {"tRFCpb", t.tRFCpb},
  };
  for (const auto& p : positives) {
    if (p.value <= 0) {
      sink.add("MB-TIM-101", Severity::Error,
               "timing parameter must be positive")
          .with("parameter", p.name)
          .with("value_ps", p.value);
    }
  }
  if (t.tRTRS < 0) {
    sink.add("MB-TIM-106", Severity::Error,
             "rank-switch penalty tRTRS must be non-negative")
        .with("tRTRS_ps", t.tRTRS);
  }
  if (t.tRAS < t.tRCD) {
    sink.add("MB-TIM-102", Severity::Error,
             "tRAS < tRCD: a row must stay open at least through ACT->CAS")
        .with("tRAS_ps", t.tRAS)
        .with("tRCD_ps", t.tRCD);
  }
  if (t.tFAW < t.tRRD) {
    sink.add("MB-TIM-103", Severity::Error,
             "tFAW < tRRD: the four-activate window cannot span one ACT gap")
        .with("tFAW_ps", t.tFAW)
        .with("tRRD_ps", t.tRRD);
  } else if (t.tFAW < 4 * t.tRRD) {
    sink.add("MB-TIM-107", Severity::Warning,
             "tFAW < 4*tRRD: the activate window never binds (tRRD alone governs)")
        .with("tFAW_ps", t.tFAW)
        .with("tRRD_ps", t.tRRD);
  }
  if (t.tCCD < t.tBURST) {
    sink.add("MB-TIM-104", Severity::Error,
             "tCCD < tBURST: back-to-back CAS would overlap data bursts")
        .with("tCCD_ps", t.tCCD)
        .with("tBURST_ps", t.tBURST);
  }
  if (t.tREFI <= t.tRFC) {
    sink.add("MB-TIM-105", Severity::Error,
             "tREFI <= tRFC: refresh would saturate the rank")
        .with("tREFI_ps", t.tREFI)
        .with("tRFC_ps", t.tRFC);
  }
  if (t.tRFCpb > 0 && t.tRFC > 0 && t.tRFCpb >= t.tRFC) {
    sink.add("MB-TIM-108", Severity::Warning,
             "per-bank refresh is no cheaper than all-bank refresh")
        .with("tRFCpb_ps", t.tRFCpb)
        .with("tRFC_ps", t.tRFC);
  }
  return sink.clean();
}

bool ConfigLinter::lintAddressMap(const dram::Geometry& g, int interleaveBaseBit,
                                  bool xorBankHash) {
  RuleSink sink(engine_);
  // These derive bit widths; a geometry that failed lintGeometry is not
  // meaningfully mappable, so bail out quietly (the geometry diagnostics
  // already name the defect).
  if (!g.valid()) return sink.clean();

  const int colBits = exactLog2(g.linesPerUbankRow());
  const int maxIb = 6 + colBits;
  const int iB = interleaveBaseBit < 0 ? maxIb : interleaveBaseBit;
  if (iB < 6 || iB > maxIb) {
    sink.add("MB-MAP-001", Severity::Error,
             "interleave base bit outside [6, 6 + log2(lines per μbank row)]")
        .with("interleaveBaseBit", static_cast<std::int64_t>(iB))
        .with("min", std::int64_t{6})
        .with("max", static_cast<std::int64_t>(maxIb));
  }

  // The bit fields (line offset, column, channel, rank, bank, μbank, row)
  // must tile the physical address space exactly once: their widths must
  // sum to log2(capacity) with every field an exact power-of-two extent.
  const std::int64_t rowsPerUbank = g.rowsPerUbank();
  if (!isPowerOfTwo(rowsPerUbank)) {
    sink.add("MB-MAP-002", Severity::Error,
             "address-map fields cannot tile the address space: rows per μbank "
             "is not a power of two")
        .with("rowsPerUbank", rowsPerUbank);
    return sink.clean();
  }
  const int sumBits = 6 + colBits + exactLog2(g.channels) +
                      exactLog2(g.ranksPerChannel) + exactLog2(g.banksPerRank) +
                      exactLog2(g.ubanksPerBank()) + exactLog2(rowsPerUbank);
  const int physBits = exactLog2(g.capacityBytes);
  if (sumBits != physBits) {
    sink.add("MB-MAP-002", Severity::Error,
             "address-map bit fields must cover the physical address exactly "
             "once with no overlap")
        .with("fieldBitsSum", static_cast<std::int64_t>(sumBits))
        .with("physicalAddressBits", static_cast<std::int64_t>(physBits));
  }

  if (xorBankHash) {
    const int foldBits = exactLog2(g.banksPerRank) + exactLog2(g.ubanksPerBank());
    if (exactLog2(rowsPerUbank) < foldBits) {
      sink.add("MB-MAP-004", Severity::Warning,
               "xor bank hash folds more bits than the row index provides; the "
               "permutation is partially degenerate")
          .with("rowBits", static_cast<std::int64_t>(exactLog2(rowsPerUbank)))
          .with("bankPlusUbankBits", static_cast<std::int64_t>(foldBits));
    }
  }
  return sink.clean();
}

bool ConfigLinter::lintTableI(const dram::TimingParams& t, interface::PhyKind kind) {
  RuleSink sink(engine_);
  // Table I publishes tRCD = 14 ns, tRAS = 35 ns, tRP = 14 ns for every
  // interface, and tAA = 14 ns for DDR3-PCB vs 12 ns for TSI-attached
  // stacks (fewer SerDes steps).
  const Tick expectAa = kind == interface::PhyKind::Ddr3Pcb ? ns(14) : ns(12);
  const struct {
    const char* name;
    Tick actual;
    Tick expected;
  } rows[] = {
      {"tRCD", t.tRCD, ns(14)},
      {"tRAS", t.tRAS, ns(35)},
      {"tRP", t.tRP, ns(14)},
      {"tAA", t.tAA, expectAa},
  };
  for (const auto& r : rows) {
    if (r.actual != r.expected) {
      sink.add("MB-DRV-001", Severity::Error,
               "interface timing deviates from the paper's Table I")
          .with("interface", interface::phyKindName(kind))
          .with("parameter", r.name)
          .with("actual_ps", r.actual)
          .with("tableI_ps", r.expected);
    }
  }
  return sink.clean();
}

bool ConfigLinter::lintSystem(const sim::SystemConfig& cfg) {
  RuleSink sink(engine_);
  const auto phy = interface::PhyModel::make(cfg.phy);

  if (cfg.channels < -1 || cfg.channels == 0 ||
      (cfg.channels > 0 && !isPowerOfTwo(cfg.channels))) {
    sink.add("MB-CFG-011", Severity::Error,
             "channel count must be -1 (auto) or a positive power of two")
        .with("channels", static_cast<std::int64_t>(cfg.channels));
  } else if (cfg.channels > phy.channels) {
    sink.add("MB-CFG-012", Severity::Warning,
             "more memory controllers than the package interface supports")
        .with("channels", static_cast<std::int64_t>(cfg.channels))
        .with("phyChannels", static_cast<std::int64_t>(phy.channels));
  }
  if (cfg.queueDepth < 1 || cfg.queueDepth > 4096) {
    sink.add("MB-CFG-009", Severity::Error,
             "scheduler-visible queue depth must lie in [1, 4096]")
        .with("queueDepth", static_cast<std::int64_t>(cfg.queueDepth));
  }
  if (cfg.specCopies < 1) {
    sink.add("MB-CFG-010", Severity::Error,
             "at least one SPEC slice copy must run")
        .with("specCopies", static_cast<std::int64_t>(cfg.specCopies));
  }

  // The run's own derivations, without geometryFor's aborting MB_CHECK:
  // producing diagnostics is the whole point here.
  const dram::Geometry g = sim::deriveGeometry(
      cfg, std::max(1, cfg.channels < 0 ? phy.channels : cfg.channels));
  bool ok = sink.clean();
  ok = lintGeometry(g) && ok;
  ok = lintAddressMap(g, cfg.interleaveBaseBit, cfg.xorBankHash) && ok;

  // Interface timing: Table I conformance of the base set, then sanity of
  // the set the controllers run with (the μbank-scaled activation window).
  ok = lintTableI(phy.timing, cfg.phy) && ok;
  ok = lintTiming(sim::effectiveTiming(cfg)) && ok;
  return ok;
}

}  // namespace mb::analysis
