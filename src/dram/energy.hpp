// DRAM energy model.
//
// Per-event energies follow Table I of the paper:
//   - ACT+PRE: 30 nJ for a full 8 KB row; scales with the number of bits
//     activated, so a μbank row of 8KB/nW costs 30nJ/nW.
//   - RD/WR (array to device pads): 13 pJ/b for DDR3, 4 pJ/b for LPDDR-TSI.
//   - I/O (pads to processor): 20 pJ/b for DDR3-PCB, 4 pJ/b for LPDDR-TSI.
// Static power covers DLL/ODT/charge pumps and refresh baseline; DDR3 PHYs
// draw considerably more static power than the LPDDR PHY (§III-A).
//
// The accumulator splits energy into the same categories the paper's power
// breakdown figures use: ACT/PRE, RD/WR, I/O, and DRAM static.
#pragma once

#include <cstdint>

#include "ckpt/serialize.hpp"
#include "common/types.hpp"
#include "dram/geometry.hpp"

namespace mb::dram {

struct EnergyParams {
  PicoJoule actPreFullRow = 30.0 * 1000.0;  // 30 nJ per 8 KB row (Table I)
  std::int64_t fullRowBytes = 8 * kKiB;

  double rdwrPerBit = 13.0;  // pJ/b, array <-> pads
  double ioPerBit = 20.0;    // pJ/b, pads <-> processor
  double latchPerUbankAccess = 1.0;  // pJ per CAS for μbank latch/decoder overhead

  double staticPowerPerRankWatts = 0.15;  // DLL/ODT/pump baseline per rank
  PicoJoule refreshPerRank = 30.0 * 1000.0 * 8;  // one all-bank REF (8 rows/bank class)

  /// Energy of one ACT+PRE pair for a row of `rowBytes`.
  PicoJoule actPreEnergy(std::int64_t rowBytes) const {
    return actPreFullRow * static_cast<double>(rowBytes) /
           static_cast<double>(fullRowBytes);
  }

  /// Array + I/O energy to move one cache line.
  PicoJoule casEnergy(int lineBytes, int ubanksPerBank) const {
    const double bits = static_cast<double>(lineBytes) * 8.0;
    // The latch/decoder overhead grows (mildly) with the number of μbanks:
    // wider μbank decoders and more latch rows toggled per access (§IV-B
    // reports the effect is negligible next to cell-array power).
    const double latch = latchPerUbankAccess * (ubanksPerBank > 1 ? 1.0 : 0.0) *
                         (1.0 + 0.05 * static_cast<double>(ubanksPerBank));
    return bits * (rdwrPerBit + ioPerBit) + latch;
  }

  PicoJoule ioOnlyEnergy(int lineBytes) const {
    return static_cast<double>(lineBytes) * 8.0 * ioPerBit;
  }

  /// DDR3 interface over PCB (baseline).
  static EnergyParams ddr3Pcb();
  /// DDR3 dies stacked on TSI: I/O shortens but the DDR3 PHY (ODT/DLL)
  /// remains, so I/O energy improves only modestly (§III-B).
  static EnergyParams ddr3Tsi();
  /// LPDDR dies on TSI: 4 pJ/b I/O and 4 pJ/b RD/WR (Table I).
  static EnergyParams lpddrTsi();
};

/// Category-split accumulation of DRAM energy over a run.
class EnergyMeter {
 public:
  explicit EnergyMeter(EnergyParams params) : params_(params) {}

  void onActivate(std::int64_t rowBytes) {
    actPre_ += params_.actPreEnergy(rowBytes);
    ++activations_;
  }
  void onCas(int lineBytes, int ubanksPerBank) {
    const double bits = static_cast<double>(lineBytes) * 8.0;
    rdwr_ += params_.casEnergy(lineBytes, ubanksPerBank) - bits * params_.ioPerBit;
    io_ += bits * params_.ioPerBit;
    ++casOps_;
  }
  /// `fraction` of a whole-rank refresh (1.0 for all-bank REF; 1/banks for
  /// a per-bank REF).
  void onRefresh(double fraction = 1.0) {
    actPre_ += params_.refreshPerRank * fraction;
    ++refreshes_;
  }
  /// Integrate static power over the whole run.
  void finalizeStatic(Tick elapsed, int totalRanks) {
    staticE_ = params_.staticPowerPerRankWatts * static_cast<double>(totalRanks) *
               toSeconds(elapsed) * 1e12;  // W * s -> pJ
  }

  PicoJoule actPre() const { return actPre_; }
  PicoJoule rdwr() const { return rdwr_; }
  PicoJoule io() const { return io_; }
  PicoJoule staticEnergy() const { return staticE_; }
  PicoJoule total() const { return actPre_ + rdwr_ + io_ + staticE_; }

  std::int64_t activations() const { return activations_; }
  std::int64_t casOps() const { return casOps_; }
  std::int64_t refreshes() const { return refreshes_; }

  const EnergyParams& params() const { return params_; }

  void save(ckpt::Writer& w) const {
    w.f64(actPre_);
    w.f64(rdwr_);
    w.f64(io_);
    w.f64(staticE_);
    w.i64(activations_);
    w.i64(casOps_);
    w.i64(refreshes_);
  }
  void load(ckpt::Reader& r) {
    actPre_ = r.f64();
    rdwr_ = r.f64();
    io_ = r.f64();
    staticE_ = r.f64();
    activations_ = r.i64();
    casOps_ = r.i64();
    refreshes_ = r.i64();
  }

 private:
  EnergyParams params_;
  PicoJoule actPre_ = 0;
  PicoJoule rdwr_ = 0;
  PicoJoule io_ = 0;
  PicoJoule staticE_ = 0;
  std::int64_t activations_ = 0;
  std::int64_t casOps_ = 0;
  std::int64_t refreshes_ = 0;
};

/// Analytic energy-per-read model used by the Fig. 6(b) reproduction: the
/// expected energy to read one cache line when the ACT:CAS ratio is beta.
PicoJoule energyPerRead(const EnergyParams& params, const Geometry& geom, double beta);

}  // namespace mb::dram
