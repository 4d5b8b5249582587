// Synthetic workload generators.
//
// Real SPEC CPU2006 SimPoint traces, SPLASH-2/PARSEC regions of interest,
// and PostgreSQL TPC-C/H executions are not obtainable here, so each
// benchmark is modelled as a parameterized address-stream generator whose
// statistics — memory accesses per kilo-instruction (MAPKI), footprint,
// spatial/row locality, concurrency (number of active sequential streams),
// read/write mix, and pointer-chase dependence — are calibrated per
// benchmark (see profiles.cpp). The memory-system effects the paper studies
// (bank conflicts, row-buffer hits, interleaving, page-policy prediction)
// are functions of exactly these statistics.
//
// A generated reference is either:
//   - "hot": into a per-thread working set sized to hit in the caches
//     (keeps the cache hierarchy exercised at a realistic rate), or
//   - "cold": into the large footprint, following a mixture of sequential
//     streams, uniform-random lines, and dependent (pointer-chase) lines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"

namespace mb::trace {

/// Infinite source of trace records; the simulator bounds the run length.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual Record next() = 0;

  /// Serializable protocol: cursor / RNG state, so a restored run resumes
  /// the stream exactly where the checkpoint left it.
  virtual void save(ckpt::Writer& w) const = 0;
  virtual void load(ckpt::Reader& r) = 0;
};

/// Shared helpers for sources whose mutable state includes an Rng.
inline void saveRng(ckpt::Writer& w, const Rng& rng) {
  std::uint64_t s[4];
  rng.getState(s);
  for (std::uint64_t v : s) w.u64(v);
}
inline void loadRng(ckpt::Reader& r, Rng& rng) {
  std::uint64_t s[4];
  for (auto& v : s) v = r.u64();
  if (r.ok()) rng.setState(s);
}
inline void saveCursorVec(ckpt::Writer& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (std::uint64_t x : v) w.u64(x);
}
inline void loadCursorVec(ckpt::Reader& r, std::vector<std::uint64_t>& v) {
  if (r.u64() != v.size()) {  // sized at construction from the same params
    r.fail();
    return;
  }
  for (auto& x : v) x = r.u64();
}

/// Knobs for the single-threaded synthetic engine.
struct SyntheticParams {
  double mapki = 10.0;           // cold (cache-missing) accesses per kilo-instr
  double hotRefsPerColdRef = 2.0;  // cache-hitting accesses interleaved per cold one
  std::int64_t footprintBytes = 256 * kMiB;
  std::int64_t hotBytes = 64 * kKiB;

  double streamFrac = 0.5;  // cold refs that follow a sequential stream
  double chaseFrac = 0.0;   // cold refs that are dependent pointer chases
  // remaining cold refs are independent uniform-random lines
  int numStreams = 4;       // concurrent sequential cursors
  int strideLines = 1;      // stream advance in cache lines
  double writeFrac = 0.3;   // stores among cold refs

  std::uint64_t baseAddr = 0;  // placement of this thread's address space
  std::uint64_t seed = 1;
};

class SyntheticSource final : public TraceSource {
 public:
  explicit SyntheticSource(const SyntheticParams& params);
  Record next() override;

  const SyntheticParams& params() const { return p_; }

  void save(ckpt::Writer& w) const override {
    saveRng(w, rng_);
    saveCursorVec(w, streamCursors_);
    w.i32(nextStream_);
  }
  void load(ckpt::Reader& r) override {
    loadRng(r, rng_);
    loadCursorVec(r, streamCursors_);
    nextStream_ = r.i32();
    if (nextStream_ < 0 || nextStream_ >= p_.numStreams) r.fail();  // indexes the cursors
  }

 private:
  std::uint64_t randomColdLine();
  std::uint64_t streamLine();

  SyntheticParams p_;
  Rng rng_;
  double gapMeanInstrs_;
  std::vector<std::uint64_t> streamCursors_;  // line index within footprint
  std::vector<std::uint64_t> streamBases_;    // partition base per stream
  std::uint64_t footprintLines_;
  std::uint64_t hotLines_;
  int nextStream_ = 0;
};

/// Multithreaded kernels (SPLASH-2 / PARSEC / TPC) — one source per thread
/// over a shared address space.
enum class MtKind { Radix, Fft, Canneal, TpcC, TpcH };

std::string mtKindName(MtKind kind);

struct MtParams {
  MtKind kind = MtKind::Radix;
  int numThreads = 64;
  std::uint64_t seed = 1;
  std::int64_t sharedFootprintBytes = 8LL * kGiB;
};

/// RADIX sort: sequential reads from a private key partition; writes
/// scattered over many shared bucket cursors, each individually sequential —
/// the access pattern that wants one open row per bucket (§VI-B: RADIX has
/// high MAPKI and high μbank row-hit rates).
class RadixSource final : public TraceSource {
 public:
  RadixSource(const MtParams& params, ThreadId thread);
  Record next() override;

  void save(ckpt::Writer& w) const override {
    saveRng(w, rng_);
    w.u64(readCursor_);
    saveCursorVec(w, bucketCursors_);
  }
  void load(ckpt::Reader& r) override {
    loadRng(r, rng_);
    readCursor_ = r.u64();
    loadCursorVec(r, bucketCursors_);
  }

 private:
  Rng rng_;
  std::uint64_t readCursor_;
  std::uint64_t readBase_;
  std::uint64_t readSpanLines_;
  std::vector<std::uint64_t> bucketCursors_;
  std::vector<std::uint64_t> bucketBases_;
  double gapMeanInstrs_;
};

/// FFT: alternating unit-stride butterfly phases and large-stride transpose
/// phases (each transpose access touches a fresh DRAM row).
class FftSource final : public TraceSource {
 public:
  FftSource(const MtParams& params, ThreadId thread);
  Record next() override;

  void save(ckpt::Writer& w) const override {
    saveRng(w, rng_);
    w.u64(cursor_);
    w.i32(phaseLeft_);
    w.b(transposePhase_);
  }
  void load(ckpt::Reader& r) override {
    loadRng(r, rng_);
    cursor_ = r.u64();
    phaseLeft_ = r.i32();
    transposePhase_ = r.b();
  }

 private:
  Rng rng_;
  std::uint64_t base_;
  std::uint64_t spanLines_;
  std::uint64_t cursor_ = 0;
  std::uint64_t strideLines_;
  int phaseLeft_;
  bool transposePhase_ = false;
  double gapMeanInstrs_;
};

/// canneal: random element selection followed by a short burst of adjacent
/// lines (the element's struct fields) — random at row granularity but with
/// high intra-burst spatial locality (§VI-C: higher spatial locality than
/// the spec-high average, so open-page wins).
class CannealSource final : public TraceSource {
 public:
  CannealSource(const MtParams& params, ThreadId thread);
  Record next() override;

  void save(ckpt::Writer& w) const override {
    saveRng(w, rng_);
    w.u64(burstBase_);
    w.i32(burstLeft_);
    w.b(burstWrite_);
  }
  void load(ckpt::Reader& r) override {
    loadRng(r, rng_);
    burstBase_ = r.u64();
    burstLeft_ = r.i32();
    burstWrite_ = r.b();
  }

 private:
  Rng rng_;
  std::uint64_t spanLines_;
  std::uint64_t burstBase_ = 0;
  int burstLeft_ = 0;
  bool burstWrite_ = false;
  double gapMeanInstrs_;
};

/// TPC-C/H: database threads running concurrent table scans (streams) mixed
/// with random index probes; TPC-H is scan-heavy with more concurrent
/// streams per thread, TPC-C is probe-heavy with more random traffic.
class TpcSource final : public TraceSource {
 public:
  TpcSource(const MtParams& params, ThreadId thread);
  Record next() override;

  void save(ckpt::Writer& w) const override {
    saveRng(w, rng_);
    saveCursorVec(w, scanCursors_);
    w.i32(nextScan_);
  }
  void load(ckpt::Reader& r) override {
    loadRng(r, rng_);
    loadCursorVec(r, scanCursors_);
    nextScan_ = r.i32();
    if (nextScan_ < 0 || static_cast<std::size_t>(nextScan_) >= scanCursors_.size())
      r.fail();  // indexes the cursors
  }

 private:
  Rng rng_;
  std::uint64_t spanLines_;
  std::vector<std::uint64_t> scanCursors_;
  double scanFrac_;
  double writeFrac_;
  double gapMeanInstrs_;
  int nextScan_ = 0;
};

std::unique_ptr<TraceSource> makeMtSource(const MtParams& params, ThreadId thread);

}  // namespace mb::trace
