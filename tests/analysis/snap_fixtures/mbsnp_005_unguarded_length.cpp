// mbstatic fixture: MB-SNP-005 unguarded length-carrying read. load()
// sizes a loop from a raw r.u64() with no fail() validation — a corrupt
// snapshot drives an unbounded allocation loop.
// Never compiled — parsed by mbstatic (ctest mbstatic_reports_seeded_code).
#include <cstdint>
#include <vector>

namespace fx {

class SampleLog {
 public:
  void save(ckpt::Writer& w) const {
    w.u64(vals_.size());
    for (std::uint32_t v : vals_) w.u32(v);
  }
  void load(ckpt::Reader& r) {
    vals_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) vals_.push_back(r.u32());
  }

 private:
  std::vector<std::uint32_t> vals_;
};

}  // namespace fx
