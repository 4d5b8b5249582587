// mbstatic fixture: no violation. load() reads raw u32/u64 values, but none
// of them sizes a loop or a container.
// Never compiled — parsed by mbstatic (ctest mbstatic_clean_fixture).
#include <cstdint>

namespace fx {

class UbankState {
 public:
  void save(ckpt::Writer& w) const {
    w.u32(openRow_);
    w.u64(lastActAt_);
    w.i64(hits_);
  }
  void load(ckpt::Reader& r) {
    openRow_ = r.u32();
    lastActAt_ = r.u64();
    hits_ = r.i64();
  }
  void touch(std::uint64_t now) {
    ++hits_;
    lastActAt_ = now;
    scratch_ = hits_;
  }

 private:
  std::uint32_t openRow_ = 0;
  std::uint64_t lastActAt_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t scratch_ = 0;
};

}  // namespace fx
