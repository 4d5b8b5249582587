// Binary serialization primitives for the MBCKPT1 checkpoint format.
//
// The Serializable protocol: every stateful component implements
//
//   void save(ckpt::Writer& w) const;   // append state, little-endian
//   void load(ckpt::Reader& r);         // restore it; never trust the bytes
//
// (virtual on polymorphic bases — TraceSource, Scheduler, PagePolicy — so a
// snapshot section can be driven through the interface the simulator holds).
// Structural parameters that come from the constructor (geometry, sizes,
// timing) are NOT serialized: a snapshot is only loadable into a system
// built from the identical SystemConfig, which the container enforces with
// a config hash (snapshot.hpp). save/load therefore cover exactly the
// mutable state, and a malformed payload must surface as `!r.ok()` rather
// than undefined behaviour: Reader is bounds-checked, returns zeros after
// the first failure, and load() implementations call r.fail() on any
// structural mismatch (wrong counts, out-of-range enums) instead of
// asserting, so the snapshot reader can reject a corrupt section with a
// stable diagnostic while the process keeps running.
//
// Everything here is header-only and intentionally free of link-time
// dependencies so that low-level libraries (common, dram, mc, cpu, trace)
// can implement the protocol without depending on the mb_ckpt library,
// which owns only the container format.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mb::ckpt {

/// The little-endian T stored at `p`: one load on a little-endian host, a
/// byte loop on a big-endian one. `p` need not be aligned.
template <typename T>
T loadLe(const void* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(b[i]) << (8 * i);
  }
  return v;
}

/// a(x)·b(x) mod P(x) for the CRC-32 polynomial P, both operands in the
/// reflected bit order the CRC register uses (bit 31 is x^0). `a` must be
/// nonzero; every power of x mod P is.
constexpr std::uint32_t crc32MulModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return p;
}

/// x^(8·2^j) mod P for j = 0..63: what appending 2^j zero bytes multiplies
/// a CRC register by.
inline constexpr auto kCrc32ZeroBytePowers = [] {
  std::array<std::uint32_t, 64> t{};
  t[0] = 1u << 23;  // x^8
  for (std::size_t j = 1; j < t.size(); ++j) t[j] = crc32MulModP(t[j - 1], t[j - 1]);
  return t;
}();

/// x^(8n) mod P: what appending n zero bytes multiplies a CRC register by.
constexpr std::uint32_t crc32X8nModP(std::uint64_t n) {
  std::uint32_t p = 1u << 31;  // x^0
  for (std::size_t j = 0; n != 0; n >>= 1, ++j)
    if (n & 1u) p = crc32MulModP(kCrc32ZeroBytePowers[j], p);
  return p;
}

/// crc32(A‖B) from crc32(A), crc32(B) and |B| alone, without reading the
/// bytes again (zlib's crc32_combine): shift crc(A) past |B| zero bytes and
/// add crc(B). MBCKPT1 builds its file CRC this way from each section's.
constexpr std::uint32_t crc32Combine(std::uint32_t crcA, std::uint32_t crcB,
                                     std::uint64_t lenB) {
  return crc32MulModP(crc32X8nModP(lenB), crcA) ^ crcB;
}

/// Buffers this long or longer are checksummed as four interleaved chains.
inline constexpr std::size_t kCrc32InterleaveBytes = 4096;

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the checksum
/// MBCKPT1 uses per section and for the file trailer. Slicing-by-8: eight
/// 256-entry tables (built once on first use) fold eight input bytes per
/// step, where t[k][b] is the CRC of byte b followed by k zero bytes. One
/// chain waits on its own table lookups, so a buffer of
/// kCrc32InterleaveBytes or more is cut into four blocks whose chains run
/// side by side and are joined with crc32MulModP. It is on the restore
/// path: decodeSnapshot reads each byte of a 15 MB warm-up snapshot once.
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  static const auto tables = [] {
    struct Tables {
      std::uint32_t t[8][256];
    } s{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      s.t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i)
        s.t[k][i] = (s.t[k - 1][i] >> 8) ^ s.t[0][s.t[k - 1][i] & 0xFFu];
    return s;
  }();
  const auto& t = tables.t;
  // The upper four bytes index their tables directly: splitting them out
  // of one 8-byte load measured slower on one chain (2.2 against 2.9 GB/s,
  // x86-64 Xeon, gcc 12.2 -O2).
  const auto step = [&t](std::uint32_t c, const unsigned char* q) {
    const std::uint32_t lo = c ^ loadLe<std::uint32_t>(q);
    return t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
           t[4][lo >> 24] ^ t[3][q[4]] ^ t[2][q[5]] ^ t[1][q[6]] ^ t[0][q[7]];
  };
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  if (len >= kCrc32InterleaveBytes) {
    // Chains 1..3 start from a zero register, so each block's register is
    // the previous one's shifted past `block` bytes, plus its own chain.
    const std::size_t block = len / 32 * 8;
    std::uint32_t c1 = 0, c2 = 0, c3 = 0;
    for (std::size_t i = 0; i < block; i += 8) {
      c = step(c, p + i);
      c1 = step(c1, p + block + i);
      c2 = step(c2, p + 2 * block + i);
      c3 = step(c3, p + 3 * block + i);
    }
    const std::uint32_t shift = crc32X8nModP(block);
    c = crc32MulModP(shift, c) ^ c1;
    c = crc32MulModP(shift, c) ^ c2;
    c = crc32MulModP(shift, c) ^ c3;
    p += 4 * block;
    len -= 4 * block;
  }
  for (; len >= 8; p += 8, len -= 8) c = step(c, p);
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

/// FNV-1a over a byte string; used for the config / warmup-key hashes the
/// snapshot header carries. 64-bit so accidental collisions across the
/// config space are not a practical concern.
inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { putLe(v); }
  void u64(std::uint64_t v) { putLe(v); }
  void i32(std::int32_t v) { putLe(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { putLe(static_cast<std::uint64_t>(v)); }
  /// Doubles travel as their exact bit pattern — restore is bitwise.
  void f64(double v) { putLe(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  const std::string& str() const { return buf_; }
  std::string take() { return std::move(buf_); }
  /// Make room for `n` bytes in all, so appends up to that size never move
  /// the buffer.
  void reserve(std::size_t n) { buf_.reserve(n); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void putLe(T v) {
    char le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      le[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    buf_.append(le, sizeof(T));  // one append per field, not per byte
  }
  std::string buf_;
};

/// Bounds-checked little-endian decoder. After any underflow or explicit
/// fail(), every further read returns zero and ok() is false; callers check
/// `r.ok() && r.atEnd()` once at the end of a section instead of sprinkling
/// error handling through every load().
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() { return getLe<std::uint32_t>(); }
  std::uint64_t u64() { return getLe<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(getLe<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(getLe<std::uint64_t>()); }
  double f64() { return std::bit_cast<double>(getLe<std::uint64_t>()); }
  std::string str() { return std::string(view(u32())); }
  /// The next `n` bytes as one slice of the input, without copying; an
  /// empty view (and !ok()) when fewer than `n` remain.
  std::string_view view(std::size_t n) {
    if (!need(n)) return {};
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  /// Element count for a container about to be decoded. `elemBytes` is a
  /// lower bound on the encoded size of one element; a count that cannot
  /// possibly fit in the remaining bytes fails immediately instead of
  /// letting a hostile length trigger a giant allocation.
  std::uint64_t count(std::size_t elemBytes) {
    const std::uint64_t n = u64();
    if (elemBytes > 0 && n > remaining() / elemBytes) {
      fail();
      return 0;
    }
    return n;
  }

  /// Mark the payload structurally invalid (bad enum, mismatched size...).
  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  bool atEnd() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool need(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T getLe() {
    if (!need(sizeof(T))) return 0;
    const T v = loadLe<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Serialize an (unordered_)map with integral keys sorted by key, so the
/// snapshot bytes never depend on hash-table iteration order. `saveValue`
/// receives each mapped value; the count is written first as u64 and each
/// key as i64.
template <typename Map, typename SaveValue>
void saveMapSorted(Writer& w, const Map& m, SaveValue&& saveValue) {
  using Entry = std::pair<typename Map::key_type, const typename Map::mapped_type*>;
  std::vector<Entry> entries;
  entries.reserve(m.size());
  for (const auto& [k, v] : m) entries.emplace_back(k, &v);
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  w.u64(entries.size());
  for (const auto& [k, v] : entries) {
    w.i64(static_cast<std::int64_t>(k));
    saveValue(*v);
  }
}

}  // namespace mb::ckpt
