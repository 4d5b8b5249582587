// MBCKPT1 container tests: serialization primitives, the snapshot frame,
// and the malformed-input matrix — every corruption mode must be rejected
// with its registered MB-CKP code (DESIGN.md §"Checkpoint & snapshot
// reuse"), and no byte flip anywhere in a valid snapshot may slip through.
#include "ckpt/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "ckpt/serialize.hpp"

namespace mb::ckpt {
namespace {

TEST(Serialize, WriterReaderRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.b(true);
  w.b(false);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-12345);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(1.0 / 3.0);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str("hello");
  w.str("");

  Reader r(w.str());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  // Doubles must round-trip bitwise, not just approximately.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(1.0 / 3.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, ReaderUnderflowIsSticky) {
  Writer w;
  w.u32(7);
  Reader r(w.str());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end: zero, not UB
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.atEnd());
  EXPECT_EQ(r.u8(), 0u);  // every further read keeps returning zero
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, ReaderStringUnderflow) {
  Writer w;
  w.u32(100);  // claims a 100-byte string with no payload behind it
  Reader r(w.str());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, CountGuardRejectsHostileLength) {
  Writer w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  Reader r(w.str());
  EXPECT_EQ(r.count(8), 0u);  // cannot possibly fit: fail, no allocation
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, Crc32KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

/// The bytewise table CRC-32 crc32() computed before it folded eight bytes
/// per step; its table comes from the bit-at-a-time definition. `seed`
/// continues an earlier CRC, as crc32's does.
std::uint32_t crc32Bytewise(const unsigned char* p, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pseudoRandomBytes(std::size_t n,
                                             std::uint64_t x = 0x9E3779B97F4A7C15ull) {
  std::vector<unsigned char> out(n);
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x >> 24);
  }
  return out;
}

// Slicing-by-8 folds eight bytes per step and finishes bytewise, so every
// length around the 8-byte step and every alignment of the start must agree
// with the bytewise CRC — and so must a CRC continued through `seed`.
TEST(Serialize, Crc32SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = pseudoRandomBytes(64 + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + off;
      const std::uint32_t want = crc32Bytewise(p, len);
      EXPECT_EQ(crc32(p, len), want) << "offset " << off << " length " << len;
      const std::size_t cut = len / 3;
      EXPECT_EQ(crc32(p + cut, len - cut, crc32(p, cut)), want)
          << "offset " << off << " length " << len << " split at " << cut;
    }
  }
}

TEST(Serialize, Crc32SlicedMatchesBytewiseOnASnapshotSizedBuffer) {
  const std::vector<unsigned char> buf = pseudoRandomBytes(15u << 20);  // 15 MiB
  EXPECT_EQ(crc32(buf.data(), buf.size()), crc32Bytewise(buf.data(), buf.size()));
}

// From kCrc32InterleaveBytes on, crc32 runs four chains over equal blocks
// rounded down to 8 bytes and finishes the rest on one chain: every length
// across the threshold, at every alignment of the start, must agree with
// the bytewise CRC.
TEST(Serialize, Crc32InterleavedMatchesBytewiseAcrossTheThreshold) {
  static_assert(kCrc32InterleaveBytes == 4096);
  const std::vector<unsigned char> buf = pseudoRandomBytes(4104 + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 4088; len <= 4104; ++len) {
      const unsigned char* p = buf.data() + off;
      EXPECT_EQ(crc32(p, len), crc32Bytewise(p, len)) << "offset " << off << " length " << len;
    }
  }
}

TEST(Serialize, Crc32InterleavedMatchesBytewiseAtRandomLengthsAndSeeds) {
  const std::vector<unsigned char> buf = pseudoRandomBytes(256u << 10);
  std::uint64_t x = 0xD1B54A32D192ED03ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 64; ++i) {
    const std::size_t len = next() % (buf.size() + 1);
    const std::size_t off = next() % (buf.size() - len + 1);
    const auto seed = static_cast<std::uint32_t>(next());
    const unsigned char* p = buf.data() + off;
    EXPECT_EQ(crc32(p, len, seed), crc32Bytewise(p, len, seed))
        << "offset " << off << " length " << len << " seed " << seed;
  }
}

// crc32Combine joins two CRCs without the bytes; the snapshot's file CRC is
// built from its framing and each section's CRC this way.
TEST(Serialize, Crc32CombineMatchesTheCrcOfTheConcatenation) {
  const std::vector<unsigned char> bytes = pseudoRandomBytes((1u << 20) + 3 + 100, 7);
  for (const std::size_t lenA : {std::size_t{0}, std::size_t{100}}) {
    for (const std::size_t lenB : {0u, 1u, 7u, 8u, 4095u, 4096u, (1u << 20) + 3}) {
      const unsigned char* a = bytes.data();
      const unsigned char* b = a + lenA;
      EXPECT_EQ(crc32Combine(crc32(a, lenA), crc32(b, lenB), lenB),
                crc32Bytewise(a, lenA + lenB))
          << "|A| " << lenA << " |B| " << lenB;
    }
  }
}

// The wire format is little-endian whatever the host: pin the bytes the
// Writer emits, and read the same fields back from an odd offset so no
// field load is aligned.
TEST(Serialize, LittleEndianWireLayoutIsPinnedByteByByte) {
  Writer w;
  w.u32(0x01020304u);
  w.u64(0x0102030405060708ull);
  w.i32(-2);
  w.i64(-0x0102030405060708ll);
  w.f64(1.0);
  const std::vector<unsigned char> want = {
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32 -2
      0xF8, 0xF8, 0xF9, 0xFA, 0xFB, 0xFC, 0xFD, 0xFE,  // i64, two's complement
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64 1.0
  };
  ASSERT_EQ(w.str().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(static_cast<unsigned char>(w.str()[i]), want[i]) << "byte " << i;

  const std::string shifted = "xyz" + w.str();
  Reader r(std::string_view(shifted).substr(3));
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.i32(), -2);
  EXPECT_EQ(r.i64(), -0x0102030405060708ll);
  EXPECT_EQ(r.f64(), 1.0);
  EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, ReaderViewIsOneBoundsCheckedSlice) {
  const std::string data = "abcdefgh";
  Reader r(data);
  EXPECT_EQ(r.view(3), "abc");
  EXPECT_EQ(r.view(0), "");
  EXPECT_EQ(r.view(5), "defgh");
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(r.view(1), "");  // past the end: empty, and the failure sticks
  EXPECT_FALSE(r.ok());

  Reader over(data);
  EXPECT_EQ(over.view(9), "");  // longer than the input: nothing consumed
  EXPECT_FALSE(over.ok());
}

TEST(Serialize, Fnv1a64IsStable) {
  // Pin the hash of the empty string: config/warmup hashes are persisted in
  // snapshot headers, so the function must never change across releases.
  EXPECT_EQ(fnv1a64(""), 1469598103934665603ull);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

TEST(Serialize, SaveMapSortedIsOrderIndependent) {
  std::map<std::int64_t, int> ordered{{3, 30}, {1, 10}, {2, 20}};
  std::unordered_map<std::int64_t, int> hashed(ordered.begin(), ordered.end());
  Writer a;
  saveMapSorted(a, ordered, [&](int v) { a.i32(v); });
  Writer b;
  saveMapSorted(b, hashed, [&](int v) { b.i32(v); });
  EXPECT_EQ(a.str(), b.str());

  Reader r(a.str());
  EXPECT_EQ(r.u64(), 3u);
  EXPECT_EQ(r.i64(), 1);
  EXPECT_EQ(r.i32(), 10);
  EXPECT_EQ(r.i64(), 2);
  EXPECT_EQ(r.i32(), 20);
  EXPECT_EQ(r.i64(), 3);
  EXPECT_EQ(r.i32(), 30);
  EXPECT_TRUE(r.atEnd());
}

Snapshot sampleSnapshot() {
  Snapshot snap;
  snap.kind = SnapshotKind::FullRun;
  snap.configHash = 0x1122334455667788ull;
  snap.warmupKey = 0;
  snap.now = 123456789;
  snap.geometry = {1, 1, 8, 4, 4};
  snap.tool = "microbank test";
  snap.workload = "429.mcf";
  snap.addSection("TRACE", "trace-bytes");
  snap.addSection("HIER", std::string(1000, '\x5A'));
  snap.addSection("MC0", "");
  return snap;
}

/// Decode and return the sole diagnostic code (or "" when decode succeeds).
std::string decodeCode(const std::string& data) {
  analysis::DiagnosticEngine diags;
  const auto snap = decodeSnapshot(data, diags, "test");
  if (snap.has_value()) return "";
  EXPECT_FALSE(diags.diagnostics().empty());
  return diags.diagnostics().back().code;
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const Snapshot snap = sampleSnapshot();
  const std::string data = snap.encode();

  analysis::DiagnosticEngine diags;
  const auto back = decodeSnapshot(data, diags);
  ASSERT_TRUE(back.has_value()) << diags.renderText();
  EXPECT_EQ(back->kind, snap.kind);
  EXPECT_EQ(back->configHash, snap.configHash);
  EXPECT_EQ(back->warmupKey, snap.warmupKey);
  EXPECT_EQ(back->now, snap.now);
  EXPECT_EQ(back->geometry, snap.geometry);
  EXPECT_EQ(back->tool, snap.tool);
  EXPECT_EQ(back->workload, snap.workload);
  ASSERT_EQ(back->sections.size(), 3u);
  ASSERT_NE(back->section("HIER"), nullptr);
  EXPECT_EQ(back->section("HIER")->payload, std::string(1000, '\x5A'));
  EXPECT_EQ(back->section("MISSING"), nullptr);
  // And the re-encode is byte-identical (canonical form).
  EXPECT_EQ(back->encode(), data);
}

TEST(Snapshot, EmptySnapshotRoundTrips) {
  Snapshot snap;
  snap.kind = SnapshotKind::Warmup;
  snap.warmupKey = 42;
  analysis::DiagnosticEngine diags;
  const auto back = decodeSnapshot(snap.encode(), diags);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, SnapshotKind::Warmup);
  EXPECT_EQ(back->warmupKey, 42u);
  EXPECT_TRUE(back->sections.empty());
}

TEST(Snapshot, RejectsShortFrame) {
  EXPECT_EQ(decodeCode(""), "MB-CKP-006");
  EXPECT_EQ(decodeCode("MBCKPT1"), "MB-CKP-006");  // below magic + trailer
}

TEST(Snapshot, RejectsBadMagic) {
  std::string data = sampleSnapshot().encode();
  data[0] = 'X';
  EXPECT_EQ(decodeCode(data), "MB-CKP-002");
}

TEST(Snapshot, RejectsUnsupportedVersion) {
  std::string data = sampleSnapshot().encode();
  data[8] = static_cast<char>(kSnapshotVersion + 1);  // version u32 LSB
  EXPECT_EQ(decodeCode(data), "MB-CKP-003");
}

TEST(Snapshot, RejectsUnknownKind) {
  std::string data = sampleSnapshot().encode();
  data[12] = 7;  // kind u32 LSB: neither Warmup nor FullRun
  EXPECT_EQ(decodeCode(data), "MB-CKP-005");
}

TEST(Snapshot, RejectsFlippedSectionPayloadByte) {
  const Snapshot snap = sampleSnapshot();
  std::string data = snap.encode();
  // Flip a byte well inside the 1000-byte HIER payload; the per-section
  // CRC fires before the file trailer is consulted.
  const auto pos = data.find(std::string(100, '\x5A'));
  ASSERT_NE(pos, std::string::npos);
  data[pos + 50] ^= 0x01;
  EXPECT_EQ(decodeCode(data), "MB-CKP-007");
}

TEST(Snapshot, RejectsEachFlippedSectionCrcIndividually) {
  // Corrupt each section's *stored CRC field* (not its payload) in turn:
  // the per-section integrity check must name the damaged section, for all
  // payload shapes — short, large, and empty.
  const std::string data = sampleSnapshot().encode();
  for (const std::string name : {"TRACE", "HIER", "MC0"}) {
    std::string mutated = data;
    const auto pos = mutated.find(name);
    ASSERT_NE(pos, std::string::npos) << name;
    // Section layout: name bytes (u32 length precedes `pos`), u64 payload
    // length, then the u32 payload CRC.
    const std::size_t crcOff = pos + name.size() + 8;
    ASSERT_LT(crcOff + 4, mutated.size()) << name;
    mutated[crcOff] ^= 0x01;
    analysis::DiagnosticEngine diags;
    EXPECT_FALSE(decodeSnapshot(mutated, diags, "crc-flip").has_value()) << name;
    ASSERT_FALSE(diags.diagnostics().empty()) << name;
    const analysis::Diagnostic& d = diags.diagnostics().back();
    EXPECT_EQ(d.code, "MB-CKP-007") << name;
    bool named = false;
    for (const auto& [k, v] : d.context)
      if (k == "section" && v == name) named = true;
    EXPECT_TRUE(named) << name << ": diagnostic must name the section";
  }
}

TEST(Snapshot, ReportsTruncationMidSection) {
  // Cut the frame inside the HIER payload: the reader must report the
  // truncated *section* by name (MB-CKP-006), not a generic CRC failure —
  // the 1000-byte payload length survives but its bytes do not.
  const std::string data = sampleSnapshot().encode();
  const auto pos = data.find(std::string(100, '\x5A'));
  ASSERT_NE(pos, std::string::npos);
  analysis::DiagnosticEngine diags;
  EXPECT_FALSE(decodeSnapshot(data.substr(0, pos + 100), diags, "cut").has_value());
  ASSERT_FALSE(diags.diagnostics().empty());
  const analysis::Diagnostic& d = diags.diagnostics().back();
  EXPECT_EQ(d.code, "MB-CKP-006");
  bool named = false;
  for (const auto& [k, v] : d.context)
    if (k == "section" && v == "HIER") named = true;
  EXPECT_TRUE(named);
}

TEST(Snapshot, RejectsFlippedHeaderByte) {
  std::string data = sampleSnapshot().encode();
  // Corrupt the tool string: sections still parse, so the file trailer is
  // the check that catches it.
  const auto pos = data.find("microbank test");
  ASSERT_NE(pos, std::string::npos);
  data[pos] ^= 0x01;
  EXPECT_EQ(decodeCode(data), "MB-CKP-008");
}

TEST(Snapshot, NamesTheDamagedSectionBeforeTheFileCrc) {
  // A header byte and a payload byte both flipped: the file trailer is
  // wrong too, but the section CRC is compared first and names HIER.
  std::string data = sampleSnapshot().encode();
  const auto tool = data.find("microbank test");
  const auto payload = data.find(std::string(100, '\x5A'));
  ASSERT_NE(tool, std::string::npos);
  ASSERT_NE(payload, std::string::npos);
  data[tool] ^= 0x01;
  data[payload + 50] ^= 0x01;
  analysis::DiagnosticEngine diags;
  EXPECT_FALSE(decodeSnapshot(data, diags, "two-flips").has_value());
  ASSERT_EQ(diags.diagnostics().size(), 1u);
  const analysis::Diagnostic& d = diags.diagnostics().back();
  EXPECT_EQ(d.code, "MB-CKP-007");
  bool named = false;
  for (const auto& [k, v] : d.context)
    if (k == "section" && v == "HIER") named = true;
  EXPECT_TRUE(named);
}

TEST(Snapshot, RejectsTruncation) {
  const std::string data = sampleSnapshot().encode();
  for (const std::size_t keep : {data.size() - 1, data.size() - 5,
                                 data.size() / 2, std::size_t{20}}) {
    const std::string code = decodeCode(data.substr(0, keep));
    EXPECT_FALSE(code.empty()) << "truncation to " << keep << " accepted";
  }
}

TEST(Snapshot, RejectsTrailingBytes) {
  // Inject bytes between the last section and the trailer, with the file
  // CRC recomputed so only the framing check can object.
  std::string body = sampleSnapshot().encode();
  body.resize(body.size() - 4);  // drop the old trailer
  body += "extra";
  Writer w;
  w.u32(crc32(body));
  EXPECT_EQ(decodeCode(body + w.str()), "MB-CKP-011");
}

TEST(Snapshot, EveryByteFlipIsRejected) {
  // Property: no single-byte corruption anywhere in the frame may decode.
  const std::string data = sampleSnapshot().encode();
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 0x01;
    analysis::DiagnosticEngine diags;
    EXPECT_FALSE(decodeSnapshot(mutated, diags, "flip").has_value())
        << "flip at byte " << i << " accepted";
  }
}

TEST(Snapshot, ReadFileReportsMissing) {
  analysis::DiagnosticEngine diags;
  EXPECT_FALSE(readSnapshotFile("/nonexistent/ckpt.mbk", diags).has_value());
  ASSERT_FALSE(diags.diagnostics().empty());
  EXPECT_EQ(diags.diagnostics().back().code, "MB-CKP-001");
}

TEST(Snapshot, WriteReadFileRoundTrip) {
  const Snapshot snap = sampleSnapshot();
  const std::string path = ::testing::TempDir() + "mb_snapshot_rt.mbk";
  analysis::DiagnosticEngine diags;
  ASSERT_TRUE(writeSnapshotFile(snap, path, diags)) << diags.renderText();
  const auto back = readSnapshotFile(path, diags);
  ASSERT_TRUE(back.has_value()) << diags.renderText();
  EXPECT_EQ(back->encode(), snap.encode());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mb::ckpt
