// mbperf report plumbing: the MBPERF1 JSON writer must stay valid JSON for
// arbitrarily long (and escape-needing) preset names — the old writer built
// each record in a 256-byte snprintf buffer and ignored truncation, so a
// long name silently dropped the record tail including its closing braces —
// and bench/perf_baseline.txt must list exactly the shipped presets, so a
// preset added (or renamed) without a baseline refresh fails here instead of
// silently reporting NEW/stale rows in every CI perf diff.
#include "bench/perf_report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/json_mini.hpp"
#include "sim/experiment.hpp"

namespace mb::bench {
namespace {

// Minimal structural JSON validator: verifies balanced braces/brackets and
// terminated strings (escape-aware). Enough to catch the truncation failure
// mode — a record cut mid-string or mid-object — without a JSON library.
bool structurallyValidJson(const std::string& s) {
  int depth = 0;
  bool inString = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (inString) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') inString = false;
      continue;
    }
    if (c == '"') inString = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !inString;
}

PresetPerf samplePerf(std::string name) {
  PresetPerf p;
  p.preset = std::move(name);
  p.wallSeconds = 0.125;
  p.events = 4500;
  p.eventsPerSec = 36000.0;
  p.simulatedCyclesPerSec = 1.5e6;
  p.peakRssKiB = 2048;
  return p;
}

TEST(PerfReportTest, LongPresetNameStaysValidJson) {
  // Far beyond the old 256-byte record buffer.
  const std::string longName(500, 'x');
  const std::string json =
      perfJson({samplePerf(longName), samplePerf("short")},
               {"429.mcf", 10000, 3}, 81920);
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  // The full name survives untruncated and both records are present.
  EXPECT_NE(json.find(longName), std::string::npos);
  EXPECT_NE(json.find("\"short\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
}

TEST(PerfReportTest, EscapesQuotesAndBackslashes) {
  const std::string json = perfJson({samplePerf("we\"ird\\name")},
                                    {"worklo\"ad", 1, 1}, 0);
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(PerfReportTest, ControlAndNonAsciiNamesStayValidJson) {
  // JSON forbids raw control bytes inside strings. The writer escapes them,
  // and every non-ASCII sequence, as \uXXXX: the record is printable ASCII
  // and each name decodes back exactly.
  const std::string name = "odd\npreset\x01\xce\xbc";
  const std::string json = perfJson({samplePerf(name)}, {"work\tload", 1, 1}, 0);
  ASSERT_FALSE(json.empty());
  for (std::size_t i = 0; i + 1 < json.size(); ++i) {  // the record ends in '\n'
    const auto c = static_cast<unsigned char>(json[i]);
    EXPECT_TRUE(c >= 0x20 && c < 0x7f) << "raw byte " << int{c} << " at " << i;
  }
  json::JVal v;
  ASSERT_TRUE(json::JParser(json).parse(&v)) << json;
  const json::JVal* presets = v.get("presets");
  ASSERT_TRUE(presets != nullptr && presets->t == json::JVal::T::Arr);
  ASSERT_EQ(presets->arr.size(), 1u);
  const json::JVal* preset = presets->arr[0].get("preset");
  ASSERT_TRUE(preset != nullptr);
  EXPECT_EQ(preset->s, name);
  const json::JVal* workload = v.get("workload");
  ASSERT_TRUE(workload != nullptr);
  EXPECT_EQ(workload->s, "work\tload");
}

TEST(PerfReportTest, RecordShapeCarriesAllFields) {
  const std::string json =
      perfJson({samplePerf("p")}, {"429.mcf", 10000, 3}, 81920);
  for (const char* key :
       {"\"format\":\"MBPERF1\"", "\"workload\":\"429.mcf\"",
        "\"instrs\":10000", "\"repeat\":3", "\"preset\":\"p\"",
        "\"wallSeconds\":", "\"events\":4500", "\"eventsPerSec\":",
        "\"simulatedCyclesPerSec\":", "\"peakRssKiB\":2048",
        "\"totals\":", "\"peakRssKiB\":81920"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing:\n" << json;
  }
}

TEST(PerfReportTest, ServeBlockCarriesAllFieldsAndDerivedRatios) {
  ServePerf s;
  s.coldSeconds = 0.5;
  s.cachedSeconds = 0.001;
  s.lruHits = 3;
  s.lruMisses = 1;
  const std::string json =
      perfJson({samplePerf("p")}, {"429.mcf", 10000, 3}, 81920, &s);
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  for (const char* key :
       {"\"serve\":{", "\"coldSeconds\":0.5", "\"cachedSeconds\":0.001",
        "\"speedup\":500", "\"lruHits\":3", "\"lruMisses\":1",
        "\"lruHitRate\":0.75"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing:\n" << json;
  }
  // The serve block augments the record; the totals block still closes it.
  EXPECT_NE(json.find("\"totals\":"), std::string::npos);
}

TEST(PerfReportTest, ShardBlockCarriesAllFieldsAndDerivedRatios) {
  ShardPerf sh;
  sh.shards = 4;
  sh.channels = 16;
  sh.hardwareThreads = 8;
  sh.serialSeconds = 2.0;
  sh.shardedSeconds = 0.5;
  sh.events = 1000000;
  const std::string json = perfJson({samplePerf("p")}, {"429.mcf", 10000, 3},
                                    81920, nullptr, &sh);
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  for (const char* key :
       {"\"shard\":{", "\"shards\":4", "\"channels\":16",
        "\"hardwareThreads\":8", "\"serialSeconds\":2", "\"shardedSeconds\":0.5",
        "\"speedup\":4", "\"events\":1000000", "\"serialEventsPerSec\":500000",
        "\"shardedEventsPerSec\":2e+06"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing:\n" << json;
  }
  EXPECT_NE(json.find("\"totals\":"), std::string::npos);
}

TEST(PerfReportTest, ShardBlockZeroDenominatorsStayFinite) {
  const ShardPerf zero;  // unmeasured: every derived rate must render as 0
  const std::string json = perfJson({samplePerf("p")}, {"429.mcf", 10000, 3},
                                    0, nullptr, &zero);
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"speedup\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serialEventsPerSec\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shardedEventsPerSec\":0"), std::string::npos) << json;
}

TEST(PerfReportTest, ServeAndShardBlocksCompose) {
  ServePerf s;
  s.coldSeconds = 0.5;
  s.cachedSeconds = 0.001;
  ShardPerf sh;
  sh.shards = 2;
  sh.serialSeconds = 1.0;
  sh.shardedSeconds = 1.0;
  const std::string json =
      perfJson({samplePerf("p")}, {"429.mcf", 10000, 3}, 81920, &s, &sh);
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"serve\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"totals\":"), std::string::npos) << json;
}

TEST(PerfReportTest, ShardBlockAbsentByDefault) {
  const std::string json =
      perfJson({samplePerf("p")}, {"429.mcf", 10000, 3}, 81920);
  EXPECT_EQ(json.find("\"shard\""), std::string::npos) << json;
}

TEST(PerfReportTest, ServeBlockAbsentByDefault) {
  // Consumers of serve-less records (every pre-existing BENCH_PERF.json
  // reader) must see the exact old shape.
  const std::string json =
      perfJson({samplePerf("p")}, {"429.mcf", 10000, 3}, 81920);
  EXPECT_EQ(json.find("\"serve\""), std::string::npos) << json;
  EXPECT_TRUE(structurallyValidJson(json)) << json;
}

TEST(PerfReportTest, ServeBlockZeroDenominatorsStayFinite) {
  const ServePerf zero;  // no samples: speedup and hit rate must render as 0
  const std::string json =
      perfJson({samplePerf("p")}, {"429.mcf", 10000, 3}, 0, &zero);
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"speedup\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lruHitRate\":0"), std::string::npos) << json;
}

TEST(PerfReportTest, PeakRssHelperReturnsPlausibleKiB) {
  const long kib = currentPeakRssKiB();
  // A running gtest process occupies at least 1 MiB and (sanity ceiling)
  // under 64 GiB; a unit mix-up (bytes as KiB) would blow past the ceiling.
  EXPECT_GT(kib, 1024);
  EXPECT_LT(kib, 64L * 1024 * 1024);
}

TEST(PerfReportTest, BaselineParserSkipsCommentsAndBlanks) {
  std::istringstream in(
      "# comment\n\npreset-a 123.5\npreset-b 4.5e+05\nmalformed\n");
  const auto base = readBaseline(in);
  ASSERT_EQ(base.size(), 2u);
  EXPECT_DOUBLE_EQ(base.at("preset-a"), 123.5);
  EXPECT_DOUBLE_EQ(base.at("preset-b"), 4.5e5);
}

// bench/perf_baseline.txt ↔ sim::shippedPresets() cross-check (the CMake
// target compiles MB_BASELINE_FILE to the checked-in path).
TEST(PerfBaselineTest, BaselineListsExactlyTheShippedPresets) {
  std::ifstream in(MB_BASELINE_FILE);
  ASSERT_TRUE(in.good()) << "cannot open " << MB_BASELINE_FILE;
  const auto base = readBaseline(in);
  std::set<std::string> baseline;
  for (const auto& [name, eps] : base) {
    baseline.insert(name);
    EXPECT_GT(eps, 0.0) << name << " has a non-positive baseline";
  }
  std::set<std::string> shipped;
  for (const auto& preset : sim::shippedPresets()) shipped.insert(preset.name);
  EXPECT_EQ(baseline, shipped)
      << "bench/perf_baseline.txt is out of sync with the shipped preset "
         "table; regenerate with mbperf --update-baseline=bench/perf_baseline.txt";
}

}  // namespace
}  // namespace mb::bench
