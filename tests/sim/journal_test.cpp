// RunResult JSON codec tests: exact round-trips (doubles bitwise, via
// %.17g/strtod) — the property cache resume depends on, since a sweep
// re-run over a warm `--cache-dir` prints its table from decoded entries.
#include "sim/journal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace mb::sim {
namespace {

RunResult awkwardResult() {
  RunResult r;
  r.workload = "odd \"quoted\" workload\\path";
  r.systemIpc = 1.0 / 3.0;       // not exactly representable in decimal
  r.elapsed = 123456789012345;
  r.instructions = 40000;
  r.energy.processor = 1e-300;   // subnormal territory round-trips too
  r.energy.dramActPre = -0.0;    // sign of zero survives
  r.energy.dramStatic = 6.02214076e23;
  r.energy.dramRdWr = 0.1;
  r.energy.io = 2.5;
  r.invEdp = 9.869604401089358e-13;
  r.rowHitRate = 0.30000000000000004;
  r.mapki = 17.5;
  r.dramReads = 1;
  r.dramWrites = 0;
  r.activations = 3;
  r.hierarchy.accesses = 123;
  r.hierarchy.prefetchUseful = 7;
  r.coreIpc = {1.0 / 7.0, 0.25, 1e-9};
  return r;
}

// runResultToJson prints every double with %.17g, which is injective on
// finite doubles — so equal JSON means bitwise-equal results and vice versa.
TEST(RunResultJson, AwkwardResultRoundTripsBitwise) {
  const RunResult original = awkwardResult();
  const std::string json = runResultToJson(original);
  RunResult back;
  ASSERT_TRUE(runResultFromJson(json, &back)) << json;
  EXPECT_EQ(runResultToJson(back), json);
  EXPECT_EQ(back.workload, original.workload);
  EXPECT_EQ(back.systemIpc, original.systemIpc);
  EXPECT_EQ(back.elapsed, original.elapsed);
  EXPECT_TRUE(std::signbit(back.energy.dramActPre));
  EXPECT_EQ(back.coreIpc, original.coreIpc);
}

TEST(RunResultJson, RejectsIncompleteOrForeignInput) {
  RunResult r;
  EXPECT_FALSE(runResultFromJson("", &r));
  EXPECT_FALSE(runResultFromJson("not json", &r));
  EXPECT_FALSE(runResultFromJson("[1,2,3]", &r));
  EXPECT_FALSE(runResultFromJson("{\"workload\":\"429.mcf\"}", &r));
  // A truncated entry (torn write) must not decode as a partial result.
  const std::string json = runResultToJson(awkwardResult());
  EXPECT_FALSE(runResultFromJson(json.substr(0, json.size() / 2), &r));
}

}  // namespace
}  // namespace mb::sim
