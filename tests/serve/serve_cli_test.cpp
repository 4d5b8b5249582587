// End-to-end protocol test of the mbserve binary over the stdio transport:
// a full session (submit → accepted/progress/point/done) driven through a
// pipe, the cold-vs-cached byte-identity invariant across two daemon
// lifetimes sharing one cache dir, journal crash-resume bookkeeping, and
// the malformed-spec rejections surfacing as MB-SRV error events.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

std::string shellQuote(const std::string& s) { return "'" + s + "'"; }

/// Run the mbserve binary in --stdio mode, feeding `lines`; returns stdout.
/// The input file name folds in the pid and a counter: ctest runs each test
/// case of this binary as its own parallel process, so a shared path would
/// let one test's session read another's spec lines.
std::string runStdioSession(const std::vector<std::string>& lines,
                            const std::string& cacheDir,
                            const std::string& journal) {
  static int session = 0;
  const std::string input = ::testing::TempDir() + "mbserve_cli_in." +
                            std::to_string(getpid()) + "." +
                            std::to_string(++session) + ".jsonl";
  {
    std::ofstream out(input, std::ios::trunc);
    for (const auto& line : lines) out << line << "\n";
  }
  std::string cmd = std::string(MB_MBSERVE_BIN) + " --stdio --cache-dir=" +
                    shellQuote(cacheDir);
  if (!journal.empty()) cmd += " --journal=" + shellQuote(journal);
  cmd += " < " + shellQuote(input) + " 2>/dev/null";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  EXPECT_EQ(status, 0) << output;
  return output;
}

/// The lines of `text` that contain `needle`.
std::vector<std::string> linesWith(const std::string& text,
                                   const std::string& needle) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(start, nl - start);
    if (line.find(needle) != std::string::npos) out.push_back(line);
    start = nl + 1;
  }
  return out;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string freshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "mbserve_cli_" + tag;
  std::system(("rm -rf " + shellQuote(dir)).c_str());
  return dir;
}

const char* kSubmit =
    "{\"verb\":\"submit\",\"id\":\"j1\",\"workload\":\"429.mcf\","
    "\"instrs\":8000,\"seed\":11}";

TEST(ServeCli, ColdThenCachedSessionsAreByteIdentical) {
  const std::string cache = freshDir("identity");
  const std::string out1 = runStdioSession({kSubmit}, cache, "");
  const std::string out2 = runStdioSession({kSubmit}, cache, "");

  const auto points1 = linesWith(out1, "\"event\":\"point\"");
  const auto points2 = linesWith(out2, "\"event\":\"point\"");
  ASSERT_EQ(points1.size(), 1u) << out1;
  ASSERT_EQ(points2.size(), 1u) << out2;
  EXPECT_NE(points1[0].find("\"cached\":false"), std::string::npos);
  EXPECT_NE(points2[0].find("\"cached\":true"), std::string::npos);

  // Byte identity of the served report: strip only the cached marker.
  auto normalize = [](std::string line) {
    const std::string hot = "\"cached\":true", cold = "\"cached\":false";
    std::size_t at = line.find(hot);
    if (at != std::string::npos) line.replace(at, hot.size(), cold);
    return line;
  };
  EXPECT_EQ(normalize(points1[0]), normalize(points2[0]));

  ASSERT_EQ(linesWith(out2, "\"event\":\"done\"").size(), 1u);
  EXPECT_NE(out2.find("\"cached\":1,\"simulated\":0"), std::string::npos) << out2;
}

TEST(ServeCli, JournalRecordsAcceptAndCompletion) {
  const std::string cache = freshDir("journal");
  const std::string journal = cache + ".journal.jsonl";
  std::remove(journal.c_str());
  runStdioSession({kSubmit}, cache, journal);

  std::ifstream in(journal);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_NE(line.find("\"mbserve\":1"), std::string::npos) << line;
  std::getline(in, line);
  EXPECT_NE(line.find("\"accepted\":\"j1\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"spec\":"), std::string::npos) << line;
  std::getline(in, line);
  EXPECT_NE(line.find("\"completed\":\"j1\""), std::string::npos) << line;

  // A journal whose job completed has nothing to resume: a second daemon
  // over the same journal accepts new work with no replays, and neither
  // re-closes the finished job nor writes anything else.
  const std::string before = readFile(journal);
  const std::string out = runStdioSession({"{\"verb\":\"status\"}"}, cache, journal);
  EXPECT_NE(out.find("\"event\":\"status\""), std::string::npos);
  EXPECT_NE(out.find("\"queued\":0,\"running\":0"), std::string::npos) << out;
  EXPECT_EQ(readFile(journal), before);
}

// A warm-up capture that fails (here: a trace file that does not exist) is
// one failed point, not a daemon abort: both jobs finish, and the failed
// one is journaled closed so a restart does not resume it.
TEST(ServeCli, FailedWarmupCaptureFailsOnlyItsJob) {
  const std::string cache = freshDir("warmup_fail");
  const std::string journal = cache + ".journal.jsonl";
  std::remove(journal.c_str());
  const std::string out = runStdioSession(
      {"{\"verb\":\"submit\",\"id\":\"w\",\"workload\":\"trace:/missing\","
       "\"warmup\":100}",
       kSubmit},
      cache, journal);
  ASSERT_EQ(linesWith(out, "\"event\":\"done\"").size(), 2u) << out;
  EXPECT_EQ(linesWith(out, "\"event\":\"done\",\"id\":\"w\",\"ok\":false").size(), 1u)
      << out;
  EXPECT_EQ(linesWith(out, "\"event\":\"done\",\"id\":\"j1\",\"ok\":true").size(), 1u)
      << out;
  EXPECT_NE(out.find("MB-TRC-001"), std::string::npos) << out;
  EXPECT_NE(readFile(journal).find("{\"completed\":\"w\"}"), std::string::npos);
}

TEST(ServeCli, ResumesUnfinishedJournaledJob) {
  const std::string cache = freshDir("resume");
  const std::string journal = cache + ".journal.jsonl";
  // Forge the crash state directly: header + accepted line, no terminal —
  // exactly what a SIGKILLed daemon leaves behind (the live-kill version of
  // this scenario runs in the ci.sh mbserve stage).
  std::system(("mkdir -p " + shellQuote(cache)).c_str());
  {
    std::ofstream out(journal, std::ios::trunc);
    out << "{\"mbserve\":1,\"tool\":\"test\"}\n";
    out << "{\"accepted\":\"crashed\",\"spec\":\"{\\\"verb\\\":\\\"submit\\\","
           "\\\"id\\\":\\\"crashed\\\",\\\"workload\\\":\\\"429.mcf\\\","
           "\\\"instrs\\\":8000,\\\"seed\\\":11}\"}\n";
    out << "{\"accepted\":\"torn";  // torn trailing line: must be skipped
  }
  // No submit from the client: the daemon's only work is the resumed job,
  // and stdin EOF makes it drain that job before exiting.
  const std::string out = runStdioSession({"{\"verb\":\"status\"}"}, cache, journal);
  (void)out;

  // The resumed job must have completed and journaled its terminal line.
  const std::string text = readFile(journal);
  EXPECT_NE(text.find("\"completed\":\"crashed\""), std::string::npos) << text;

  // And its points are now memoized: resubmitting simulates nothing.
  const std::string again = runStdioSession(
      {"{\"verb\":\"submit\",\"id\":\"again\",\"workload\":\"429.mcf\","
       "\"instrs\":8000,\"seed\":11}"},
      cache, "");
  EXPECT_NE(again.find("\"cached\":1,\"simulated\":0"), std::string::npos) << again;
}

TEST(ServeCli, MalformedSpecsGetStructuredErrors) {
  const std::string cache = freshDir("errors");
  const std::string out = runStdioSession(
      {
          "{\"verb\":\"submit\",",                        // torn JSON
          "{\"verb\":\"status\",\"verb\":\"status\"}",    // duplicate key
          "{\"verb\":\"frobnicate\"}",                    // unknown verb
          "{\"verb\":\"submit\",\"id\":\"j\",\"workload\":42}",  // wrong type
          "{\"verb\":\"submit\",\"id\":\"j\",\"workload\":\"no-such\"}",
          "{\"verb\":\"cancel\",\"id\":\"ghost\"}",       // unknown job id
      },
      cache, "");
  EXPECT_NE(out.find("MB-SRV-001"), std::string::npos) << out;
  EXPECT_NE(out.find("MB-SRV-002"), std::string::npos) << out;
  EXPECT_NE(out.find("MB-SRV-004"), std::string::npos) << out;
  EXPECT_NE(out.find("MB-SRV-005"), std::string::npos) << out;
  EXPECT_NE(out.find("MB-SRV-006"), std::string::npos) << out;
  EXPECT_NE(out.find("MB-SRV-008"), std::string::npos) << out;
  // Rejections never kill the session: the daemon exits 0 after EOF
  // (asserted inside runStdioSession) with no accepted jobs.
  EXPECT_EQ(linesWith(out, "\"event\":\"accepted\"").size(), 0u);
}

TEST(ServeCli, FlushCacheEmptiesTheStore) {
  const std::string cache = freshDir("flush");
  runStdioSession({kSubmit}, cache, "");
  const std::string out = runStdioSession(
      {"{\"verb\":\"flush-cache\"}", kSubmit}, cache, "");
  EXPECT_NE(out.find("\"event\":\"flushed\",\"removed\":1"), std::string::npos)
      << out;
  // After the flush the same submit is a cold run again.
  EXPECT_NE(out.find("\"cached\":0,\"simulated\":1"), std::string::npos) << out;
}

}  // namespace
