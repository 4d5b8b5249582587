// mbstatic — the simulator's source-level static analyses, one subcommand
// per analysis. Like mblint for configs and mbaudit for traces, it exits 0
// only when the scanned sources are clean, so ctest and CI gate on it.
//
//   det   determinism & channel ownership (MB-DET-0xx, DESIGN.md §11):
//         hash-order iteration, pointer-valued keys, wall clocks and libc
//         randomness, hidden mutable statics, FP accumulation in hash
//         order, and undeclared channel-local -> cross-channel references.
//         A tree scan covers ROOT/{src,bench,tools}.
//   snap  snapshot completeness (MB-SNP-0xx, DESIGN.md §12): save/load
//         stream symmetry, section names, members mutated but never
//         serialized, unguarded wire lengths, and save streams that drift
//         from the fingerprint baseline ROOT/tools/snap_baseline.txt
//         without a kSnapshotVersion bump. A tree scan covers ROOT/src.
//
//   mbstatic det|snap                     scan the tree under .
//   mbstatic det|snap --root=DIR          scan the tree under DIR
//   mbstatic det|snap FILE...             scan explicit files
//   mbstatic det|snap --json              machine-readable output
//   mbstatic det|snap --self-test=DIR     run the seeded violation fixtures
//   mbstatic det --ownership              also print the ownership map
//   mbstatic snap --write-baseline=FILE   record the current fingerprints
//   mbstatic [det|snap] --version
//
// Exit status: 0 clean, 1 error findings or a failing self-test, 2 usage
// (missing or unknown subcommand, a flag the subcommand does not take, an
// unreadable file).
//
// Self-test protocol: a fixture named mbdet_NNN_*.cpp (mbsnp_NNN_*.cpp)
// passes when it yields at least one MB-DET-NNN (MB-SNP-NNN) finding and
// every error finding carries that code; NNN = 000 passes when it has no
// errors. Snap fixtures named *_004_* run against a synthesized stale
// baseline, so fingerprint drift is exercised hermetically.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/det_lint.hpp"
#include "analysis/snap_lint.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"

namespace {

using namespace mb;
using analysis::SourceFile;

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "mbstatic: %s\n(see the header of tools/mbstatic.cpp for usage)\n",
               msg.c_str());
  std::exit(2);
}

bool isError(analysis::Severity s) {
  return s == analysis::Severity::Error || s == analysis::Severity::Fatal;
}

/// What mbstatic needs to know about one analysis.
struct Analysis {
  bool det = false;
  const char* name;           // subcommand
  const char* fixturePrefix;  // self-test fixtures: PREFIX + NNN + '_'
  const char* codePrefix;     // registry codes: PREFIX + NNN
  std::vector<std::string> dirs;  // tree-scan roots
  /// Files a tree scan skips: ownership.hpp documents the annotation
  /// vocabulary and serialize.hpp implements the Writer/Reader primitives
  /// themselves; scanning them would only report their own text.
  std::vector<std::string> exclude;
};

/// One analysis run, in the shape the shared output renders.
struct Run {
  analysis::DiagnosticEngine engine;
  std::vector<analysis::Suppression> suppressions;
  std::string json;      // the analysis's own JSON fields, each ",\"key\":..."
  std::string text;      // printed between the findings and the summary
  std::string summary;   // appended to the summary line
  std::string baseline;  // snap: the fingerprint baseline to write
};

Run lint(const Analysis& a, const std::vector<SourceFile>& files, bool ownership,
         const analysis::SnapLintOptions& snapOpts) {
  Run run;
  if (a.det) {
    analysis::DetLinter linter(run.engine);
    linter.run(files);
    run.suppressions = linter.suppressions();
    if (ownership) {
      run.json = ",\"ownership\":" + linter.ownership().json();
      run.text = linter.ownership().text();
    }
    return run;
  }
  analysis::SnapLinter linter(run.engine, snapOpts);
  linter.run(files);
  run.suppressions = linter.suppressions();
  std::ostringstream os;
  os << ",\"pairs\":[";
  std::size_t listed = 0, complete = 0;
  for (const analysis::SnapPair& p : linter.pairs()) {
    if (p.hasSave && p.hasLoad) ++complete;
    if (!p.hasSave) continue;
    if (listed++) os << ',';
    os << "{\"key\":\"" << analysis::jsonEscape(p.key) << "\",\"fingerprint\":\""
       << analysis::hex16(p.fingerprint) << "\",\"stream\":\""
       << analysis::jsonEscape(p.saveStream) << "\"}";
  }
  os << "],\"snapshotVersion\":" << snapOpts.snapshotVersion;
  run.json = os.str();
  run.summary = ", " + std::to_string(complete) + " save/load pair(s)";
  run.baseline = linter.renderBaseline();
  return run;
}

/// Run the seeded violation corpus (protocol in the file header).
int runSelfTest(const Analysis& a, const std::string& dir) {
  namespace fs = std::filesystem;
  const std::string prefix = a.fixturePrefix;
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; it != end; it.increment(ec)) {
    if (ec) break;
    const std::string name = it->path().filename().string();
    if (name.size() > 10 && name.compare(0, prefix.size(), prefix) == 0 &&
        std::isdigit(static_cast<unsigned char>(name[6])) &&
        std::isdigit(static_cast<unsigned char>(name[7])) &&
        std::isdigit(static_cast<unsigned char>(name[8])) && name[9] == '_')
      names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  if (names.empty()) {
    std::fprintf(stderr, "mbstatic %s: no %sNNN_* fixtures in %s\n", a.name,
                 a.fixturePrefix, dir.c_str());
    return 1;
  }
  int failures = 0;
  for (const std::string& name : names) {
    const std::string nnn = name.substr(6, 3);
    const std::string expected = a.codePrefix + nnn;
    const bool expectClean = nnn == "000";
    SourceFile input{name, ""};
    if (!analysis::readFileToString((fs::path(dir) / name).string(), &input.contents)) {
      std::printf("FAIL %-40s (unreadable)\n", name.c_str());
      ++failures;
      continue;
    }
    analysis::SnapLintOptions opts;
    if (!a.det && name.find("_004_") != std::string::npos) {
      // Hermetic fingerprint-drift setup: the fixture declares its own
      // kSnapshotVersion; a stale baseline for its pair forces the drift.
      opts.snapshotVersion = analysis::parseSnapshotVersion(input.contents);
      opts.haveBaseline = true;
      opts.baselineContents = "version " + std::to_string(opts.snapshotVersion) +
                              "\nSnapDemo:: 0000000000000000\n";
    }
    const Run run = lint(a, {input}, false, opts);
    std::size_t hits = 0, errors = 0, foreign = 0;
    for (const analysis::Diagnostic& d : run.engine.diagnostics()) {
      if (d.code == expected) ++hits;
      if (!isError(d.severity)) continue;
      ++errors;
      if (d.code != expected) ++foreign;
    }
    const bool ok = expectClean ? errors == 0 : hits > 0 && foreign == 0;
    if (ok && expectClean) {
      std::printf("ok   %-40s (clean, %zu suppression(s))\n", name.c_str(),
                  run.suppressions.size());
    } else if (ok) {
      std::printf("ok   %-40s (%s x%zu)\n", name.c_str(), expected.c_str(), hits);
    } else {
      std::printf("FAIL %-40s expected %s, got:\n", name.c_str(),
                  expectClean ? "clean" : expected.c_str());
      for (const analysis::Diagnostic& d : run.engine.diagnostics())
        std::printf("       %s\n", d.text().c_str());
      if (run.engine.diagnostics().empty()) std::printf("       (no findings)\n");
      ++failures;
    }
  }
  std::printf("self-test: %zu fixture(s), %d failure(s)\n", names.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sub = argc > 1 ? argv[1] : "";
  if (sub == "--version") {
    std::fputs(versionBanner("mbstatic").c_str(), stdout);
    return 0;
  }
  if (sub != "det" && sub != "snap")
    usage(sub.empty() ? "missing subcommand: det or snap" : "unknown subcommand: " + sub);
  const Analysis a =
      sub == "det"
          ? Analysis{true, "det", "mbdet_", "MB-DET-", {"src", "bench", "tools"},
                     {"common/ownership.hpp"}}
          : Analysis{false, "snap", "mbsnp_", "MB-SNP-", {"src"},
                     {"common/ownership.hpp", "ckpt/serialize.hpp"}};

  std::string root, selfTestDir, writeBaselinePath;
  std::vector<std::string> explicitFiles;
  bool json = false, ownership = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--version") {
      std::fputs(versionBanner("mbstatic").c_str(), stdout);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (a.det && arg == "--ownership") {
      ownership = true;
    } else if (!a.det && matchFlag(arg, "write-baseline", &value)) {
      writeBaselinePath = value;
    } else if (matchFlag(arg, "root", &value)) {
      root = value;
    } else if (matchFlag(arg, "self-test", &value)) {
      selfTestDir = value;
    } else if (startsWith(arg, "--")) {
      usage("the " + sub + " subcommand does not take " + arg);
    } else {
      explicitFiles.push_back(arg);
    }
  }

  if (!selfTestDir.empty()) return runSelfTest(a, selfTestDir);

  // Assemble the file list: explicit paths, or a deterministic tree walk
  // whose files are named by their root-relative path.
  std::vector<SourceFile> inputs;
  const bool treeScan = explicitFiles.empty();
  if (treeScan) {
    if (root.empty()) root = ".";
    for (const std::string& rel : analysis::collectSourceFiles(root, a.dirs, a.exclude))
      inputs.push_back({rel, ""});
  } else {
    for (const std::string& path : explicitFiles) inputs.push_back({path, ""});
  }
  for (SourceFile& in : inputs) {
    const std::string full = treeScan && root != "." ? root + "/" + in.path : in.path;
    if (!analysis::readFileToString(full, &in.contents)) usage("cannot read " + full);
  }
  if (inputs.empty()) usage("no source files found");

  analysis::SnapLintOptions snapOpts;
  if (!a.det) {
    // The format version gates MB-SNP-004: read it from the scanned sources.
    for (const SourceFile& in : inputs) {
      const std::string suffix = "ckpt/snapshot.hpp";
      if (in.path.size() >= suffix.size() &&
          in.path.compare(in.path.size() - suffix.size(), suffix.size(), suffix) == 0) {
        snapOpts.snapshotVersion = analysis::parseSnapshotVersion(in.contents);
        break;
      }
    }
    snapOpts.haveBaseline =
        treeScan && analysis::readFileToString(root + "/tools/snap_baseline.txt",
                                               &snapOpts.baselineContents);
  }

  const Run run = lint(a, inputs, ownership, snapOpts);
  const long long errors = run.engine.count(analysis::Severity::Error) +
                           run.engine.count(analysis::Severity::Fatal);
  const long long warnings = run.engine.count(analysis::Severity::Warning);

  if (!writeBaselinePath.empty()) {
    std::ofstream out(writeBaselinePath);
    if (!out) usage("cannot write " + writeBaselinePath);
    out << run.baseline;
    std::printf("mbstatic snap: wrote the fingerprint baseline to %s\n",
                writeBaselinePath.c_str());
  }

  if (json) {
    std::ostringstream os;
    os << "{\"tool\":\"" << analysis::jsonEscape(versionString())
       << "\",\"files\":" << inputs.size()
       << ",\"diagnostics\":" << run.engine.renderJson() << ",\"suppressions\":[";
    for (std::size_t i = 0; i < run.suppressions.size(); ++i) {
      const analysis::Suppression& s = run.suppressions[i];
      if (i) os << ',';
      os << "{\"code\":\"" << analysis::jsonEscape(s.code) << "\",\"file\":\""
         << analysis::jsonEscape(s.file) << "\",\"line\":" << s.line
         << ",\"fileScope\":" << (s.fileScope ? "true" : "false")
         << ",\"uses\":" << s.uses << ",\"reason\":\""
         << analysis::jsonEscape(s.reason) << "\"}";
    }
    os << ']' << run.json << ",\"errors\":" << errors << ",\"warnings\":" << warnings
       << '}';
    std::printf("%s\n", os.str().c_str());
  } else {
    for (const analysis::Diagnostic& d : run.engine.diagnostics())
      std::printf("%s\n", d.text().c_str());
    for (const analysis::Suppression& s : run.suppressions)
      std::printf("allow %s %s:%d x%d (%s)\n", s.code.c_str(), s.file.c_str(), s.line,
                  s.uses, s.reason.c_str());
    std::fputs(run.text.c_str(), stdout);
    std::printf("mbstatic %s: %zu file(s), %lld error(s), %lld warning(s), "
                "%zu suppression(s)%s\n",
                a.name, inputs.size(), errors, warnings, run.suppressions.size(),
                run.summary.c_str());
  }
  return errors > 0 ? 1 : 0;
}
