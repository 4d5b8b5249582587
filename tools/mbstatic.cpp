// mbstatic — the simulator's one source-level analysis: MB-SNP-005
// (DESIGN.md §12), a snapshot load path that sizes a loop or a container
// from a raw u32/u64 read with no fail() guard. Determinism and the rest of
// snapshot completeness are gated at run time (DESIGN.md §11). Like mblint
// for configs and mbaudit for traces, it exits 0 only when the scanned
// sources are clean, so ctest and CI gate on it.
//
//   mbstatic                  scan ./src
//   mbstatic --root=DIR       scan DIR/src
//   mbstatic FILE...          scan explicit files
//   mbstatic --json           machine-readable output
//   mbstatic --version
//
// Exit status: 0 clean, 1 findings, 2 usage (an unknown flag, an unreadable
// file, nothing to scan).
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

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

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> explicitFiles;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--version") {
      std::fputs(versionBanner("mbstatic").c_str(), stdout);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (matchFlag(arg, "root", &value)) {
      if (value.empty()) usage("--root expects a directory");
      root = value;
    } else if (startsWith(arg, "--")) {
      usage("unrecognized argument: " + arg);
    } else {
      explicitFiles.push_back(arg);
    }
  }

  // Explicit paths, or a deterministic walk of ROOT/src whose files are
  // named by their root-relative path.
  std::vector<SourceFile> inputs;
  const bool treeScan = explicitFiles.empty();
  if (treeScan) {
    for (const std::string& rel : analysis::collectSourceFiles(root, {"src"}))
      inputs.push_back({rel, ""});
  } else {
    for (const std::string& path : explicitFiles) inputs.push_back({path, ""});
  }
  for (SourceFile& in : inputs) {
    const std::string full = treeScan && root != "." ? root + "/" + in.path : in.path;
    if (!analysis::readFileToString(full, &in.contents)) usage("cannot read " + full);
  }
  if (inputs.empty()) usage("no source files found");

  analysis::DiagnosticEngine engine;
  analysis::lintLoadLengths(inputs, engine);
  const long long errors = engine.count(analysis::Severity::Error);
  if (json) {
    std::ostringstream os;
    os << "{\"tool\":\"" << analysis::jsonEscape(versionString())
       << "\",\"files\":" << inputs.size() << ",\"diagnostics\":" << engine.renderJson()
       << ",\"errors\":" << errors << '}';
    std::printf("%s\n", os.str().c_str());
  } else {
    for (const analysis::Diagnostic& d : engine.diagnostics())
      std::printf("%s\n", d.text().c_str());
    std::printf("mbstatic: %zu file(s), %lld error(s)\n", inputs.size(), errors);
  }
  return errors > 0 ? 1 : 0;
}
