// mbtrace — record synthetic traces to files for later replay.
//
// Produces one trace file per core ("<prefix>.<core>.mbt") from a named
// workload profile, so experiments can be pinned to an exact input stream
// independent of the generator's evolution — and so real traces, converted
// into the same format, can be dropped in (see trace/trace_file.hpp for
// the layout).
//
//   mbtrace --app=429.mcf --out=/tmp/mcf --records=200000 --cores=4 --seed=1
//   mbsim   --workload=trace:/tmp/mcf
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/check.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "trace/profiles.hpp"
#include "trace/trace_file.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mbtrace: %s\nusage: mbtrace --app=NAME --out=PREFIX"
               " [--records=N] [--cores=N] [--seed=N]\n",
               msg);
  std::exit(2);
}

/// `value` as a whole decimal integer in [lo, hi]; anything else is a usage
/// error.
std::int64_t intFlag(const std::string& value, const char* flag, std::int64_t lo,
                     std::int64_t hi = INT64_MAX) {
  const auto v = parseInt(value, lo, hi);
  if (!v) usage(intFlagError(flag, value, lo, hi).c_str());
  return *v;
}

bool knownApp(const std::string& name) {
  for (const auto& p : trace::specProfiles())
    if (p.name == name) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string app;
  std::string out;
  std::int64_t records = 100000;
  int cores = 4;
  std::uint64_t seed = 12345;

  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::printf("%s", versionBanner("mbtrace").c_str());
      return 0;
    } else if (matchFlag(arg, "app", &value)) {
      app = value;
    } else if (matchFlag(arg, "out", &value)) {
      out = value;
    } else if (matchFlag(arg, "records", &value)) {
      records = intFlag(value, "--records", 1);
    } else if (matchFlag(arg, "cores", &value)) {
      cores = static_cast<int>(intFlag(value, "--cores", 1, INT_MAX));
    } else if (matchFlag(arg, "seed", &value)) {
      seed = static_cast<std::uint64_t>(intFlag(value, "--seed", 0));
    } else {
      usage(("unrecognized argument: " + arg).c_str());
    }
  }
  if (app.empty()) usage("--app is required");
  if (!knownApp(app)) usage(("unknown --app: " + app).c_str());
  if (out.empty()) usage("--out is required");

  // An unwritable --out (or any other MB_CHECK failure) becomes a printed
  // diagnostic and exit 2, as in mbsim — no SIGABRT.
  ScopedCheckTrap trap;
  try {
    for (int c = 0; c < cores; ++c) {
      trace::SyntheticParams p = trace::specProfile(app).params;
      p.baseAddr = static_cast<std::uint64_t>(c) << 33;
      p.seed = seed * 1000003 + static_cast<std::uint64_t>(c);
      trace::SyntheticSource src(p);
      const std::string path = trace::traceFilePath(out, c);
      trace::recordTrace(src, path, records);
      std::printf("wrote %lld records to %s\n", static_cast<long long>(records),
                  path.c_str());
    }
  } catch (const CheckFailure& f) {
    std::fprintf(stderr, "mbtrace: %s\n", f.message.c_str());
    return 2;
  }
  return 0;
}
