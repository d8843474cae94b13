// perfbench — the crash-to-verdict benchmark binary. Normally started by
// perfbench/run.py, which builds it; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--git-rev REV] [--src-digest HEX]
//
// --tiny is the self-check size (run.py --selfcheck), not a measurement.
// Traced runs write their spans under .bench_build/trace/ in the working
// directory.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet_mix|racy_wide|racy_wide_par|long_run --seed N "
               "--seconds S --trace 0|1 [--tiny] [--git-rev REV] "
               "[--src-digest HEX]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (arg == "--git-rev") {
      options.git_rev = value;
    } else if (arg == "--src-digest") {
      options.src_digest = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("not a number: " + value).c_str());
    }
  }
  if (!(options.seconds > 0)) {
    return Usage("--seconds must be positive");
  }

  std::printf("{\"record\": %s}\n", perfbench::HostRecordJson(options).c_str());
  if (!perfbench::OptimizedBuild()) {
    std::printf("WARNING: unoptimised build; do not compare these numbers "
                "with an optimised build's\n");
  }
  if (options.workload == "fleet_mix" || options.workload == "racy_wide" ||
      options.workload == "racy_wide_par") {
    return perfbench::RunTriageWorkload(options);
  }
  if (options.workload == "long_run") {
    return perfbench::RunLongRun(options);
  }
  return Usage(("unknown workload '" + options.workload + "'").c_str());
}
