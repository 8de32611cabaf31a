// perfbench — one seeded benchmark for the PolyMem library.
//
//   perfbench --workload <zipf_service|zipf_direct|phase_adaptive|ooc_copy>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --self-test
//
// Prints the host fingerprint, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 0 when every
// output matched its host oracle, 1 on any divergence, 2 on bad usage or
// an error.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int failures = perfbench::self_test();
      std::printf("self-test: %s (%d failed)\n", failures ? "FAIL" : "ok",
                  failures);
      return failures ? 1 : 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value) != 0;
      } else if (arg == "--out-dir") {
        cfg.out_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !(cfg.seconds > 0)) return usage();

  // Keep freed memory in the process: repeated set-ups and trials then
  // reuse pages instead of faulting fresh ones in from the kernel, whose
  // cost varies with the host's memory state rather than with this code.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  try {
    std::printf("fingerprint: %s\n",
                perfbench::fingerprint_json(cfg).c_str());
    std::fflush(stdout);
    const perfbench::RunResult r = perfbench::run_workload(cfg);
    std::printf("%s\n", perfbench::result_json(r).c_str());
    if (!r.correct()) {
      std::fprintf(stderr, "perfbench: %llu of %llu operations diverged from "
                           "the host oracle\n",
                   static_cast<unsigned long long>(r.failed),
                   static_cast<unsigned long long>(r.attempted));
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
