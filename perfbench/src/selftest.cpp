// perfbench --self-test: the benchmark checks itself.
//
//  1. Inputs are a function of the seed: two generations with one seed
//     are byte-identical, another seed gives other inputs.
//  2. The oracles can fail: a clean run is correct, and the same run with
//     one expected word flipped is reported incorrect.
//  3. Modeled counters are deterministic: two runs of phase_adaptive and
//     ooc_copy with one seed report identical modeled values (end-to-end
//     modeled_gb_per_s and the modeled per-layer counters).
#include <cstdio>
#include <functional>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kShortRun = 0.05;  // seconds: one or a few trials

int expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

RunResult run(const std::string& workload, std::uint64_t seed, bool trace,
              bool corrupt) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = seed;
  cfg.seconds = kShortRun;
  cfg.trace = trace;
  cfg.corrupt_oracle = corrupt;
  return run_workload(cfg);
}

bool same_modeled(const RunResult& a, const RunResult& b) {
  if (a.modeled.size() != b.modeled.size() || a.modeled.empty()) return false;
  for (std::size_t k = 0; k < a.modeled.size(); ++k) {
    if (a.modeled[k].name != b.modeled[k].name ||
        a.modeled[k].value != b.modeled[k].value) {
      std::printf("    %s: %.17g vs %.17g\n", a.modeled[k].name.c_str(),
                  a.modeled[k].value, b.modeled[k].value);
      return false;
    }
  }
  return true;
}

}  // namespace

int self_test() {
  int failures = 0;
  const std::pair<const char*, std::function<std::string(std::uint64_t)>>
      generators[] = {{"zipf", zipf_input_bytes},
                      {"phase", phase_input_bytes},
                      {"ooc", ooc_input_bytes}};
  for (const auto& [name, gen] : generators) {
    const std::string a = gen(11), b = gen(11), c = gen(12);
    failures += expect(a == b, std::string(name) + " inputs: same seed, same bytes");
    failures += expect(a != c, std::string(name) + " inputs: other seed, other bytes");
  }

  for (const char* w : {"zipf_service", "zipf_direct", "phase_adaptive",
                        "ooc_copy"}) {
    failures += expect(run(w, 5, false, false).correct(),
                       std::string(w) + ": clean run is correct");
    const RunResult bad = run(w, 5, false, true);
    failures += expect(!bad.correct() && bad.failed > 0,
                       std::string(w) + ": corrupted oracle is detected");
  }

  for (const char* w : {"phase_adaptive", "ooc_copy"}) {
    for (const bool trace : {false, true}) {
      const RunResult a = run(w, 3, trace, false);
      const RunResult b = run(w, 3, trace, false);
      failures += expect(same_modeled(a, b),
                         std::string(w) + (trace ? " traced" : " untraced") +
                             ": modeled counters repeat exactly");
    }
  }
  return failures;
}

}  // namespace perfbench
