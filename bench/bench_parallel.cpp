// Parallel-runtime benchmark runner: measures the DSE sweep wall time
// serial vs multi-threaded (dse::DseExplorer::sweep over the thread pool)
// and emits machine-readable JSON (BENCH_parallel.json) committed at the
// repo root.
//
// Like bench_core this runner is dependency-free (fixed workloads, one
// warm-up then the median of trials through harness.hpp). The sweep
// checksums must match the serial sweep before timing counts, so a
// determinism regression fails the benchmark rather than skewing it.
//
// The JSON records hardware_threads next to the speedup so numbers from
// different hosts are comparable. On a 1-CPU host the speedup hovers
// around 1x — the interesting signal is then the *overhead* (how far
// below 1x the threaded path falls).
//
// Usage: bench_parallel [output.json] [threads]
//        (defaults: BENCH_parallel.json, hardware concurrency)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hpp"
#include "dse/explorer.hpp"
#include "harness.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace polymem;

constexpr int kTrials = 5;

struct SweepResult {
  double serial_ms, parallel_ms, speedup;
  bool checksums_match;
};

SweepResult bench_sweep(unsigned threads) {
  const dse::DseExplorer explorer;
  const dse::SweepOptions serial{.threads = 1, .validate = true};
  dse::SweepOptions parallel = serial;
  parallel.threads = threads;

  // Determinism cross-check before timing anything.
  const auto ref = explorer.sweep(serial);
  const auto par = explorer.sweep(parallel);
  bool match = ref.size() == par.size();
  for (std::size_t k = 0; match && k < ref.size(); ++k)
    match = ref[k].validation_ok && par[k].validation_ok &&
            ref[k].validation_checksum == par[k].validation_checksum;

  SweepResult r{};
  r.checksums_match = match;
  r.serial_ms =
      bench::median_ns(kTrials, [&] { (void)explorer.sweep(serial); }) / 1e6;
  r.parallel_ms =
      bench::median_ns(kTrials, [&] { (void)explorer.sweep(parallel); }) /
      1e6;
  r.speedup = r.serial_ms / r.parallel_ms;
  return r;
}

void write_json(const std::string& path, unsigned threads,
                const SweepResult& sweep) {
  std::ofstream os(path);
  json::Writer w(os);
  w.begin_object().field("benchmark", "polymem_parallel_runtime");
  w.field("hardware_threads", runtime::ThreadPool::hardware_threads());
  w.field("threads", threads).field("trials", kTrials);
  w.begin_object("dse_sweep").field("points", 90).field("validate", true);
  w.field("serial_ms", json::Fixed{sweep.serial_ms, 2});
  w.field("parallel_ms", json::Fixed{sweep.parallel_ms, 2});
  w.field("speedup", json::Fixed{sweep.speedup, 2});
  w.field("checksums_match", sweep.checksums_match).end().end();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  const unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2]))
               : runtime::ThreadPool::hardware_threads();

  std::cout << "hardware threads: "
            << runtime::ThreadPool::hardware_threads() << ", using "
            << threads << "\n";

  const SweepResult sweep = bench_sweep(threads);
  std::cout << "DSE sweep (90 points, validated): serial " << sweep.serial_ms
            << " ms, " << threads << " threads " << sweep.parallel_ms
            << " ms (" << sweep.speedup << "x), checksums "
            << (sweep.checksums_match ? "match" : "DIVERGE") << "\n";

  write_json(path, threads, sweep);
  std::cout << "wrote " << path << "\n";

  if (!sweep.checksums_match) {
    std::cerr << "ERROR: parallel results diverge from serial reference\n";
    return 1;
  }
  return 0;
}
