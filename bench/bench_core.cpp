// Hot-path benchmark runner: measures the functional model's parallel-read
// throughput on the naive AGU reference, on single read_into calls through
// the compiled engine, and on the compiled batched engine, and emits
// machine-readable JSON (BENCH_core.json) so the engine speedup is tracked
// in the repository. A roofline-style bytes/cycle figure per case shows
// how close the gather loop runs to the load-port limit.
//
// The runner is deliberately dependency-free: one warm-up then the median
// of repeated trials (harness.hpp), fixed workloads — stable enough to
// commit its output.
//
// Usage: bench_core [output.json]   (default BENCH_core.json)
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/units.hpp"
#include "core/polymem.hpp"
#include "harness.hpp"

namespace {

using namespace polymem;

struct Case {
  maf::Scheme scheme;
  unsigned p;
  unsigned q;
};

// The ISSUE's acceptance geometries: ReRo and RoCo at 2x4 and 4x4.
constexpr Case kCases[] = {
    {maf::Scheme::kReRo, 2, 4},
    {maf::Scheme::kReRo, 4, 4},
    {maf::Scheme::kRoCo, 2, 4},
    {maf::Scheme::kRoCo, 4, 4},
};

constexpr int kTrials = 7;
constexpr std::int64_t kAccessesPerTrial = 200'000;

struct Workload {
  access::PatternKind kind;
  std::int64_t step_i;  // anchor stride down the rows
};

// Row walks where rows are served anywhere; aligned rect walks otherwise
// (RoCo serves rectangles only at p/q-aligned anchors).
Workload pick_workload(const core::PolyMem& mem) {
  if (mem.supports(access::PatternKind::kRow) == maf::SupportLevel::kAny)
    return {access::PatternKind::kRow, 1};
  return {access::PatternKind::kRect,
          static_cast<std::int64_t>(mem.config().p)};
}

// Median-of-trials ns per parallel access for one run function.
template <typename Fn>
double ns_per_access(Fn&& run) {
  return bench::median_ns(kTrials, run) /
         static_cast<double>(kAccessesPerTrial);
}

// Best-effort CPU clock for the roofline figure; 0.0 when unknown.
// /proc/cpuinfo reports the *current* MHz, which is close enough for a
// bytes-per-cycle estimate on a pinned benchmark run.
double cpu_ghz() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("cpu MHz", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::istringstream v(line.substr(colon + 1));
    double mhz = 0.0;
    if (v >> mhz && mhz > 0.0) return mhz / 1000.0;
  }
  return 0.0;
}

struct Result {
  std::string scheme;
  unsigned p, q;
  std::string pattern;
  double naive_ns, single_ns, batched_ns;
  double single_speedup, batched_speedup;
  double single_over_batched;
  double bytes_per_access, bytes_per_cycle;
};

Result run_case(const Case& c) {
  const auto cfg =
      core::PolyMemConfig::with_capacity(256 * KiB, c.scheme, c.p, c.q);
  core::PolyMem mem(cfg);
  const Workload w = pick_workload(mem);
  const std::int64_t anchors = cfg.height / w.step_i;
  std::vector<core::Word> out(cfg.lanes());

  // A wrapping row counter, so the walk pays no division per access that
  // the batched loop does not.
  const std::int64_t end = anchors * w.step_i;
  auto walk = [&] {
    std::int64_t i = 0;
    for (std::int64_t n = 0; n < kAccessesPerTrial; ++n) {
      mem.read_into({w.kind, {i, 0}}, 0, out);
      i += w.step_i;
      if (i == end) i = 0;
    }
  };

  mem.set_plan_cache_enabled(false);
  const double naive_ns = ns_per_access(walk);
  mem.set_plan_cache_enabled(true);
  const double single_ns = ns_per_access(walk);

  // Batched engine: the same column of anchors as one AccessBatch,
  // repeated until ~kAccessesPerTrial accesses ran.
  const core::AccessBatch batch{
      w.kind, {0, 0}, {w.step_i, 0}, anchors, {0, 0}, 1};
  const std::int64_t reps = std::max<std::int64_t>(
      1, kAccessesPerTrial / batch.count());
  std::vector<core::Word> bulk(
      static_cast<std::size_t>(batch.count()) * cfg.lanes());
  auto batched = [&] {
    for (std::int64_t r = 0; r < reps; ++r) mem.read_batch(batch, 0, bulk);
  };
  // Normalise to the actual access count of one batched trial.
  const double scale = static_cast<double>(reps * batch.count()) /
                       static_cast<double>(kAccessesPerTrial);
  const double batched_ns = ns_per_access(batched) / scale;

  // Roofline-style figure: one parallel access gathers lanes words from
  // the banks and stores lanes words to the caller's buffer.
  const double bytes_per_access =
      2.0 * static_cast<double>(cfg.lanes()) * sizeof(core::Word);
  const double ghz = cpu_ghz();
  const double bytes_per_cycle =
      ghz > 0.0 ? bytes_per_access / (batched_ns * ghz) : 0.0;

  return {maf::scheme_name(c.scheme),
          c.p,
          c.q,
          access::pattern_name(w.kind),
          naive_ns,
          single_ns,
          batched_ns,
          naive_ns / single_ns,
          naive_ns / batched_ns,
          single_ns / batched_ns,
          bytes_per_access,
          bytes_per_cycle};
}

void write_json(const std::vector<Result>& results, const std::string& path) {
  std::ofstream os(path);
  json::Writer w(os);
  auto f2 = [](double v) { return json::Fixed{v, 2}; };
  w.begin_object().field("benchmark", "polymem_hot_path");
  w.field("unit", "ns_per_parallel_access");
  w.field("accesses_per_trial", kAccessesPerTrial).field("trials", kTrials);
  w.begin_array("cases");
  for (const Result& r : results) {
    w.begin_object().field("scheme", r.scheme).field("p", r.p);
    w.field("q", r.q).field("pattern", r.pattern);
    w.field("naive_ns", f2(r.naive_ns)).field("single_ns", f2(r.single_ns));
    w.field("batched_ns", f2(r.batched_ns));
    w.field("single_speedup", f2(r.single_speedup));
    w.field("batched_speedup", f2(r.batched_speedup));
    w.field("single_over_batched", f2(r.single_over_batched));
    w.field("bytes_per_access", f2(r.bytes_per_access));
    w.field("bytes_per_cycle", f2(r.bytes_per_cycle)).end();
  }
  w.end().end();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_core.json";
  std::vector<Result> results;
  for (const Case& c : kCases) {
    results.push_back(run_case(c));
    const Result& r = results.back();
    std::cout << r.scheme << " " << r.p << "x" << r.q << " (" << r.pattern
              << "): naive " << r.naive_ns << " ns, single " << r.single_ns
              << " ns (" << r.single_speedup << "x), batched "
              << r.batched_ns << " ns (" << r.batched_speedup
              << "x), " << r.bytes_per_cycle << " B/cycle\n";
  }
  write_json(results, path);
  std::cout << "wrote " << path << "\n";

  // Tracking gates. Single accesses and batches both run on the compiled
  // kernels and keep a 2.5x-over-naive gate; the batched path is also
  // gated in absolute terms — <= 60 ns per parallel access on the p=4,q=4
  // geometries (the compiled gather loop lands near 8-13 ns; 60 leaves
  // headroom for slow CI hosts).
  bool ok = true;
  for (const Result& r : results) {
    ok = ok && r.single_speedup >= 2.5 && r.batched_speedup >= 2.5;
    if (r.p == 4 && r.q == 4) ok = ok && r.batched_ns <= 60.0;
  }
  if (!ok) {
    std::cerr << "WARNING: speedup below 2.5x or 4x4 batched above 60 ns\n";
    return 1;
  }
  return 0;
}
