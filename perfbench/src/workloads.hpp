// The four perfbench workloads and the metric tables they report into.
//
// Every workload generates its inputs from RunConfig::seed during set-up
// (timed repeatedly, see SetupClock), then runs fixed-size trials until
// the time budget is spent, then checks its outputs against a host
// oracle. An untraced run reports the end-to-end metrics; a traced run
// spends half its budget untraced and half traced and reports the
// per-layer metrics plus trace_overhead_frac.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

RunResult run_zipf_service(const RunConfig& cfg);
RunResult run_zipf_direct(const RunConfig& cfg);
RunResult run_phase_adaptive(const RunConfig& cfg);
RunResult run_ooc_copy(const RunConfig& cfg);
/// Dispatches on cfg.workload; throws std::invalid_argument when unknown.
RunResult run_workload(const RunConfig& cfg);

/// The self-test suite (input determinism, oracle sensitivity, modeled
/// counter determinism); returns the number of failed checks.
int self_test();

/// The generated inputs of a workload, serialized (self-test: the same
/// seed must give byte-identical inputs).
std::string zipf_input_bytes(std::uint64_t seed);
std::string phase_input_bytes(std::uint64_t seed);
std::string ooc_input_bytes(std::uint64_t seed);

/// Per-layer metrics: every traced run reports all of them; a layer the
/// workload does not exercise reports 0.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  /// Appends every layer metric to r.metrics; the ones named in
  /// `modeled` also to r.modeled.
  void emit(RunResult& r, const std::vector<std::string>& modeled) const;

 private:
  std::vector<Metric> metrics_;
};

/// End-to-end metrics of an untraced run, in report order.
struct EndToEnd {
  double words_per_s = 0;
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
  double modeled_gb_per_s = 0;
  double peak_rss_mb = 0;
  double setup_s = 0;
  void emit(RunResult& r) const;
};

/// trace_overhead_frac: the share of untraced throughput the traced pass
/// lost (each rate is its pass's TrialStats::rate()).
double trace_overhead(double untraced_words_per_s, double traced_words_per_s);

}  // namespace perfbench
