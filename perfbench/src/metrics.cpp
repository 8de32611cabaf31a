// The metric tables: the names, units and order every run reports, and
// the dispatch from workload name to its runner.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct Row {
  const char* name;
  const char* unit;
};

// Per-layer metrics (traced run). Units: ns/ms host time, cycles modeled.
constexpr Row kLayerRows[] = {
    {"service.submit_ns_p50", "ns"},
    {"service.submit_ns_p99", "ns"},
    {"service.shed_frac", "ratio"},
    {"service.max_queue_depth", "count"},
    {"service.max_in_flight", "count"},
    {"service.modeled_latency_p99_cycles", "cycles"},
    {"service.run_length", "req/run"},
    {"service.compiled_share", "ratio"},
    {"service.fallback_accesses", "count/pass"},
    {"service.drain_ns_per_req", "ns"},
    {"service.listener_ns_per_req", "ns"},
    {"core.read_into_ns_p50", "ns"},
    {"core.read_into_ns_p99", "ns"},
    {"core.write_ns_p50", "ns"},
    {"core.write_ns_p99", "ns"},
    {"core.plan_hits", "count"},
    {"core.plan_builds", "count"},
    {"core.batch_ns_per_acc", "ns"},
    {"adapt.migration_ms", "ms"},
    {"adapt.batched_share", "ratio"},
    {"adapt.batched_ns_per_acc", "ns"},
    {"adapt.fallback_ns_per_acc", "ns"},
    {"adapt.migrations", "count"},
    {"adapt.verified_words", "count"},
    {"adapt.mismatched_words", "count"},
    {"adapt.windows_profiled", "count"},
    {"cache.read_block_ns_p50", "ns"},
    {"cache.read_block_ns_p99", "ns"},
    {"cache.write_block_ns_p50", "ns"},
    {"cache.write_block_ns_p99", "ns"},
    {"cache.flush_ms", "ms"},
    {"cache.hit_rate", "ratio"},
    {"cache.evictions", "count"},
    {"cache.writebacks", "count"},
    {"cache.prefetch_useful_frac", "ratio"},
    {"cache.flush_runs", "count"},
    {"maxsim.lmem_ms", "ms"},
    {"maxsim.lmem_overlapped_ms", "ms"},
    {"maxsim.polymem_cycles", "cycles"},
    {"maxsim.dma_words", "count"},
    {"maxsim.lmem_pages", "count"},
    {"trace_overhead_frac", "ratio"},
};

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const Row& row : kLayerRows) metrics_.push_back({row.name, 0, row.unit});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
  std::abort();
}

void LayerMetrics::emit(RunResult& r,
                        const std::vector<std::string>& modeled) const {
  for (const Metric& m : metrics_) {
    r.metrics.push_back(m);
    for (const std::string& name : modeled)
      if (name == m.name) r.modeled.push_back(m);
  }
}

void EndToEnd::emit(RunResult& r) const {
  const double ok_frac =
      r.attempted == 0
          ? 0
          : 1.0 - static_cast<double>(std::min(r.failed, r.attempted)) /
                      static_cast<double>(r.attempted);
  r.add("words_per_s", words_per_s, "words/s");
  r.add("latency_p50_ns", latency_p50_ns, "ns");
  r.add("latency_p99_ns", latency_p99_ns, "ns");
  r.add("modeled_gb_per_s", modeled_gb_per_s, "GB/s");
  r.add("peak_rss_mb", peak_rss_mb, "MB");
  r.add("setup_s", setup_s, "s");
  r.add("ok_frac", ok_frac, "ratio");
}

double trace_overhead(double untraced_words_per_s, double traced_words_per_s) {
  return untraced_words_per_s == 0
             ? 0
             : 1.0 - traced_words_per_s / untraced_words_per_s;
}

RunResult run_workload(const RunConfig& cfg) {
  if (cfg.workload == "zipf_service") return run_zipf_service(cfg);
  if (cfg.workload == "zipf_direct") return run_zipf_direct(cfg);
  if (cfg.workload == "phase_adaptive") return run_phase_adaptive(cfg);
  if (cfg.workload == "ooc_copy") return run_ooc_copy(cfg);
  throw std::invalid_argument("unknown workload: " + cfg.workload);
}

}  // namespace perfbench
