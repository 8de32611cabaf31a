#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/simd/dispatch.hpp"

namespace perfbench {

// ---- LatencyHist -----------------------------------------------------------

std::size_t LatencyHist::bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);      // >= 6
  const int shift = msb - 6;                     // log2(kSub) == 6
  const auto sub = static_cast<std::size_t>((v >> shift) - kSub);
  return static_cast<std::size_t>(kSub) * static_cast<std::size_t>(shift + 1) +
         sub;
}

std::uint64_t LatencyHist::bucket_low(std::size_t b) {
  if (b < kSub) return b;
  const std::size_t shift = b / kSub - 1;
  const std::uint64_t sub = b % kSub;
  return (kSub + sub) << shift;
}

void LatencyHist::add(std::uint64_t v) {
  const std::size_t b = bucket_of(v);
  if (b >= counts_.size()) counts_.resize(b + 1, 0);
  ++counts_[b];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
  if (other.counts_.size() > counts_.size())
    counts_.resize(other.counts_.size(), 0);
  for (std::size_t b = 0; b < other.counts_.size(); ++b)
    counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double LatencyHist::percentile(double pct) const {
  if (count_ == 0) return 0;
  // Rank of the requested sample (0-based, fractional), then linear
  // interpolation across the width of the bucket holding it.
  const double rank = pct / 100.0 * static_cast<double>(count_ - 1);
  double seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto c = static_cast<double>(counts_[b]);
    if (c == 0) continue;
    if (rank < seen + c) {
      const double lo = static_cast<double>(bucket_low(b));
      const double hi = static_cast<double>(bucket_low(b + 1));
      return lo + (hi - lo) * ((rank - seen + 0.5) / c);
    }
    seen += c;
  }
  return static_cast<double>(bucket_low(counts_.size()));
}

void TrialLatency::end_trial() {
  if (current_.count() == 0) return;
  p50_.push_back(current_.percentile(50));
  p99_.push_back(current_.percentile(99));
  current_ = LatencyHist{};
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer(std::uint32_t thread_id) : thread_id_(thread_id) {
  spans_.reserve(kSpanCap);
  open_.reserve(8);
}

void Tracer::begin(const char* name, std::uint64_t request) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back().index;
  open_.push_back({next_index_++, name, now_ns(), request, parent});
}

void Tracer::end() {
  const std::int64_t end_ns = now_ns();
  const Open o = open_.back();
  open_.pop_back();
  Agg& a = aggs_[o.name];
  const std::int64_t d = end_ns - o.start;
  a.hist.add(static_cast<std::uint64_t>(std::max<std::int64_t>(d, 0)));
  a.total_ns += static_cast<double>(d);
  ++a.count;
  if (spans_.size() < kSpanCap) {
    spans_.push_back({o.index, o.name, o.start, end_ns, o.parent, o.request});
  } else {
    ++dropped_;
  }
}

const Tracer::Agg& Tracer::agg(const std::string& name) const {
  static const Agg kEmpty;
  const auto it = aggs_.find(name);
  return it == aggs_.end() ? kEmpty : it->second;
}

void Tracer::merge(const Tracer& other) {
  for (const auto& [name, a] : other.aggs_) {
    Agg& mine = aggs_[name];
    mine.hist.merge(a.hist);
    mine.total_ns += a.total_ns;
    mine.count += a.count;
  }
}

void Tracer::write_spans(std::FILE* out) const {
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"thread\": %u, \"id\": %d, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}\n",
                 thread_id_, s.id, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  if (dropped_ > 0) {
    std::fprintf(out, "{\"thread\": %u, \"dropped_spans\": %llu}\n",
                 thread_id_, static_cast<unsigned long long>(dropped_));
  }
}

// ---- run helpers -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

namespace {

/// Moves the calling thread to the next CPU of its starting set every
/// `move_every` seconds of measured work, and back to that whole set at
/// the end (see run_trials).
class CpuRotation {
 public:
  explicit CpuRotation(double move_every)
      : move_every_(move_every), cpus_(allowed_cpus()) {}
  ~CpuRotation() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus_) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void after(double seconds) {
    if (cpus_.size() < 2 || (since_move_ += seconds) < move_every_) return;
    since_move_ = 0;
    pin_to_cpu(cpus_[next_++ % cpus_.size()]);
  }

 private:
  double move_every_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  double since_move_ = move_every_;  // pin after the first call
};

}  // namespace

void SetupClock::run(const std::function<void()>& build) {
  CpuRotation rotation(0.125);
  double total = 0;
  for (int reps = 0; reps < 3 || (total < 0.5 && reps < 5000); ++reps) {
    const auto t0 = Clock::now();
    build();
    times_.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    total += times_.back();
    rotation.after(times_.back());
  }
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

TrialStats run_trials(double seconds,
                      const std::function<TrialOutcome(int)>& trial) {
  TrialStats s;
  CpuRotation rotation(0.5);
  for (int k = 0; k == 0 || s.measured_s < seconds; ++k) {
    const TrialOutcome o = trial(k);
    s.seconds.push_back(o.seconds);
    s.words_per_s.push_back(o.words / o.seconds);
    s.measured_s += o.seconds;
    rotation.after(o.seconds);
  }
  return s;
}

std::string fingerprint_json(const RunConfig& cfg) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"hardware_threads\": %u, \"simd\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu}",
      std::thread::hardware_concurrency(),
      polymem::core::simd::level_name(polymem::core::simd::active_level()),
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      PERFBENCH_BUILD_TYPE, cfg.workload.c_str(),
      static_cast<unsigned long long>(cfg.seed));
  return buf;
}

std::string result_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t k = 0; k < r.metrics.size(); ++k) {
    const Metric& m = r.metrics[k];
    char num[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += (k ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void write_spans(const RunConfig& cfg, const std::vector<const Tracer*>& ts) {
  if (cfg.out_dir.empty()) return;
  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  for (const Tracer* t : ts) t->write_spans(f);
  std::fclose(f);
}

}  // namespace perfbench
