// perfbench harness: what every workload shares.
//
//  - RunConfig / RunResult: one run's arguments and its outcome (the
//    correctness tally plus named metrics with units).
//  - LatencyHist: a log-linear histogram of host nanoseconds (or modeled
//    cycles); O(1) add, percentiles interpolated within a bucket by rank.
//  - Tracer: spans (name, start, end, parent, request id) recorded around
//    the benchmark's own calls into a layer's public API. Every span feeds
//    a per-name histogram and sum; the first kSpanCap spans are also kept
//    raw in memory and written out at exit. One Tracer per thread.
//  - Trials: the measurement clock — a run is a sequence of fixed-size
//    trials until the time budget is spent.
//
// Host-time statistics take the fast 2% of many short measurements
// (trials, set-ups): on a shared host, contention only ever slows work
// down, and it comes and goes in phases of seconds to tens of seconds
// that slow this library's accesses by up to 1.7x. A run's median, or
// even its fast decile, moves with how much of the run was contended;
// its fast 2% needs only half a second of quiet host in the run, so it
// estimates the uncontended value and repeats run to run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Modeled clock of the paper's design (Sec. V): 120 MHz.
constexpr double kClockHz = 120e6;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where spans and the phase trace are written ("" = nowhere).
  std::string out_dir;
  /// Self-test hook: flip one word of the host oracle's expected data, so
  /// a correct program must be reported as diverging.
  bool corrupt_oracle = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Deterministic modeled counters: a pure function of the seed.
  std::vector<Metric> modeled;

  bool correct() const { return failed == 0 && attempted > 0; }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Log-linear histogram: 64 sub-buckets per power of two (~1.1% bucket
/// width). Values below 64 are exact.
class LatencyHist {
 public:
  void add(std::uint64_t v);
  void merge(const LatencyHist& other);
  std::uint64_t count() const { return count_; }
  /// pct in [0, 100]; 0 when empty.
  double percentile(double pct) const;

 private:
  static constexpr int kSub = 64;
  static std::size_t bucket_of(std::uint64_t v);
  static std::uint64_t bucket_low(std::size_t b);
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// The q-quantile (q in [0, 1]) of v, linearly interpolated; 0 if empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Fast-2% quantiles: of rates (higher is faster) and of times.
constexpr double kFastRate = 0.98;
constexpr double kFastTime = 0.02;

/// Latency percentiles taken per trial; a run reports the fast 2% of
/// the per-trial values, so host noise in some trials does not move it.
class TrialLatency {
 public:
  void add(std::uint64_t v) { current_.add(v); }
  /// Seals the current trial's histogram (no-op when it is empty).
  void end_trial();
  double p50() const { return quantile(p50_, kFastTime); }
  double p99() const { return quantile(p99_, kFastTime); }

 private:
  LatencyHist current_;
  std::vector<double> p50_, p99_;
};

struct Span {
  std::int32_t id = 0;       ///< per-tracer, in begin order
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< id of the enclosing span, -1 = root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kSpanCap = 1 << 12;

  explicit Tracer(std::uint32_t thread_id = 0);

  /// Opens a span (nested in the innermost open one).
  void begin(const char* name, std::uint64_t request = 0);
  /// Closes the innermost open span.
  void end();

  struct Agg {
    LatencyHist hist;
    double total_ns = 0;
    std::uint64_t count = 0;
  };
  const Agg& agg(const std::string& name) const;
  void merge(const Tracer& other);

  /// Appends the kept raw spans as one JSON object per line.
  void write_spans(std::FILE* out) const;

 private:
  struct Open {
    std::int32_t index;
    const char* name;
    std::int64_t start;
    std::uint64_t request;
    std::int32_t parent;
  };
  std::uint32_t thread_id_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::map<std::string, Agg> aggs_;
  std::uint64_t dropped_ = 0;
  std::int32_t next_index_ = 0;
};

/// RAII span: Scope s(tracer, "core.read_into", k). A null tracer records
/// nothing, so traced and untraced passes share one code path.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_) tracer_->begin(name, request);
  }
  ~Scope() {
    if (tracer_) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Set-up time: a run builds its inputs at its start, and again after its
/// checks so that the samples span the run; setup_s is their fast 2%.
class SetupClock {
 public:
  /// Runs `build` at least 3 times and for at least half a second (at
  /// most 5000 times), recording each wall time. The calling thread moves
  /// to the next CPU every eighth of a second, as in run_trials.
  void run(const std::function<void()>& build);
  double seconds() const { return quantile(times_, kFastTime); }

 private:
  std::vector<double> times_;
};

/// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus();
/// Pins the calling thread to one CPU.
void pin_to_cpu(int cpu);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Repeats `trial` (one fixed-size unit of work returning the words it
/// served; it times itself via the returned seconds) until `seconds` of
/// measured time have accumulated, at least once. Returns per-trial rates.
/// The calling thread moves to the next CPU it may run on every half
/// second: a host neighbour slows each CPU by its own amount, so a run
/// that sat on one contended CPU would report the contended value.
struct TrialStats {
  std::vector<double> words_per_s;
  std::vector<double> seconds;
  double measured_s = 0;
  int trials() const { return static_cast<int>(seconds.size()); }
  /// The run's throughput: the fast 2% of the per-trial rates.
  double rate() const { return quantile(words_per_s, kFastRate); }
};
struct TrialOutcome {
  double words = 0;
  double seconds = 0;
};
TrialStats run_trials(double seconds,
                      const std::function<TrialOutcome(int)>& trial);

/// Host fingerprint line (hardware threads, SIMD level, compiler, build
/// type, seed) as a JSON object.
std::string fingerprint_json(const RunConfig& cfg);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const RunResult& r);

/// Writes every tracer's kept spans to out_dir/spans-<workload>-<seed>.jsonl.
void write_spans(const RunConfig& cfg, const std::vector<const Tracer*>& ts);

}  // namespace perfbench
