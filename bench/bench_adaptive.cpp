// Adaptive layout engine benchmark; emits BENCH_adaptive.json (committed
// at the repo root).
//
// Drives the phase-changing golden trace (tests/data/
// phase_change_64x64.trace: row scans -> column scans -> main-diagonal
// sweeps, ~25% writes) through six engines built on the same serve path:
// the five static schemes (AdaptiveMatrix with adapt=false — identical
// batched/fallback dispatch, no profiling) and the adaptive engine
// (profiler + policy + epoch migrations, each run inline by the op that
// triggered it). No static scheme serves all three phases at 2x4 — rows need
// {ReRo, RoCo}, columns {ReCo, RoCo}, main diagonals {ReRo, ReCo} — so
// the only way to win end-to-end is to migrate mid-run, which is exactly
// what the bench measures.
//
// Two comparisons, one gate each:
//  - *modeled cycles* (deterministic): batched access = 1 cycle,
//    fallback = lanes cycles (p*q scalar bank reads), plus the policy's
//    own migration charge (2 * cells / lanes cycles per migration).
//  - *wall clock* (end-to-end, non-tiny only): the same op stream timed
//    through each engine, as the median of kTrials runs, each on a fresh
//    engine.
//
// Correctness is not sampled, it is exhaustive: an untimed replay pass
// (src/replay, adaptive mode) diffs the migrating engine word-for-word
// against the host oracle from every starting scheme, and the timed
// adaptive run must finish with zero differential-oracle mismatches and
// zero aborted migrations. Any divergence, or an adaptive loss on a
// gate, exits nonzero so CI can gate on --tiny.
//
// Usage: bench_adaptive [--tiny] [--trace file] [--passes N] [out.json]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adapt/adaptive_matrix.hpp"
#include "common/json.hpp"
#include "harness.hpp"
#include "replay/replay.hpp"
#include "sched/trace_io.hpp"

#ifndef POLYMEM_PHASE_TRACE
#define POLYMEM_PHASE_TRACE "tests/data/phase_change_64x64.trace"
#endif

namespace {

using namespace polymem;

constexpr std::int64_t kWindow = 256;
constexpr int kTrials = 5;

core::PolyMemConfig base_config(const sched::RecordedTrace& trace,
                                maf::Scheme scheme) {
  core::PolyMemConfig cfg;
  cfg.scheme = scheme;
  cfg.p = trace.p;
  cfg.q = trace.q;
  cfg.height = trace.height;
  cfg.width = trace.width;
  return cfg;
}

struct RunResult {
  std::string name;
  double wall_ms = 0;
  std::uint64_t modeled_cycles = 0;
  std::uint64_t batched = 0;
  std::uint64_t fallback = 0;
  std::uint64_t migrations = 0;
  std::uint64_t aborted = 0;
  std::uint64_t mismatched_words = 0;
  maf::Scheme final_scheme = maf::Scheme::kReO;
};

/// Streams the trace `passes` times through a fresh engine, kTrials
/// times, and reads the meters: the median wall time, and the last run's
/// counters (every run makes the same inline migrations, so they are
/// equal). Data correctness is the replay pass's job; here writes carry a
/// constant payload and reads land in scratch — pure serve-path timing.
RunResult run_engine(const sched::RecordedTrace& trace, maf::Scheme start,
                     bool adaptive, int passes) {
  adapt::AdaptiveOptions opts;
  opts.adapt = adaptive;
  opts.verify_migrations = true;
  opts.profiler.window = kWindow;

  const unsigned lanes = static_cast<unsigned>(trace.p * trace.q);
  std::vector<core::Word> in(64 * static_cast<std::size_t>(lanes), 0x5eed);
  std::vector<core::Word> out;
  std::vector<double> walls;
  adapt::AdaptiveStats stats;
  for (int trial = 0; trial < kTrials; ++trial) {
    adapt::AdaptiveMatrix mat(base_config(trace, start), opts);
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const sched::TraceOp& op : trace.ops) {
        const core::AccessBatch batch = op.batch();
        const std::size_t words =
            static_cast<std::size_t>(batch.count()) * lanes;
        if (op.dir == sched::TraceOp::Dir::kRead) {
          if (out.size() < words) out.resize(words);
          mat.read_batch(batch, std::span(out).first(words));
        } else {
          if (in.size() < words) in.resize(words, 0x5eed);
          mat.write_batch(batch, std::span(std::as_const(in)).first(words));
        }
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    walls.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    stats = mat.stats();
  }

  RunResult r;
  r.name = adaptive ? "adaptive"
                    : std::string("static-") + maf::scheme_name(start);
  r.wall_ms = bench::median(std::move(walls));
  r.batched = stats.batched_accesses;
  r.fallback = stats.fallback_accesses;
  r.migrations = stats.migrations_completed;
  r.aborted = stats.migrations_aborted;
  r.mismatched_words = stats.mismatched_words;
  r.final_scheme = stats.scheme;
  const std::uint64_t cells = static_cast<std::uint64_t>(
      base_config(trace, start).height * base_config(trace, start).width);
  r.modeled_cycles = r.batched + r.fallback * lanes +
                     r.migrations * (2 * cells / lanes);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  std::string trace_path = POLYMEM_PHASE_TRACE;
  std::string out_path = "BENCH_adaptive.json";
  int passes = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--passes" && i + 1 < argc) {
      passes = std::atoi(argv[++i]);
    } else {
      out_path = arg;
    }
  }
  if (passes <= 0) passes = tiny ? 1 : 8;

  sched::RecordedTrace trace;
  try {
    trace = sched::parse_trace_file(trace_path);
  } catch (const std::exception& e) {
    std::cerr << "bench_adaptive: " << e.what() << "\n";
    return 1;
  }

  // Untimed correctness pass: the replay harness diffs the migrating
  // engine against the host oracle from every starting scheme (each
  // migration verified band by band before its epoch flip).
  bool replay_ok = true;
  std::int64_t replay_migrations = 0;
  for (maf::Scheme scheme : maf::kAllSchemes) {
    replay::ReplayOptions ropts;
    ropts.scheme = scheme;
    ropts.adaptive = true;
    ropts.adaptive_window = kWindow;
    const replay::ReplayReport rep = replay::replay(trace, ropts);
    replay_ok = replay_ok && rep.verified();
    replay_migrations += rep.migrations;
    if (!rep.verified()) {
      std::cerr << "FAIL replay from " << maf::scheme_name(scheme) << ": "
                << rep.summary() << "\n";
    }
  }

  // Timed passes: five statics, then the adaptive engine.
  std::vector<RunResult> runs;
  for (maf::Scheme scheme : maf::kAllSchemes) {
    runs.push_back(run_engine(trace, scheme, /*adaptive=*/false, passes));
  }
  runs.push_back(run_engine(trace, maf::Scheme::kReO, /*adaptive=*/true,
                            passes));
  const RunResult& adaptive = runs.back();

  bool beats_cycles = true;
  bool beats_wall = true;
  for (std::size_t k = 0; k + 1 < runs.size(); ++k) {
    beats_cycles = beats_cycles && adaptive.modeled_cycles < runs[k].modeled_cycles;
    beats_wall = beats_wall && adaptive.wall_ms < runs[k].wall_ms;
  }
  const bool migrations_clean =
      adaptive.mismatched_words == 0 && adaptive.aborted == 0 &&
      adaptive.migrations > 0;

  std::ofstream out(out_path);
  json::Writer w(out);
  w.begin_object().field("benchmark", "polymem_adaptive_layout");
  w.field("tiny", tiny).field("trials", kTrials);
  w.begin_object("geometry").field("p", trace.p);
  w.field("q", trace.q).field("height", trace.height);
  w.field("width", trace.width).field("window", kWindow).end();
  w.begin_object("trace").field("ops", trace.ops.size());
  w.field("accesses", trace.accesses()).field("passes", passes);
  w.begin_array("phases").value("row").value("col").value("mdiag").end();
  w.end().begin_object("replay_verification");
  w.field("all_schemes_verified", replay_ok);
  w.field("migrations", replay_migrations).end();
  w.begin_array("runs");
  for (const RunResult& r : runs) {
    w.begin_object().field("config", r.name).field("wall_ms", r.wall_ms);
    w.field("modeled_cycles", r.modeled_cycles).field("batched", r.batched);
    w.field("fallback", r.fallback).field("migrations", r.migrations);
    w.field("aborted", r.aborted);
    w.field("mismatched_words", r.mismatched_words);
    w.field("final_scheme", maf::scheme_name(r.final_scheme)).end();
  }
  w.end().begin_object("gates");
  w.field("adaptive_beats_all_static_cycles", beats_cycles);
  w.field("adaptive_beats_all_static_wall", beats_wall);
  w.field("migrations_verified_clean", migrations_clean);
  w.end().end();
  out.close();

  for (const RunResult& r : runs) {
    std::cout << r.name << ": " << std::setprecision(4) << r.wall_ms
              << " ms, " << r.modeled_cycles << " cycles (" << r.batched
              << " batched, " << r.fallback << " fallback), " << r.migrations
              << " migrations -> " << maf::scheme_name(r.final_scheme)
              << "\n";
  }
  std::cout << "wrote " << out_path << "\n";

  if (!replay_ok) {
    std::cerr << "FAIL: adaptive replay diverged from the host oracle\n";
    return 1;
  }
  if (!migrations_clean) {
    std::cerr << "FAIL: migration aborted or differential oracle mismatch\n";
    return 1;
  }
  if (!beats_cycles) {
    std::cerr << "FAIL: adaptive lost to a static scheme on modeled cycles\n";
    return 1;
  }
  if (!tiny && !beats_wall) {
    std::cerr << "FAIL: adaptive lost to a static scheme on wall clock\n";
    return 1;
  }
  return 0;
}
