// phase_adaptive: a seeded three-phase trace on an adapt::AdaptiveMatrix.
//
// 256x256 words (512 KiB per epoch), 2x4 lanes, starting on ReO,
// migrations inline (no pool: the flip points, and so every modeled
// counter, are a function of the seed alone). Both epochs and the write
// payloads fit a 2 MiB per-core L2. Larger matrices live in the host's
// shared last-level cache, where a fallback op's scattered loads move
// with the neighbours' memory traffic: at 1024x1024 latency_p99_ns swung
// by a third from run to run, at 512x512 latency_p50_ns drifted by a
// quarter within minutes. One trace pass is kPhaseCycles cycles of
//   rows:  every row once as a full-row sweep, in seeded order; every
//          fourth sweep is a write;
//   cols:  every column once as a full-column sweep, in seeded order;
//   diags: every main-diagonal sweep starting on the top row or the left
//          column, in seeded order.
// No static 2x4 scheme serves all three, so the profiler (window
// kWindow, which passes the policy's payback test at this size), the
// policy, the migration copy/verify and the fallback path do the work.
//
// The trace uses the polymem-trace v1 canonical data model (fill =
// canonical_cell, write payloads = canonical_write_word), so host_replay
// is its oracle and the emitted .trace file replays under
// `polymem_replay --scheme ReO --adaptive --window 512`. A trial is one
// pass over the trace on the
// same matrix; writes are idempotent across passes, so the final image is
// host_replay's whatever the pass count.
#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>

#include "adapt/adaptive_matrix.hpp"
#include "common/rng.hpp"
#include "replay/replay.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/trace_io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace polymem;
using hw::Word;
using sched::TraceOp;

constexpr std::int64_t kSize = 256;
constexpr unsigned kP = 2, kQ = 4;
/// A phase is kSize * kSize / lanes accesses = 16 windows; a migration
/// (2 * cells / lanes = 16384 slots) pays back within the policy's 8
/// windows once a window is mismatched (7 * kWindow slots saved each).
constexpr std::int64_t kWindow = 512;
constexpr int kPhaseCycles = 2;
constexpr maf::Scheme kStart = maf::Scheme::kReO;

core::PolyMemConfig pm_cfg(maf::Scheme scheme) {
  core::PolyMemConfig c;
  c.scheme = scheme;
  c.p = kP;
  c.q = kQ;
  c.height = kSize;
  c.width = kSize;
  return c;
}

adapt::AdaptiveOptions adaptive_options() {
  adapt::AdaptiveOptions o;
  o.profiler.window = kWindow;
  o.verify_migrations = true;
  o.pool = nullptr;
  return o;
}

/// Fisher-Yates over [0, n) with the library's seeded Rng.
std::vector<std::int64_t> permutation(std::int64_t n, Rng& rng) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) v[static_cast<std::size_t>(k)] = k;
  for (std::int64_t k = n - 1; k > 0; --k)
    std::swap(v[static_cast<std::size_t>(k)],
              v[static_cast<std::size_t>(rng.uniform(0, k))]);
  return v;
}

sched::RecordedTrace make_trace(std::uint64_t seed) {
  const std::int64_t lanes = kP * kQ;
  sched::RecordedTrace t;
  t.p = kP;
  t.q = kQ;
  t.height = kSize;
  t.width = kSize;
  // The trace format reads its seed as a signed 64-bit integer.
  t.seed = runtime::derive_seed(seed, 7) >> 1;
  Rng rng(runtime::derive_seed(seed, 0x9a5e));

  // Diagonal sweeps: from (0, d) and (d, 0), stepping one diagonal
  // access (lanes elements) at a time while it stays in the space.
  std::vector<access::Coord> diag_starts;
  for (std::int64_t d = 0; d + lanes <= kSize; ++d) diag_starts.push_back({0, d});
  for (std::int64_t d = 1; d + lanes <= kSize; ++d) diag_starts.push_back({d, 0});

  for (int cycle = 0; cycle < kPhaseCycles; ++cycle) {
    const auto rows = permutation(kSize, rng);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      t.ops.push_back({k % 4 == 3 ? TraceOp::Dir::kWrite : TraceOp::Dir::kRead,
                       access::PatternKind::kRow,
                       {rows[k], 0},
                       {0, lanes},
                       kSize / lanes,
                       std::nullopt});
    }
    for (const std::int64_t j : permutation(kSize, rng)) {
      t.ops.push_back({TraceOp::Dir::kRead, access::PatternKind::kCol,
                       {0, j}, {lanes, 0}, kSize / lanes, std::nullopt});
    }
    const auto order =
        permutation(static_cast<std::int64_t>(diag_starts.size()), rng);
    for (const std::int64_t k : order) {
      const access::Coord s = diag_starts[static_cast<std::size_t>(k)];
      const std::int64_t len = (kSize - std::max(s.i, s.j)) / lanes;
      t.ops.push_back({TraceOp::Dir::kRead, access::PatternKind::kMainDiag, s,
                       {lanes, lanes}, len, std::nullopt});
    }
  }
  return t;
}

struct Inputs {
  sched::RecordedTrace trace;
  std::vector<core::AccessBatch> batches;    ///< one per op
  std::vector<Word> payloads;                ///< every write op's words
  std::vector<std::size_t> payload_offset;   ///< per op (writes only)
  std::size_t max_words = 0;                 ///< largest op, in words
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.trace = make_trace(seed);
  const std::int64_t lanes = kP * kQ;
  in.batches.reserve(in.trace.ops.size());
  in.payload_offset.assign(in.trace.ops.size(), 0);
  for (std::size_t k = 0; k < in.trace.ops.size(); ++k) {
    const TraceOp& op = in.trace.ops[k];
    in.batches.push_back(op.batch());
    const std::int64_t words = op.count * lanes;
    in.max_words = std::max(in.max_words, static_cast<std::size_t>(words));
    if (op.dir != TraceOp::Dir::kWrite) continue;
    in.payload_offset[k] = in.payloads.size();
    for (std::int64_t w = 0; w < words; ++w)
      in.payloads.push_back(sched::canonical_write_word(
          in.trace.seed, static_cast<std::int64_t>(k), w));
  }
  return in;
}

std::unique_ptr<adapt::AdaptiveMatrix> make_matrix(const Inputs& in) {
  auto m = std::make_unique<adapt::AdaptiveMatrix>(pm_cfg(kStart),
                                                   adaptive_options());
  std::vector<Word> fill(static_cast<std::size_t>(kSize * kSize));
  for (std::int64_t i = 0; i < kSize; ++i)
    for (std::int64_t j = 0; j < kSize; ++j)
      fill[static_cast<std::size_t>(i * kSize + j)] =
          sched::canonical_cell(in.trace.seed, kSize, {i, j});
  m->fill_rect({0, 0}, kSize, kSize, fill);
  return m;
}

/// What a traced pass learns per op beyond its span.
struct OpLedger {
  double batched_ns = 0, fallback_ns = 0;
  std::uint64_t batched_acc = 0, fallback_acc = 0;
  std::vector<double> migration_ms;
  /// (op, scheme) of every supported op of the first traced pass, for the
  /// core replay.
  std::vector<std::pair<std::size_t, maf::Scheme>> supported;
};

struct Pass {
  TrialLatency latency;
  std::vector<Word> out;
};

TrialOutcome trial(adapt::AdaptiveMatrix& mat, const Inputs& in, Pass& pass,
                   Tracer* tr, OpLedger* ledger, bool first) {
  const unsigned lanes = mat.lanes();
  const auto words_total = static_cast<double>(in.trace.words());
  double secs = 0;
  for (std::size_t k = 0; k < in.trace.ops.size(); ++k) {
    const core::AccessBatch& batch = in.batches[k];
    const auto words = static_cast<std::size_t>(batch.count()) * lanes;
    const bool is_write = in.trace.ops[k].dir == TraceOp::Dir::kWrite;
    bool supported = false;
    std::uint64_t epoch = 0;
    maf::Scheme scheme = kStart;
    if (ledger) {
      supported = mat.run_supported(batch);
      epoch = mat.epoch();
      scheme = mat.scheme();
    }
    const std::int64_t t0 = now_ns();
    {
      Scope s(tr, is_write ? "adapt.write_batch" : "adapt.read_batch", k);
      if (is_write) {
        mat.write_batch(batch, std::span<const Word>(in.payloads)
                                   .subspan(in.payload_offset[k], words));
      } else {
        mat.read_batch(batch, std::span<Word>(pass.out).first(words));
      }
    }
    const std::int64_t dt = now_ns() - t0;
    secs += static_cast<double>(dt) * 1e-9;
    pass.latency.add(static_cast<std::uint64_t>(dt));
    if (!ledger) continue;
    if (mat.epoch() != epoch) {
      ledger->migration_ms.push_back(static_cast<double>(dt) * 1e-6);
    } else if (supported) {
      ledger->batched_ns += static_cast<double>(dt);
      ledger->batched_acc += static_cast<std::uint64_t>(batch.count());
      if (first) ledger->supported.emplace_back(k, scheme);
    } else {
      ledger->fallback_ns += static_cast<double>(dt);
      ledger->fallback_acc += static_cast<std::uint64_t>(batch.count());
    }
  }
  pass.latency.end_trial();
  return {words_total, secs};
}

/// Modeled cycles of a pass (the adaptive bench's model): a batched
/// access is 1 cycle, a fallback access lanes cycles, a migration one
/// full-matrix copy (2 * cells / lanes).
struct Modeled {
  std::uint64_t batched = 0, fallback = 0, migrations = 0, verified = 0,
                mismatched = 0, windows = 0;
  double cycles() const {
    const double lanes = kP * kQ;
    const double cells = static_cast<double>(kSize * kSize);
    return static_cast<double>(batched) +
           static_cast<double>(fallback) * lanes +
           static_cast<double>(migrations) * 2 * cells / lanes;
  }
};

Modeled delta(const adapt::AdaptiveStats& a, const adapt::AdaptiveStats& b) {
  return {b.batched_accesses - a.batched_accesses,
          b.fallback_accesses - a.fallback_accesses,
          b.migrations_completed - a.migrations_completed,
          b.verified_words - a.verified_words,
          b.mismatched_words - a.mismatched_words,
          b.windows_profiled - a.windows_profiled};
}

/// The correctness checks: the final image against host_replay, and an
/// untimed adaptive replay of the trace against the host oracle. Writes
/// the checksummed trace to out_dir for polymem_replay.
std::uint64_t check(const RunConfig& cfg, Inputs& in,
                    std::initializer_list<const adapt::AdaptiveMatrix*> mats) {
  sched::HostReplay host = sched::host_replay(in.trace);
  for (std::size_t k = 0; k < in.trace.ops.size(); ++k)
    in.trace.ops[k].checksum = host.checksums[k];
  if (cfg.corrupt_oracle) host.memory[0] ^= 1;

  std::uint64_t failed = 0;
  std::vector<Word> image(host.memory.size());
  for (const adapt::AdaptiveMatrix* mat : mats) {
    mat->dump_rect({0, 0}, kSize, kSize, image);
    for (std::size_t k = 0; k < image.size(); ++k)
      failed += image[k] != host.memory[k];
  }

  replay::ReplayOptions ro;
  ro.scheme = kStart;
  ro.adaptive = true;
  ro.adaptive_window = kWindow;
  const replay::ReplayReport rep = replay::replay(in.trace, ro);
  if (!rep.verified()) {
    failed += static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, rep.data_mismatches +
                                      rep.checksum_mismatches +
                                      rep.migration_mismatches));
  }
  if (!cfg.out_dir.empty()) {
    sched::write_trace_file(cfg.out_dir + "/phase_adaptive-" +
                                std::to_string(cfg.seed) + ".trace",
                            in.trace);
  }
  return failed;
}

}  // namespace

std::string phase_input_bytes(std::uint64_t seed) {
  const Inputs in = make_inputs(seed);
  std::string out = sched::trace_to_string(in.trace);
  out.append(reinterpret_cast<const char*>(in.payloads.data()),
             in.payloads.size() * sizeof(Word));
  return out;
}

RunResult run_phase_adaptive(const RunConfig& cfg) {
  Inputs in;
  std::unique_ptr<adapt::AdaptiveMatrix> mat;
  const auto build = [&] {
    mat.reset();
    in = make_inputs(cfg.seed);
    mat = make_matrix(in);
  };
  SetupClock setup;
  setup.run(build);

  RunResult r;
  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Pass pass;
  pass.out.resize(in.max_words);
  Modeled first;
  const TrialStats ts = run_trials(budget, [&](int k) {
    const adapt::AdaptiveStats before = k == 0 ? mat->stats()
                                               : adapt::AdaptiveStats{};
    const TrialOutcome o = trial(*mat, in, pass, nullptr, nullptr, false);
    if (k == 0) first = delta(before, mat->stats());
    return o;
  });
  const double rss = peak_rss_mb();
  r.attempted = in.trace.ops.size() * static_cast<std::uint64_t>(ts.trials());
  const double bytes = static_cast<double>(in.trace.words()) * 8;

  if (!cfg.trace) {
    r.failed = check(cfg, in, {mat.get()}) + first.mismatched;
    EndToEnd e;
    e.words_per_s = ts.rate();
    e.latency_p50_ns = pass.latency.p50();
    e.latency_p99_ns = pass.latency.p99();
    e.modeled_gb_per_s = bytes / (first.cycles() / kClockHz) / 1e9;
    e.peak_rss_mb = rss;
    r.modeled.push_back({"modeled_gb_per_s", e.modeled_gb_per_s, "GB/s"});
    setup.run(build);
    e.setup_s = setup.seconds();
    e.emit(r);
    return r;
  }

  // Traced pass on a fresh matrix from the starting scheme, so its first
  // trial repeats the untraced first trial exactly.
  auto traced = make_matrix(in);
  Tracer tr(0);
  OpLedger ledger;
  Modeled tfirst;
  const TrialStats tts = run_trials(budget, [&](int k) {
    const adapt::AdaptiveStats before = k == 0 ? traced->stats()
                                               : adapt::AdaptiveStats{};
    const TrialOutcome o = trial(*traced, in, pass, &tr, &ledger, k == 0);
    if (k == 0) tfirst = delta(before, traced->stats());
    return o;
  });
  r.attempted += in.trace.ops.size() * static_cast<std::uint64_t>(tts.trials());

  // core.batch_ns_per_acc: the first traced pass's supported ops replayed
  // straight through PolyMem::read_batch / write_batch, one static memory
  // per scheme the matrix was on.
  std::map<maf::Scheme, std::unique_ptr<core::PolyMem>> mems;
  for (const auto& [k, scheme] : ledger.supported)
    if (!mems.count(scheme))
      mems[scheme] = std::make_unique<core::PolyMem>(pm_cfg(scheme));
  std::uint64_t core_acc = 0;
  for (const auto& [k, scheme] : ledger.supported) {
    core::PolyMem& mem = *mems[scheme];
    const core::AccessBatch& batch = in.batches[k];
    const auto words = static_cast<std::size_t>(batch.count()) * mem.lanes();
    Scope s(&tr, "core.batch", k);
    if (in.trace.ops[k].dir == TraceOp::Dir::kWrite) {
      mem.write_batch(batch, std::span<const Word>(in.payloads)
                                 .subspan(in.payload_offset[k], words));
    } else {
      mem.read_batch(batch, 0, std::span<Word>(pass.out).first(words));
    }
    core_acc += static_cast<std::uint64_t>(batch.count());
  }
  mems.clear();

  r.failed = check(cfg, in, {mat.get(), traced.get()}) +
             first.mismatched + tfirst.mismatched;
  LayerMetrics m;
  m.set("core.batch_ns_per_acc",
        core_acc ? tr.agg("core.batch").total_ns / static_cast<double>(core_acc)
                 : 0);
  m.set("adapt.migration_ms", median(ledger.migration_ms));
  m.set("adapt.batched_share",
        static_cast<double>(tfirst.batched) /
            static_cast<double>(std::max<std::uint64_t>(
                1, tfirst.batched + tfirst.fallback)));
  m.set("adapt.batched_ns_per_acc",
        ledger.batched_acc ? ledger.batched_ns / ledger.batched_acc : 0);
  m.set("adapt.fallback_ns_per_acc",
        ledger.fallback_acc ? ledger.fallback_ns / ledger.fallback_acc : 0);
  m.set("adapt.migrations", static_cast<double>(tfirst.migrations));
  m.set("adapt.verified_words", static_cast<double>(tfirst.verified));
  m.set("adapt.mismatched_words", static_cast<double>(tfirst.mismatched));
  m.set("adapt.windows_profiled", static_cast<double>(tfirst.windows));
  m.set("trace_overhead_frac", trace_overhead(ts.rate(), tts.rate()));
  m.emit(r, {"adapt.batched_share", "adapt.migrations",
             "adapt.verified_words", "adapt.mismatched_words",
             "adapt.windows_profiled"});
  r.modeled.push_back(
      {"modeled_gb_per_s", bytes / (tfirst.cycles() / kClockHz) / 1e9, "GB/s"});
  write_spans(cfg, {&tr});
  return r;
}

}  // namespace perfbench
