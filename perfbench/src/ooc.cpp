// ooc_copy: out-of-core STREAM-Copy c = a through two cache::CachedMatrix.
//
// Both vectors are kRows x kCols row-major matrices in LMem, 16x the
// on-chip capacity of the ReRo 2x4 32x64 PolyMem each. As in
// stream::out_of_core_copy, the top half of the PolyMem caches the source
// and the bottom half the destination (two full-width frames each); the
// source cache prefetches the next tile on a 1-worker pool, both caches
// are LRU write-back. A trial copies row block by row block (read_block
// from a, write_block to c), then flush()es the destination; caches are
// built fresh per trial, so every trial does identical modeled work.
// After each trial (untimed) c is compared with the host copy of a and
// zeroed for the next trial.
#include <algorithm>
#include <memory>
#include <optional>

#include "cache/cached_matrix.hpp"
#include "common/rng.hpp"
#include "core/polymem.hpp"
#include "maxsim/lmem.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace polymem;
using hw::Word;

constexpr std::int64_t kRows = 512;
constexpr std::int64_t kCols = 64;
constexpr std::int64_t kBlockRows = 1;

core::PolyMemConfig pm_cfg() {
  core::PolyMemConfig c;
  c.scheme = maf::Scheme::kReRo;
  c.p = 2;
  c.q = 4;
  c.height = 32;
  c.width = 64;
  return c;
}

const maxsim::LMemMatrix kA{0, kRows, kCols, kCols};
const maxsim::LMemMatrix kC{static_cast<std::uint64_t>(2 * kRows * kCols),
                            kRows, kCols, kCols};

std::vector<Word> make_source(std::uint64_t seed) {
  Rng rng(runtime::derive_seed(seed, 5));
  std::vector<Word> a(static_cast<std::size_t>(kRows * kCols));
  for (Word& w : a) w = rng.bits();
  return a;
}

struct Setup {
  std::vector<Word> source;  ///< host copy of a: the oracle
  std::unique_ptr<maxsim::LMem> lmem;
  std::unique_ptr<core::PolyMem> mem;
  /// The kernel-side accesses of one block: kBlockRows rows of full-width
  /// row accesses (what CachedMatrix issues on a resident frame).
  core::AccessBatch block_batch;
};

Setup make_setup(std::uint64_t seed) {
  Setup s;
  s.source = make_source(seed);
  s.lmem = std::make_unique<maxsim::LMem>(64u << 20);
  s.lmem->write(kA.word_addr(0, 0), s.source);
  s.mem = std::make_unique<core::PolyMem>(pm_cfg());
  const auto lanes = static_cast<std::int64_t>(s.mem->lanes());
  s.block_batch = {access::PatternKind::kRow, {0, 0}, {0, lanes},
                   kCols / lanes, {1, 0}, kBlockRows};
  return s;
}

struct Copy {
  cache::CacheStats src, dst;
  double modeled_seconds() const {
    return src.effective_lmem_seconds() + dst.effective_lmem_seconds() +
           static_cast<double>(src.total_polymem_cycles() +
                               dst.total_polymem_cycles()) /
               kClockHz;
  }
};

struct Pass {
  TrialLatency latency;
  std::vector<Word> buf = std::vector<Word>(kBlockRows * kCols);
  std::uint64_t failed = 0;
  std::optional<Copy> first;  ///< the first trial's (every trial's alike)
};

TrialOutcome trial(Setup& s, runtime::ThreadPool& pool,
                   const std::vector<Word>& oracle, Pass& pass, Tracer* tr) {
  const auto& cfg = s.mem->config();
  const std::int64_t half = cfg.height / 2;
  const std::int64_t tile_rows = half / 2;
  const core::FramePool src_frames(cfg, {0, 0}, half, cfg.width, tile_rows,
                                   cfg.width);
  const core::FramePool dst_frames(cfg, {half, 0}, half, cfg.width, tile_rows,
                                   cfg.width);
  cache::CacheOptions sopt;
  sopt.prefetch_pool = &pool;
  sopt.clock_hz = kClockHz;
  cache::CacheOptions dopt = sopt;
  dopt.prefetch_pool = nullptr;  // write-only: prefetching c wastes bursts
  cache::CachedMatrix src(*s.lmem, *s.mem, kA, src_frames, sopt);
  cache::CachedMatrix dst(*s.lmem, *s.mem, kC, dst_frames, dopt);

  const std::int64_t t0 = now_ns();
  for (std::int64_t r = 0; r < kRows; r += kBlockRows) {
    const std::int64_t ts = now_ns();
    {
      Scope sp(tr, "cache.read_block", static_cast<std::uint64_t>(r));
      src.read_block(r, 0, kBlockRows, kCols, pass.buf);
    }
    {
      Scope sp(tr, "cache.write_block", static_cast<std::uint64_t>(r));
      dst.write_block(r, 0, kBlockRows, kCols, pass.buf);
    }
    pass.latency.add(static_cast<std::uint64_t>(now_ns() - ts));
  }
  {
    Scope sp(tr, "cache.flush");
    dst.flush();
  }
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  pass.latency.end_trial();
  if (!pass.first) pass.first = Copy{src.stats(), dst.stats()};

  // Untimed: c must equal a; then clear c so the next trial's check
  // cannot pass on stale data.
  std::vector<Word> row(static_cast<std::size_t>(kCols));
  const std::vector<Word> zeros(row.size(), 0);
  for (std::int64_t r = 0; r < kRows; ++r) {
    s.lmem->read(kC.word_addr(r, 0), row);
    pass.failed += !std::equal(
        row.begin(), row.end(),
        oracle.begin() + static_cast<std::ptrdiff_t>(r * kCols));
    s.lmem->write(kC.word_addr(r, 0), zeros);
  }
  return {static_cast<double>(kRows * kCols), secs};
}

}  // namespace

std::string ooc_input_bytes(std::uint64_t seed) {
  const std::vector<Word> a = make_source(seed);
  return std::string(reinterpret_cast<const char*>(a.data()),
                     a.size() * sizeof(Word));
}

RunResult run_ooc_copy(const RunConfig& cfg) {
  Setup s;
  const auto build = [&] {
    s = Setup{};
    s = make_setup(cfg.seed);
  };
  SetupClock setup;
  setup.run(build);
  std::vector<Word> oracle = s.source;
  if (cfg.corrupt_oracle) oracle[0] ^= 1;
  runtime::ThreadPool pool(1);

  RunResult r;
  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Pass pass;
  const TrialStats ts = run_trials(
      budget, [&](int) { return trial(s, pool, oracle, pass, nullptr); });
  const double rss = peak_rss_mb();
  r.attempted = static_cast<std::uint64_t>(kRows / kBlockRows) *
                static_cast<std::uint64_t>(ts.trials());
  const Copy& first = *pass.first;
  const double bytes = static_cast<double>(kRows * kCols) * 8;
  const double modeled_gb_per_s = bytes / first.modeled_seconds() / 1e9;

  if (!cfg.trace) {
    r.failed = pass.failed;
    EndToEnd e;
    e.words_per_s = ts.rate();
    e.latency_p50_ns = pass.latency.p50();
    e.latency_p99_ns = pass.latency.p99();
    e.modeled_gb_per_s = modeled_gb_per_s;
    e.peak_rss_mb = rss;
    r.modeled.push_back({"modeled_gb_per_s", modeled_gb_per_s, "GB/s"});
    setup.run(build);
    e.setup_s = setup.seconds();
    e.emit(r);
    return r;
  }

  Tracer tr(0);
  Pass tpass;
  const TrialStats tts = run_trials(
      budget, [&](int) { return trial(s, pool, oracle, tpass, &tr); });
  r.attempted += static_cast<std::uint64_t>(kRows / kBlockRows) *
                 static_cast<std::uint64_t>(tts.trials());
  r.failed = pass.failed + tpass.failed;

  // core.batch_ns_per_acc: one trial's kernel-side block accesses (a read
  // and a write per block) straight through PolyMem::read_batch /
  // write_batch on a resident memory.
  core::PolyMem mem(pm_cfg());
  const core::AccessBatch& batch = s.block_batch;
  std::vector<Word> words(static_cast<std::size_t>(batch.count()) *
                          mem.lanes());
  for (std::int64_t r0 = 0; r0 < kRows; r0 += kBlockRows) {
    Scope sp(&tr, "core.batch", static_cast<std::uint64_t>(r0));
    mem.read_batch(batch, 0, words);
    mem.write_batch(batch, words);
  }
  const double core_acc = 2.0 * static_cast<double>(kRows / kBlockRows) *
                          static_cast<double>(batch.count());

  const Copy& c = *tpass.first;
  const CacheCounters& sc = c.src.counters();
  const CacheCounters& dc = c.dst.counters();
  const double hits = static_cast<double>(sc.hits + dc.hits);
  const double misses = static_cast<double>(sc.misses + dc.misses);
  LayerMetrics m;
  m.set("core.batch_ns_per_acc", tr.agg("core.batch").total_ns / core_acc);
  m.set("cache.read_block_ns_p50", tr.agg("cache.read_block").hist.percentile(50));
  m.set("cache.read_block_ns_p99", tr.agg("cache.read_block").hist.percentile(99));
  m.set("cache.write_block_ns_p50",
        tr.agg("cache.write_block").hist.percentile(50));
  m.set("cache.write_block_ns_p99",
        tr.agg("cache.write_block").hist.percentile(99));
  m.set("cache.flush_ms", tr.agg("cache.flush").hist.percentile(50) * 1e-6);
  m.set("cache.hit_rate", hits / std::max(1.0, hits + misses));
  m.set("cache.evictions", static_cast<double>(sc.evictions + dc.evictions));
  m.set("cache.writebacks", static_cast<double>(sc.writebacks + dc.writebacks));
  m.set("cache.prefetch_useful_frac",
        static_cast<double>(sc.prefetch_useful) /
            std::max<double>(1, static_cast<double>(sc.prefetch_issued)));
  m.set("cache.flush_runs", static_cast<double>(dc.flush_runs));
  m.set("maxsim.lmem_ms",
        (c.src.dma.lmem_seconds + c.dst.dma.lmem_seconds) * 1e3);
  m.set("maxsim.lmem_overlapped_ms",
        (c.src.lmem_seconds_overlapped + c.dst.lmem_seconds_overlapped) * 1e3);
  m.set("maxsim.polymem_cycles",
        static_cast<double>(c.src.total_polymem_cycles() +
                            c.dst.total_polymem_cycles()));
  m.set("maxsim.dma_words", static_cast<double>(c.src.dma.words + c.dst.dma.words));
  m.set("maxsim.lmem_pages", static_cast<double>(s.lmem->resident_pages()));
  m.set("trace_overhead_frac", trace_overhead(ts.rate(), tts.rate()));
  m.emit(r, {"cache.hit_rate", "cache.evictions", "cache.writebacks",
             "cache.prefetch_useful_frac", "cache.flush_runs",
             "maxsim.lmem_ms", "maxsim.lmem_overlapped_ms",
             "maxsim.polymem_cycles", "maxsim.dma_words",
             "maxsim.lmem_pages"});
  r.modeled.push_back({"modeled_gb_per_s",
                       bytes / c.modeled_seconds() / 1e9, "GB/s"});
  write_spans(cfg, {&tr});
  return r;
}

}  // namespace perfbench
