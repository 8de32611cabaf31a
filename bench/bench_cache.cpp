// Software-cache benchmark runner; emits BENCH_cache.json (committed at
// the repo root).
//
// Two workloads on the modelled timing (LMem burst seconds + PolyMem
// cycles at 120 MHz — deterministic run to run):
//
//  1. stream_copy: the out-of-core STREAM-Copy (working set 8x the
//     on-chip capacity), synchronous loads vs async prefetch on a thread
//     pool. Prefetch overlap is credited only for DRAM time hidden
//     behind PolyMem cycles, so "async no slower than sync" is a real
//     check, not an identity.
//  2. row_sweep: repeated sequential row reads through CachedMatrix,
//     against two baselines computed from the same timing model:
//     DMA-per-access (every row is its own DRAM burst, no cache) and
//     in-core (the whole matrix magically resident after one load — the
//     lower bound no cache can beat).
//
// Every workload verifies its data against a host mirror; a divergence
// (or a hit rate of zero, or async slower than sync) exits nonzero so CI
// can gate on the smoke invocation (--tiny).
//
// Usage: bench_cache [--tiny] [output.json]   (default BENCH_cache.json)
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "apps/matvec_ooc.hpp"
#include "cache/cached_matrix.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "stream/out_of_core.hpp"

namespace {

using namespace polymem;

constexpr double kClockHz = 120e6;

core::PolyMemConfig pm_cfg() {
  core::PolyMemConfig c;
  c.scheme = maf::Scheme::kReRo;
  c.p = 2;
  c.q = 4;
  c.height = 32;
  c.width = 64;
  return c;
}

void fill_random(maxsim::LMem& lmem, const maxsim::LMemMatrix& m,
                 std::vector<hw::Word>* mirror, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<hw::Word> row(static_cast<std::size_t>(m.cols));
  for (std::int64_t i = 0; i < m.rows; ++i) {
    for (auto& w : row) w = rng.bits();
    lmem.write(m.word_addr(i, 0), row);
    if (mirror) mirror->insert(mirror->end(), row.begin(), row.end());
  }
}

struct CopySide {
  stream::OutOfCoreCopyReport report;
  double modelled_s = 0;
  double gb_per_s = 0;
};

CopySide run_copy(std::int64_t rows, std::int64_t cols,
                  runtime::ThreadPool* pool) {
  maxsim::LMem lmem(64u << 20);
  core::PolyMem mem(pm_cfg());
  const maxsim::LMemMatrix a{0, rows, cols, cols};
  const maxsim::LMemMatrix c{static_cast<std::uint64_t>(2 * rows * cols),
                             rows, cols, cols};
  fill_random(lmem, a, nullptr, 2024);

  CopySide side;
  side.report = stream::out_of_core_copy(
      lmem, mem, a, c,
      {.prefetch_pool = pool, .block_rows = 1, .clock_hz = kClockHz});
  side.modelled_s = side.report.modelled_seconds(kClockHz);
  side.gb_per_s = side.report.bytes() / side.modelled_s / 1e9;
  return side;
}

struct SweepResult {
  cache::CacheStats stats;
  bool verified = true;
  double cached_s = 0, dma_per_access_s = 0, in_core_s = 0;
  double bytes = 0;
};

SweepResult run_row_sweep(std::int64_t rows, std::int64_t cols, int sweeps) {
  maxsim::LMem lmem(64u << 20);
  core::PolyMem mem(pm_cfg());
  const maxsim::LMemMatrix m{0, rows, cols, cols};
  std::vector<hw::Word> mirror;
  mirror.reserve(static_cast<std::size_t>(rows * cols));
  fill_random(lmem, m, &mirror, 4242);

  cache::CachedMatrix cached(lmem, mem, m,
                             core::FramePool::default_tiling(mem.config()),
                             {.clock_hz = kClockHz});
  SweepResult r;
  std::vector<hw::Word> buf(static_cast<std::size_t>(cols));
  for (int s = 0; s < sweeps; ++s)
    for (std::int64_t i = 0; i < rows; ++i) {
      cached.read_row(i, 0, buf);
      for (std::int64_t j = 0; j < cols; ++j)
        if (buf[static_cast<std::size_t>(j)] !=
            mirror[static_cast<std::size_t>(i * cols + j)])
          r.verified = false;
    }

  r.stats = cached.stats();
  r.bytes = static_cast<double>(sweeps) * rows * cols * 8.0;
  const double kernel_s =
      static_cast<double>(r.stats.kernel_accesses) / kClockHz;
  r.cached_s = r.stats.effective_lmem_seconds() +
               static_cast<double>(r.stats.total_polymem_cycles()) / kClockHz;
  // Baseline 1: no cache — every row read is its own DRAM burst plus the
  // same kernel-side parallel accesses.
  r.dma_per_access_s =
      static_cast<double>(sweeps) * rows *
          lmem.burst_seconds(static_cast<std::uint64_t>(cols) * 8) +
      kernel_s;
  // Baseline 2: in-core — one whole-matrix burst, then pure PolyMem.
  r.in_core_s =
      lmem.burst_seconds(static_cast<std::uint64_t>(rows) * cols * 8) +
      kernel_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  std::string out_path = "BENCH_cache.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny")
      tiny = true;
    else
      out_path = arg;
  }

  const auto cfg = pm_cfg();
  const std::int64_t capacity = cfg.height * cfg.width;
  // Copy working set: 8x capacity per vector (2x under --tiny).
  const std::int64_t copy_rows = tiny ? 2 * capacity / 64 : 8 * capacity / 64;
  const std::int64_t sweep_rows = copy_rows;
  const std::int64_t cols = 64;
  const int sweeps = tiny ? 2 : 4;

  runtime::ThreadPool pool(2);
  const CopySide sync = run_copy(copy_rows, cols, nullptr);
  const CopySide async = run_copy(copy_rows, cols, &pool);
  const SweepResult sweep = run_row_sweep(sweep_rows, cols, sweeps);

  const auto& sc = sync.report.src.counters();
  const auto& ac = async.report.src.counters();
  const bool async_not_slower = async.modelled_s <= sync.modelled_s + 1e-12;
  const double sweep_hit_rate = sweep.stats.counters().hit_rate();

  const double cached_gb_per_s = sweep.bytes / sweep.cached_s / 1e9;
  const double dma_gb_per_s = sweep.bytes / sweep.dma_per_access_s / 1e9;
  const double in_core_gb_per_s = sweep.bytes / sweep.in_core_s / 1e9;
  const double overlapped_ms = async.report.src.lmem_seconds_overlapped * 1e3;
  std::ofstream out(out_path);
  json::Writer w(out);
  w.begin_object().field("benchmark", "polymem_software_cache");
  w.field("tiny", tiny).begin_object("geometry").field("scheme", "ReRo");
  w.field("p", 2).field("q", 4).field("height", cfg.height);
  w.field("width", cfg.width).field("capacity_words", capacity);
  w.field("matrix_rows", copy_rows).field("matrix_cols", cols);
  w.field("working_set_x_capacity",
          static_cast<double>(copy_rows * cols) / capacity)
      .end();
  w.begin_object("stream_copy").field("elements", sync.report.elements);
  w.begin_object("sync").field("verified", sync.report.verified);
  w.field("hit_rate", sc.hit_rate()).field("evictions", sc.evictions);
  w.field("modelled_ms", sync.modelled_s * 1e3);
  w.field("gb_per_s", sync.gb_per_s).end();
  w.begin_object("async").field("verified", async.report.verified);
  w.field("hit_rate", ac.hit_rate()).field("evictions", ac.evictions);
  w.field("modelled_ms", async.modelled_s * 1e3);
  w.field("gb_per_s", async.gb_per_s);
  w.field("prefetch_issued", ac.prefetch_issued);
  w.field("prefetch_useful", ac.prefetch_useful);
  w.field("overlapped_ms", overlapped_ms).end();
  w.field("async_not_slower", async_not_slower).end();
  w.begin_object("row_sweep").field("sweeps", sweeps);
  w.field("verified", sweep.verified).field("hit_rate", sweep_hit_rate);
  w.field("evictions", sweep.stats.counters().evictions);
  w.field("cached_ms", sweep.cached_s * 1e3);
  w.field("cached_gb_per_s", cached_gb_per_s);
  w.field("dma_per_access_ms", sweep.dma_per_access_s * 1e3);
  w.field("dma_per_access_gb_per_s", dma_gb_per_s);
  w.field("in_core_ms", sweep.in_core_s * 1e3);
  w.field("in_core_gb_per_s", in_core_gb_per_s);
  w.field("speedup_vs_dma_per_access", sweep.dma_per_access_s / sweep.cached_s);
  w.end().end();
  out.close();

  std::cout << std::setprecision(4) << "stream_copy: sync "
            << sync.modelled_s * 1e3 << " ms, async "
            << async.modelled_s * 1e3 << " ms (overlap " << overlapped_ms
            << " ms), hit rate " << sc.hit_rate() << "\n"
            << "row_sweep: cached " << cached_gb_per_s
            << " GB/s vs dma-per-access " << dma_gb_per_s
            << " GB/s vs in-core " << in_core_gb_per_s << " GB/s, hit rate "
            << sweep_hit_rate << "\n"
            << "wrote " << out_path << "\n";

  if (!sync.report.verified || !async.report.verified || !sweep.verified) {
    std::cerr << "FAIL: data divergence\n";
    return 1;
  }
  if (sc.hit_rate() <= 0.0 || sweep_hit_rate <= 0.0) {
    std::cerr << "FAIL: cache never hit\n";
    return 1;
  }
  if (!async_not_slower) {
    std::cerr << "FAIL: async prefetch slower than synchronous loads\n";
    return 1;
  }
  return 0;
}
