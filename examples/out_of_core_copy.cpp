// Out-of-core quick-start: copy a matrix 8x larger than the on-chip
// PolyMem through the software cache (src/cache).
//
// The README walk-through: both vectors live in simulated board DRAM
// (maxsim::LMem); PolyMem is split into source and destination frame
// pools by stream::out_of_core_copy, and the cache faults tiles in,
// evicts LRU, and (second run) prefetches the next tile, so the model
// hides its DRAM burst behind the PolyMem copy cycles.
#include <cstdio>
#include <vector>

#include "stream/out_of_core.hpp"

using namespace polymem;

int main() {
  core::PolyMemConfig cfg;
  cfg.scheme = maf::Scheme::kReRo;
  cfg.p = 2;
  cfg.q = 4;
  cfg.height = 32;
  cfg.width = 64;  // 2048 words on chip

  maxsim::LMem lmem(64u << 20);  // 64 MB board DRAM
  const std::int64_t rows = 256, cols = 64;  // 16384 words: 8x capacity
  const maxsim::LMemMatrix a{0, rows, cols, cols};
  const maxsim::LMemMatrix c{1u << 20, rows, cols, cols};

  // Initialise the source straight in LMem (row k holds k, k+1, ...).
  std::vector<hw::Word> row(static_cast<std::size_t>(cols));
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j)
      row[static_cast<std::size_t>(j)] = static_cast<hw::Word>(i + j);
    lmem.write(a.word_addr(i, 0), row);
  }

  std::printf("out-of-core copy: %lld x %lld words through a %lld x %lld "
              "PolyMem (%.0fx capacity)\n",
              static_cast<long long>(rows), static_cast<long long>(cols),
              static_cast<long long>(cfg.height),
              static_cast<long long>(cfg.width),
              static_cast<double>(rows * cols) / (cfg.height * cfg.width));

  // 1. Synchronous loads: every tile miss stalls on its DRAM burst.
  core::PolyMem mem_sync(cfg);
  const auto sync = stream::out_of_core_copy(lmem, mem_sync, a, c, {});

  // 2. Prefetch: the next tile is staged after each miss, and its burst
  //    overlaps the copy in the model.
  core::PolyMem mem_async(cfg);
  runtime::ThreadPool pool(2);
  const auto async = stream::out_of_core_copy(lmem, mem_async, a, c,
                                              {.prefetch_pool = &pool});

  for (const auto* r : {&sync, &async}) {
    const auto& cnt = r->src.counters();
    std::printf("  %-5s: verified=%s hit_rate=%.3f evictions=%llu "
                "prefetch=%llu/%llu modelled=%.3f ms\n",
                r == &sync ? "sync" : "async",
                r->verified ? "yes" : "NO", cnt.hit_rate(),
                static_cast<unsigned long long>(cnt.evictions),
                static_cast<unsigned long long>(cnt.prefetch_useful),
                static_cast<unsigned long long>(cnt.prefetch_issued),
                r->modelled_seconds(120e6) * 1e3);
  }
  std::printf("  prefetch hid %.4f ms of DRAM time\n",
              async.src.lmem_seconds_overlapped * 1e3);

  const bool ok = sync.verified && async.verified &&
                  async.modelled_seconds(120e6) <=
                      sync.modelled_seconds(120e6) + 1e-12;
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
