// Out-of-core STREAM-Copy (paper Sec. V, beyond the on-chip design).
//
// The paper's STREAM implementation sizes its three vectors to fit the
// on-chip PolyMem. This variant removes that cap: both vectors live in
// LMem as row-major matrices of any size, and PolyMem is split into two
// frame regions — the top half caching the source, the bottom half the
// destination — managed by the software cache (cache::CachedMatrix).
// Copy then streams block rows through the cache; with prefetch enabled
// the model overlaps the next source tile's DRAM burst with the PolyMem
// copy of the current one (the host stages that tile on the calling
// thread, see cache/tile_cache.hpp).
#pragma once

#include <cstdint>

#include "cache/cached_matrix.hpp"

namespace polymem::stream {

struct OutOfCoreOptions {
  cache::EvictionKind eviction = cache::EvictionKind::kLru;
  cache::WritePolicy write_policy = cache::WritePolicy::kWriteBack;
  /// Non-null enables next-tile prefetch on the source cache, as
  /// cache::CacheOptions::prefetch_pool: the pool itself is not used.
  /// Null: every source tile loads on its miss.
  runtime::ThreadPool* prefetch_pool = nullptr;
  std::int64_t block_rows = 1;  ///< matrix rows moved per block access
  double clock_hz = 120e6;
};

struct OutOfCoreCopyReport {
  std::int64_t elements = 0;
  cache::CacheStats src;  ///< source cache accounting
  cache::CacheStats dst;  ///< destination cache accounting
  bool verified = false;  ///< LMem destination == LMem source afterwards

  /// Modelled wall time: critical-path DRAM seconds of both caches plus
  /// every PolyMem cycle at `clock_hz`.
  double modelled_seconds(double clock_hz) const {
    return src.effective_lmem_seconds() + dst.effective_lmem_seconds() +
           static_cast<double>(src.total_polymem_cycles() +
                               dst.total_polymem_cycles()) /
               clock_hz;
  }
  double bytes() const { return static_cast<double>(elements) * 8.0; }
};

/// STREAM-Copy c = a entirely out of core. `a` and `c` must have the same
/// shape and not overlap in LMem. Flushes the destination cache and
/// verifies c against a in LMem before returning.
OutOfCoreCopyReport out_of_core_copy(maxsim::LMem& lmem, core::PolyMem& mem,
                                     const maxsim::LMemMatrix& a,
                                     const maxsim::LMemMatrix& c,
                                     const OutOfCoreOptions& options = {});

}  // namespace polymem::stream
