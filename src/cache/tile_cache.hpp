// Out-of-core software cache: tile residency over LMem.
//
// The paper presents PolyMem as "a high-bandwidth, 2D parallel software
// cache" between the board DRAM and the kernel (Fig. 1, Sec. II-B). The
// seed reproduction stopped at raw DMA tile moves, capping every workload
// at the on-chip capacity; TileCache adds the missing controller. It
// manages the PolyMem 2D space as a pool of fixed-geometry frames
// (core::FramePool) caching tiles of one row-major LMem matrix:
//
//  - a *residency map* from matrix tile coordinates to frames, so matrix
//    (i, j) translates to a PolyMem coordinate in O(1);
//  - LRU or FIFO *eviction* (one frame list; LRU also moves a touched
//    frame to the back) with dirty-tile tracking and write-back vs
//    write-through policies;
//  - sequential next-tile *prefetch*: after a miss, the next tile in
//    row-major tile order is staged out of LMem into a slot buffer, so
//    the miss that asks for it installs it without a refill. In the
//    modelled system the burst overlaps the kernel's work on the tile
//    just returned; the hidden part of LMem::burst_seconds,
//    min(burst, PolyMem cycles since issue / clock), is accounted
//    separately (stats().lmem_seconds_overlapped) so benchmarks can
//    report the overlap win honestly.
//
// The staging runs on the calling thread. On the simulator the burst is
// a copy: staging a 512-word tile from LMem takes ~0.1 us, while handing
// it to a sleeping pool worker cost the caller 1.3-3.6 us (p10-p50) in
// ThreadPool::submit alone (4-thread Xeon), so a worker only made faults
// slower. The modelled overlap does not depend on which host thread
// moves the words.
//
// TileCache is single-threaded: one thread calls acquire/flush and every
// other member. LMem is internally synchronized, so caches on different
// threads may share one board memory; PolyMem is only ever touched by
// the consumer thread.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "core/frame_pool.hpp"
#include "core/polymem.hpp"
#include "maxsim/dma.hpp"
#include "maxsim/lmem.hpp"
#include "runtime/thread_pool.hpp"

namespace polymem::cache {

enum class EvictionKind : std::uint8_t { kLru, kFifo };
enum class WritePolicy : std::uint8_t { kWriteBack, kWriteThrough };

const char* eviction_name(EvictionKind kind);
const char* write_policy_name(WritePolicy policy);

struct CacheOptions {
  EvictionKind eviction = EvictionKind::kLru;
  WritePolicy write_policy = WritePolicy::kWriteBack;
  /// Non-null enables sequential next-tile prefetch. The pool itself is
  /// no longer used: the prefetch stages its tile on the calling thread
  /// (see the file comment).
  runtime::ThreadPool* prefetch_pool = nullptr;
  /// Clock used to convert PolyMem cycles elapsed while a prefetch was in
  /// flight into the DRAM time it hid (paper Sec. V: 120 MHz design).
  double clock_hz = 120e6;
};

/// Aggregate accounting of a cache session. `dma` sums every refill and
/// write-back (its `cache` member carries the event counters);
/// `kernel_accesses` are the consumer-side PolyMem parallel accesses the
/// cache served from resident frames.
struct CacheStats {
  maxsim::DmaStats dma;
  std::uint64_t kernel_accesses = 0;
  std::uint64_t kernel_words = 0;
  double lmem_seconds_overlapped = 0;

  const CacheCounters& counters() const { return dma.cache; }
  /// DRAM time on the critical path: total bursts minus what prefetch hid.
  double effective_lmem_seconds() const {
    return dma.lmem_seconds - lmem_seconds_overlapped;
  }
  /// Every PolyMem cycle spent (refills, write-backs and kernel accesses).
  std::uint64_t total_polymem_cycles() const {
    return dma.polymem_cycles + kernel_accesses;
  }
};

class TileCache {
 public:
  /// Caches tiles of `matrix` (resident in `lmem`) in the frames of
  /// `frames` (a region of `mem`). The matrix is tiled in
  /// tile_rows x tile_cols steps from its top-left corner; edge tiles are
  /// clipped. The frame pool, LMem and PolyMem must outlive the cache.
  /// Destruction does NOT flush dirty tiles — call flush() when the LMem
  /// copy must be current.
  TileCache(maxsim::LMem& lmem, core::PolyMem& mem,
            const maxsim::LMemMatrix& matrix, core::FramePool frames,
            CacheOptions options = {});

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// A resident tile: its frame, PolyMem origin and clipped extent.
  struct TileRef {
    int frame = -1;
    access::Coord origin;     ///< frame origin in PolyMem
    std::int64_t rows = 0;    ///< actual tile rows (edge tiles clipped)
    std::int64_t cols = 0;
    std::int64_t ti = 0, tj = 0;
  };

  /// Ensures tile (ti, tj) is resident (refilling and evicting as
  /// needed) and returns its frame. Counts one hit or one miss.
  TileRef acquire(std::int64_t ti, std::int64_t tj);

  /// Marks a frame's tile as modified (write-back policy tracks it for
  /// eviction/flush; under write-through the caller is expected to also
  /// call write_through with the new data).
  void mark_dirty(int frame);

  /// Writes `data` straight to LMem at matrix row `i`, columns
  /// [j, j + data.size()), accounting the burst — the write-through half
  /// of a store.
  void write_through(std::int64_t i, std::int64_t j,
                     std::span<const hw::Word> data);

  /// Consumer-side PolyMem access accounting (CachedMatrix reports the
  /// parallel accesses it issued against resident frames here).
  void note_kernel_accesses(std::uint64_t accesses, std::uint64_t words);

  /// Writes every dirty tile back to LMem (no-op under write-through).
  /// Dirty tiles go back in ascending LMem address order — consecutive
  /// tiles coalesce into long contiguous DRAM burst runs
  /// (counters().flush_runs counts the runs; 1 == perfectly contiguous).
  void flush();

  /// Drops all residency without writing anything back.
  void invalidate();

  bool resident(std::int64_t ti, std::int64_t tj) const;

  const maxsim::LMemMatrix& matrix() const { return matrix_; }
  const core::FramePool& frames() const { return frames_; }
  const CacheOptions& options() const { return options_; }
  core::PolyMem& polymem() { return *mem_; }
  std::int64_t tiles_i() const { return tiles_i_; }
  std::int64_t tiles_j() const { return tiles_j_; }

  /// Snapshot of the aggregate accounting. An issued-but-unconsumed
  /// prefetch is not yet in the DMA totals (it merges on install).
  CacheStats stats() const;

 private:
  struct Frame {
    std::int64_t ti = -1, tj = -1;  ///< resident tile; -1 = free
    bool dirty = false;
  };

  /// Eviction order over resident frame ids, one list for both policies:
  /// frames enter at the back and the victim is the front; LRU
  /// (move_on_touch) also moves a touched frame to the back.
  class EvictionList {
   public:
    explicit EvictionList(bool move_on_touch)
        : move_on_touch_(move_on_touch) {}
    void insert(int frame);  ///< frame became resident
    void touch(int frame);   ///< resident frame was hit
    void erase(int frame);   ///< frame was evicted or invalidated
    int victim() const;      ///< next frame to displace

   private:
    std::list<int> order_;
    std::unordered_map<int, std::list<int>::iterator> pos_;
    bool move_on_touch_;
  };

  /// The prefetched tile, staged out of LMem when the prefetch was
  /// issued and installed by the miss that asks for it.
  struct Staged {
    std::int64_t ti = -1, tj = -1;      ///< staged tile; -1 = none
    std::int64_t rows = 0, cols = 0;
    std::vector<hw::Word> data;          ///< staged row-major tile
    double lmem_seconds = 0;
    std::uint64_t issue_cycles = 0;      ///< total cycles at issue time
  };

  std::int64_t tile_key(std::int64_t ti, std::int64_t tj) const {
    return ti * tiles_j_ + tj;
  }
  std::int64_t clipped_rows(std::int64_t ti) const;
  std::int64_t clipped_cols(std::int64_t tj) const;
  int take_frame();                      ///< free frame or evicted victim
  void evict(int frame);
  void write_back(int frame);
  void issue_prefetch(std::int64_t ti, std::int64_t tj);
  /// Installs the staged tile into `frame` (counts as a refill whose
  /// burst happened off the critical path).
  void install_prefetched(int frame);

  maxsim::LMem* lmem_;
  core::PolyMem* mem_;
  maxsim::LMemMatrix matrix_;
  core::FramePool frames_;
  CacheOptions options_;
  maxsim::DmaEngine dma_;
  std::int64_t tiles_i_;
  std::int64_t tiles_j_;

  std::vector<Frame> frame_table_;
  std::vector<int> free_frames_;
  std::unordered_map<std::int64_t, int> residency_;
  EvictionList order_;

  Staged staged_;
  CacheStats stats_;
};

}  // namespace polymem::cache
