#include "cache/tile_cache.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math.hpp"

namespace polymem::cache {

const char* eviction_name(EvictionKind kind) {
  switch (kind) {
    case EvictionKind::kLru: return "lru";
    case EvictionKind::kFifo: return "fifo";
  }
  return "?";
}

const char* write_policy_name(WritePolicy policy) {
  switch (policy) {
    case WritePolicy::kWriteBack: return "write-back";
    case WritePolicy::kWriteThrough: return "write-through";
  }
  return "?";
}

void TileCache::EvictionList::insert(int frame) {
  pos_[frame] = order_.insert(order_.end(), frame);
}

void TileCache::EvictionList::touch(int frame) {
  if (!move_on_touch_) return;
  const auto it = pos_.find(frame);
  POLYMEM_REQUIRE(it != pos_.end(), "access to a frame not in the order");
  order_.splice(order_.end(), order_, it->second);
}

void TileCache::EvictionList::erase(int frame) {
  const auto it = pos_.find(frame);
  POLYMEM_REQUIRE(it != pos_.end(), "erase of a frame not in the order");
  order_.erase(it->second);
  pos_.erase(it);
}

int TileCache::EvictionList::victim() const {
  POLYMEM_REQUIRE(!order_.empty(), "no frame to evict");
  return order_.front();
}

TileCache::TileCache(maxsim::LMem& lmem, core::PolyMem& mem,
                     const maxsim::LMemMatrix& matrix,
                     core::FramePool frames, CacheOptions options)
    : lmem_(&lmem),
      mem_(&mem),
      matrix_(matrix),
      frames_(frames),
      options_(options),
      dma_(lmem, mem),
      tiles_i_(ceil_div(matrix.rows, frames.tile_rows())),
      tiles_j_(ceil_div(matrix.cols, frames.tile_cols())),
      order_(options.eviction == EvictionKind::kLru) {
  POLYMEM_REQUIRE(options.eviction == EvictionKind::kLru ||
                      options.eviction == EvictionKind::kFifo,
                  "unknown eviction kind");
  POLYMEM_REQUIRE(matrix.rows >= 1 && matrix.cols >= 1,
                  "cached matrix must be non-empty");
  POLYMEM_REQUIRE(matrix.leading_dim >= matrix.cols,
                  "bad leading dimension");
  POLYMEM_REQUIRE(options.clock_hz > 0, "clock must be positive");
  frame_table_.resize(static_cast<std::size_t>(frames_.frames()));
  // Free list popped from the back: frame 0 is handed out first.
  for (int f = frames_.frames() - 1; f >= 0; --f) free_frames_.push_back(f);
}

std::int64_t TileCache::clipped_rows(std::int64_t ti) const {
  return std::min(frames_.tile_rows(),
                  matrix_.rows - ti * frames_.tile_rows());
}

std::int64_t TileCache::clipped_cols(std::int64_t tj) const {
  return std::min(frames_.tile_cols(),
                  matrix_.cols - tj * frames_.tile_cols());
}

bool TileCache::resident(std::int64_t ti, std::int64_t tj) const {
  return residency_.count(tile_key(ti, tj)) > 0;
}

TileCache::TileRef TileCache::acquire(std::int64_t ti, std::int64_t tj) {
  POLYMEM_REQUIRE(ti >= 0 && ti < tiles_i_ && tj >= 0 && tj < tiles_j_,
                  "tile coordinate outside the matrix");
  const std::int64_t key = tile_key(ti, tj);
  TileRef ref;
  ref.ti = ti;
  ref.tj = tj;
  ref.rows = clipped_rows(ti);
  ref.cols = clipped_cols(tj);

  if (const auto it = residency_.find(key); it != residency_.end()) {
    ++stats_.dma.cache.hits;
    order_.touch(it->second);
    ref.frame = it->second;
    ref.origin = frames_.frame_origin(it->second);
    return ref;
  }
  ++stats_.dma.cache.misses;

  const int frame = take_frame();
  if (staged_.ti == ti && staged_.tj == tj) {
    install_prefetched(frame);
  } else {
    stats_.dma += dma_.load_tile(matrix_, ti * frames_.tile_rows(),
                                 tj * frames_.tile_cols(), ref.rows,
                                 ref.cols, frames_.frame_origin(frame));
  }

  residency_[key] = frame;
  frame_table_[static_cast<std::size_t>(frame)] = {ti, tj, false};
  order_.insert(frame);
  ref.frame = frame;
  ref.origin = frames_.frame_origin(frame);

  // Sequential next-tile prediction: the next tile in row-major tile
  // order. Issued after the install, so in the modelled system the burst
  // overlaps the kernel's work on the tile we just returned.
  if (options_.prefetch_pool != nullptr) {
    std::int64_t ni = ti, nj = tj + 1;
    if (nj == tiles_j_) {
      ni = ti + 1;
      nj = 0;
    }
    if (ni < tiles_i_) issue_prefetch(ni, nj);
  }
  return ref;
}

int TileCache::take_frame() {
  if (!free_frames_.empty()) {
    const int frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  const int victim = order_.victim();
  evict(victim);
  free_frames_.pop_back();
  return victim;
}

void TileCache::evict(int frame) {
  Frame& slot = frame_table_[static_cast<std::size_t>(frame)];
  POLYMEM_REQUIRE(slot.ti >= 0, "evicting a free frame");
  if (slot.dirty) write_back(frame);
  ++stats_.dma.cache.evictions;
  residency_.erase(tile_key(slot.ti, slot.tj));
  order_.erase(frame);
  slot = Frame{};
  free_frames_.push_back(frame);
}

void TileCache::write_back(int frame) {
  Frame& slot = frame_table_[static_cast<std::size_t>(frame)];
  stats_.dma += dma_.store_tile(
      matrix_, slot.ti * frames_.tile_rows(), slot.tj * frames_.tile_cols(),
      clipped_rows(slot.ti), clipped_cols(slot.tj),
      frames_.frame_origin(frame));
  ++stats_.dma.cache.writebacks;
  slot.dirty = false;
}

void TileCache::mark_dirty(int frame) {
  Frame& slot = frame_table_[static_cast<std::size_t>(frame)];
  POLYMEM_REQUIRE(slot.ti >= 0, "dirtying a free frame");
  if (options_.write_policy == WritePolicy::kWriteBack) slot.dirty = true;
}

void TileCache::write_through(std::int64_t i, std::int64_t j,
                              std::span<const hw::Word> data) {
  POLYMEM_REQUIRE(i >= 0 && i < matrix_.rows && j >= 0 &&
                      j + static_cast<std::int64_t>(data.size()) <=
                          matrix_.cols,
                  "write-through outside the matrix");
  lmem_->write(matrix_.word_addr(i, j), data);
  stats_.dma.lmem_seconds += lmem_->burst_seconds(data.size() * 8);
}

void TileCache::note_kernel_accesses(std::uint64_t accesses,
                                     std::uint64_t words) {
  stats_.kernel_accesses += accesses;
  stats_.kernel_words += words;
}

void TileCache::flush() {
  // Burst-friendly order (Ferry et al., PAPERS.md): write back in
  // ascending LMem address, i.e. (ti, tj) lexicographic — consecutive
  // tiles of a row band land in consecutive DRAM regions, so the burst
  // stream stays monotone instead of hopping with frame-table order.
  std::vector<int> dirty;
  for (int f = 0; f < frames_.frames(); ++f)
    if (frame_table_[static_cast<std::size_t>(f)].dirty) dirty.push_back(f);
  std::sort(dirty.begin(), dirty.end(), [this](int a, int b) {
    const Frame& fa = frame_table_[static_cast<std::size_t>(a)];
    const Frame& fb = frame_table_[static_cast<std::size_t>(b)];
    return tile_key(fa.ti, fa.tj) < tile_key(fb.ti, fb.tj);
  });
  std::int64_t prev_key = -2;
  for (int f : dirty) {
    const Frame& slot = frame_table_[static_cast<std::size_t>(f)];
    const std::int64_t key = tile_key(slot.ti, slot.tj);
    if (key != prev_key + 1) ++stats_.dma.cache.flush_runs;
    prev_key = key;
    write_back(f);
  }
}

void TileCache::invalidate() {
  if (staged_.ti >= 0) ++stats_.dma.cache.prefetch_dropped;
  staged_.ti = staged_.tj = -1;
  for (int f = 0; f < frames_.frames(); ++f) {
    Frame& slot = frame_table_[static_cast<std::size_t>(f)];
    if (slot.ti < 0) continue;
    residency_.erase(tile_key(slot.ti, slot.tj));
    order_.erase(f);
    slot = Frame{};
    free_frames_.push_back(f);
  }
}

void TileCache::issue_prefetch(std::int64_t ti, std::int64_t tj) {
  if (resident(ti, tj)) return;
  if (staged_.ti >= 0) {
    if (staged_.ti == ti && staged_.tj == tj) return;  // already staged
    ++stats_.dma.cache.prefetch_dropped;  // stale staging, overwrite
  }
  staged_.ti = staged_.tj = -1;  // until the whole tile is read
  const std::int64_t rows = clipped_rows(ti);
  const std::int64_t cols = clipped_cols(tj);
  const std::int64_t row0 = ti * frames_.tile_rows();
  const std::int64_t col0 = tj * frames_.tile_cols();
  staged_.data.resize(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r)
    lmem_->read(matrix_.word_addr(row0 + r, col0),
                std::span<hw::Word>(staged_.data)
                    .subspan(static_cast<std::size_t>(r * cols),
                             static_cast<std::size_t>(cols)));
  staged_.ti = ti;
  staged_.tj = tj;
  staged_.rows = rows;
  staged_.cols = cols;
  staged_.lmem_seconds =
      lmem_->burst_seconds(static_cast<std::uint64_t>(rows) * cols * 8);
  staged_.issue_cycles = stats_.total_polymem_cycles();
  ++stats_.dma.cache.prefetch_issued;
}

void TileCache::install_prefetched(int frame) {
  // Overlap credit first: PolyMem cycles spent since the issue bound the
  // DRAM time the prefetch hid from the critical path.
  const std::uint64_t cycles_since =
      stats_.total_polymem_cycles() - staged_.issue_cycles;
  stats_.lmem_seconds_overlapped +=
      std::min(staged_.lmem_seconds,
               static_cast<double>(cycles_since) / options_.clock_hz);
  stats_.dma += dma_.write_staged(staged_.data, staged_.rows, staged_.cols,
                                  frames_.frame_origin(frame));
  stats_.dma.lmem_seconds += staged_.lmem_seconds;
  ++stats_.dma.cache.prefetch_useful;
  staged_.ti = staged_.tj = -1;
}

CacheStats TileCache::stats() const { return stats_; }

}  // namespace polymem::cache
