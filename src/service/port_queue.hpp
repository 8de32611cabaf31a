// Bounded per-port request queue with coalescing pop.
//
// The mgsim ParallelMemory idiom: every port owns a FIFO of requests;
// submitters push under the port mutex and the drain loop pops. The
// FIFO is a fixed ring buffer allocated once at construction — a
// bounded queue never needs to grow, and a deque's steady-state block
// churn (an allocation every few pushes at these request sizes) was
// measurable against the ~100 ns request budget. Two further
// deviations from mgsim earn their keep here:
//
//  - *Bounded with typed shedding.* try_push refuses with
//    Status::kOverloaded once `bound` requests are queued — admission
//    control instead of unbounded growth. It never blocks and never
//    drops silently; the caller decides whether to retry.
//  - *Coalescing pop.* pop_run removes the longest FIFO prefix that one
//    compiled ExecPlan can serve: same op, same pattern kind,
//    constant-stride anchors (core::BatchCoalescer), and — when the
//    queue is tile-constrained (sharded engines) — the same tile, so
//    the whole run translates to its cache frame with one offset. FIFO
//    order is preserved: a run is always a prefix, never a selection.
//
// Thread safety: any number of submitters, one drainer; every operation
// holds the single port mutex. Depth statistics (high-water mark, shed
// count) are maintained under the same mutex.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/stats.hpp"
#include "core/access_batch.hpp"
#include "service/request.hpp"

namespace polymem::service {

/// A Request annotated with its engine-assigned identity and stamps.
struct PendingRequest {
  Request request;
  RequestId id = 0;
  std::uint64_t submit_cycle = 0;
};

struct PortQueueStats {
  std::uint64_t pushed = 0;
  std::uint64_t shed = 0;
  std::uint64_t max_depth = 0;
};

class PortQueue {
 public:
  /// `bound` caps the queue depth (must be positive). Non-zero
  /// `tile_rows`/`tile_cols` constrain coalesced runs to anchors within
  /// one tile of that geometry (sharded engines; 0 means unconstrained).
  explicit PortQueue(std::size_t bound, std::int64_t tile_rows = 0,
                     std::int64_t tile_cols = 0);

  PortQueue(const PortQueue&) = delete;
  PortQueue& operator=(const PortQueue&) = delete;

  /// Status::kAccepted, or Status::kOverloaded when `bound` requests are
  /// already queued (the request is left untouched so the caller can
  /// retry or shed it).
  Status try_push(PendingRequest&& pending);

  /// Pops the longest coalescible FIFO prefix (at most `max_run`
  /// requests) into `run` (cleared first) and describes it as one
  /// strided AccessBatch in `batch`. Returns the run length; 0 when the
  /// queue is empty.
  std::size_t pop_run(std::size_t max_run, std::vector<PendingRequest>& run,
                      core::AccessBatch& batch);

  /// Pops every queued request (shutdown sweep).
  std::size_t pop_all(std::vector<PendingRequest>& run);

  std::size_t depth() const;
  bool empty() const { return depth() == 0; }
  PortQueueStats stats() const;

 private:
  bool same_tile(const access::Coord& a, const access::Coord& b) const;
  std::size_t slot(std::size_t offset) const {
    std::size_t s = head_ + offset;
    if (s >= bound_) s -= bound_;
    return s;
  }
  PendingRequest take_front() {
    PendingRequest out = std::move(ring_[head_]);
    head_ = slot(1);
    --size_;
    return out;
  }

  const std::size_t bound_;
  const std::int64_t tile_rows_;
  const std::int64_t tile_cols_;
  mutable std::mutex mutex_;
  std::vector<PendingRequest> ring_;  ///< fixed capacity bound_
  std::size_t head_ = 0;              ///< index of the FIFO front
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t shed_ = 0;
  HighWater depth_high_water_;
};

}  // namespace polymem::service
