// Bounded per-port request queue with coalescing pop.
//
// The mgsim ParallelMemory idiom: every port owns a FIFO of requests;
// submitters push and the drain loop pops. The FIFO is Vyukov's bounded
// queue over a power-of-two array of sequence-stamped slots, allocated
// once at construction, and it takes no lock: a submitter claims a ring
// position with one compare-and-swap on the port's tail, moves its
// request into the slot and publishes it by storing the slot's stamp
// (position + 1) with release. The single drainer pops a slot once its
// stamp says the position it expects was published, so a queue whose
// next slot is unpublished costs the drain one load of a line no
// submitter is writing. Submitters write the tail's line and the slots
// they claim; the drainer writes the head's line and moves requests out
// of slots. Two further deviations from mgsim earn their keep here:
//
//  - *Bounded with typed shedding.* try_push refuses with
//    Status::kOverloaded once `bound` requests are queued — admission
//    control instead of unbounded growth. The bound is checked against
//    the drain's published head, not against the slot array, so it is
//    exact for any bound (the array rounds up to a power of two, and a
//    one-slot Vyukov ring would otherwise overwrite an unconsumed
//    item). It never blocks and never drops silently; the caller
//    decides whether to retry.
//  - *Coalescing pop.* pop_run removes the longest published FIFO
//    prefix that one read_batch / write_batch call can serve: same op,
//    same pattern kind, constant-stride anchors (core::BatchCoalescer),
//    and — when the queue is tile-constrained (sharded engines) — the
//    same tile, so the whole run translates to its cache frame with one
//    offset. FIFO order is preserved: a run is always a prefix, never a
//    selection.
//
// Thread safety: any number of submitters (FIFO in the order their
// claims succeed, so per submitter in submit order), one drainer
// (pop_run / pop_all). depth(), empty() and stats() may be read from any
// thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/access_batch.hpp"
#include "service/request.hpp"

namespace polymem::service {

/// A Request annotated with its queue position and submit stamp.
struct PendingRequest {
  Request request;
  /// Ring position the submitter claimed (set by try_push): 0, 1, 2, ...
  /// in the port's FIFO order.
  std::uint64_t position = 0;
  std::uint64_t submit_cycle = 0;
};

struct PortQueueStats {
  std::uint64_t pushed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;  ///< malformed requests refused on this port
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

  /// Status::kAccepted (the claimed position written to `position` when
  /// non-null), or Status::kOverloaded when `bound` requests are already
  /// queued (the request is left untouched so the caller can retry or
  /// shed it). The claiming compare-and-swap is seq_cst: it is the
  /// submit side of the engine's park/recheck pair.
  Status try_push(PendingRequest&& pending, std::uint64_t* position = nullptr);

  /// Counts a request the engine refused before queueing it (kRejected).
  void note_rejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }

  /// Pops the longest coalescible published FIFO prefix (at most
  /// `max_run` requests) into `run` (cleared first) and describes it as
  /// one strided AccessBatch in `batch`. Returns the run length; 0 when
  /// the next request is not published yet.
  std::size_t pop_run(std::size_t max_run, std::vector<PendingRequest>& run,
                      core::AccessBatch& batch);

  /// Pops every published request (shutdown sweep).
  std::size_t pop_all(std::vector<PendingRequest>& run);

  /// Claimed and not yet popped, published or not. The tail load is
  /// seq_cst: the drain's recheck before it parks pairs it with
  /// try_push's claim.
  std::size_t depth() const;
  bool empty() const { return depth() == 0; }
  PortQueueStats stats() const;

 private:
  struct Slot {
    /// position + 1 once the request for `position` is published.
    std::atomic<std::uint64_t> stamp{0};
    PendingRequest value;
  };

  bool same_tile(const access::Coord& a, const access::Coord& b) const;
  Slot& slot(std::uint64_t position) { return slots_[position & mask_]; }

  const std::uint64_t bound_;
  const std::int64_t tile_rows_;
  const std::int64_t tile_cols_;
  std::uint64_t mask_ = 0;  ///< slot count - 1 (a power of two)
  std::unique_ptr<Slot[]> slots_;

  // Written by submitters: the next position to claim (pushed = tail_)
  // and the admission counters.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> max_depth_{0};

  // Written by the drainer: the next position to pop. Submitters read it
  // (acquire) to enforce the bound and to reuse a slot only after its
  // previous request was moved out.
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

}  // namespace polymem::service
