#include "service/port_queue.hpp"

#include <bit>

#include "common/error.hpp"

namespace polymem::service {

PortQueue::PortQueue(std::size_t bound, std::int64_t tile_rows,
                     std::int64_t tile_cols)
    : bound_(bound), tile_rows_(tile_rows), tile_cols_(tile_cols) {
  // The upper limit keeps bit_ceil defined; no bound near it could be
  // allocated anyway.
  POLYMEM_REQUIRE(bound > 0 && bound <= (std::size_t{1} << 40),
                  "port queue bound must be in [1, 2^40]");
  POLYMEM_REQUIRE((tile_rows == 0) == (tile_cols == 0),
                  "tile constraint needs both dimensions (or neither)");
  mask_ = std::bit_ceil(bound) - 1;
  slots_ = std::make_unique<Slot[]>(mask_ + 1);
}

Status PortQueue::try_push(PendingRequest&& pending, std::uint64_t* position) {
  std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  std::uint64_t head = 0;
  do {
    head = head_.load(std::memory_order_acquire);
    // A stale `pos` can trail `head` (others claimed and the drain popped
    // since); the signed distance is then negative and the CAS fails.
    if (static_cast<std::int64_t>(pos - head) >=
        static_cast<std::int64_t>(bound_)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::kOverloaded;
    }
  } while (!tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed));
  // pos - head < bound <= slots: the drain popped position pos - slots
  // and released head past it, so this slot's old request is moved out.
  Slot& s = slot(pos);
  s.value = std::move(pending);
  s.value.position = pos;
  s.stamp.store(pos + 1, std::memory_order_release);

  const std::uint64_t depth = pos + 1 - head;
  std::uint64_t seen = max_depth_.load(std::memory_order_relaxed);
  while (depth > seen && !max_depth_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
  if (position != nullptr) *position = pos;
  return Status::kAccepted;
}

bool PortQueue::same_tile(const access::Coord& a,
                          const access::Coord& b) const {
  if (tile_rows_ == 0) return true;
  return a.i / tile_rows_ == b.i / tile_rows_ &&
         a.j / tile_cols_ == b.j / tile_cols_;
}

std::size_t PortQueue::pop_run(std::size_t max_run,
                               std::vector<PendingRequest>& run,
                               core::AccessBatch& batch) {
  run.clear();
  core::BatchCoalescer coalescer;
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  while (run.size() < max_run) {
    Slot& s = slot(head);
    if (s.stamp.load(std::memory_order_acquire) != head + 1) break;
    const Request& next = s.value.request;
    if (!run.empty() && (next.op != run.front().request.op ||
                         !same_tile(run.front().request.where.anchor,
                                    next.where.anchor))) {
      break;
    }
    if (!coalescer.try_add(next.where)) break;
    run.push_back(std::move(s.value));
    ++head;
  }
  if (run.empty()) return 0;
  head_.store(head, std::memory_order_release);
  batch = coalescer.take();
  return run.size();
}

std::size_t PortQueue::pop_all(std::vector<PendingRequest>& run) {
  run.clear();
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  for (;; ++head) {
    Slot& s = slot(head);
    if (s.stamp.load(std::memory_order_acquire) != head + 1) break;
    run.push_back(std::move(s.value));
  }
  head_.store(head, std::memory_order_release);
  return run.size();
}

std::size_t PortQueue::depth() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  return static_cast<std::size_t>(tail_.load(std::memory_order_seq_cst) -
                                  head);
}

PortQueueStats PortQueue::stats() const {
  return {tail_.load(std::memory_order_relaxed),
          shed_.load(std::memory_order_relaxed),
          rejected_.load(std::memory_order_relaxed),
          max_depth_.load(std::memory_order_relaxed)};
}

}  // namespace polymem::service
