#include "service/port_queue.hpp"

#include "common/error.hpp"

namespace polymem::service {

PortQueue::PortQueue(std::size_t bound, std::int64_t tile_rows,
                     std::int64_t tile_cols)
    : bound_(bound), tile_rows_(tile_rows), tile_cols_(tile_cols) {
  POLYMEM_REQUIRE(bound > 0, "port queue bound must be positive");
  POLYMEM_REQUIRE((tile_rows == 0) == (tile_cols == 0),
                  "tile constraint needs both dimensions (or neither)");
  ring_.resize(bound);
}

Status PortQueue::try_push(PendingRequest&& pending) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (size_ >= bound_) {
    ++shed_;
    return Status::kOverloaded;
  }
  ring_[slot(size_)] = std::move(pending);
  ++size_;
  ++pushed_;
  depth_high_water_.record(size_);
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
  const std::lock_guard<std::mutex> lock(mutex_);
  if (size_ == 0) return 0;
  const Op op = ring_[head_].request.op;
  const access::Coord first = ring_[head_].request.where.anchor;
  while (run.size() < max_run && size_ > 0) {
    const PendingRequest& next = ring_[head_];
    if (next.request.op != op) break;
    if (!same_tile(first, next.request.where.anchor)) break;
    if (!coalescer.try_add(next.request.where)) break;
    run.push_back(take_front());
  }
  batch = coalescer.take();
  return run.size();
}

std::size_t PortQueue::pop_all(std::vector<PendingRequest>& run) {
  run.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  while (size_ > 0) run.push_back(take_front());
  return run.size();
}

std::size_t PortQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

PortQueueStats PortQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {pushed_, shed_, depth_high_water_.max()};
}

}  // namespace polymem::service
