#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace polymem::runtime {

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::submit(std::function<void()> task) {
  // Design rule 3: a pool of size 0 degrades to serial execution. Without
  // workers a queued task would never run (and wait_idle would block
  // forever), so run it on the caller right away.
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    POLYMEM_REQUIRE(!stop_, "submit on a stopped ThreadPool");
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing left to drain
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    lock.unlock();
    task();
    lock.lock();
    --running_;
    if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
  }
}

namespace detail {

ParallelForJob::ParallelForJob(std::int64_t begin, std::int64_t end,
                               unsigned participants, std::int64_t grain)
    : grain_(std::max<std::int64_t>(1, grain)) {
  // One contiguous sub-range per participant, remainder spread over the
  // leading ranges — participant w starts near w/participants of the way
  // through, like a static schedule, and stealing repairs any imbalance.
  ranges_.reserve(participants);
  const std::int64_t total = end - begin;
  const std::int64_t base = total / participants;
  const std::int64_t extra = total % participants;
  std::int64_t at = begin;
  for (unsigned w = 0; w < participants; ++w) {
    auto range = std::make_unique<WorkRange>();
    range->next = at;
    at += base + (w < static_cast<unsigned>(extra) ? 1 : 0);
    range->end = at;
    ranges_.push_back(std::move(range));
  }
  POLYMEM_ASSERT(at == end);
}

bool ParallelForJob::claim(unsigned worker, std::int64_t& lo,
                          std::int64_t& hi) {
  // Own range first (front, cache-friendly order).
  WorkRange& own = *ranges_[worker];
  {
    std::lock_guard<std::mutex> lock(own.lock);
    if (own.next < own.end) {
      lo = own.next;
      hi = std::min(own.end, own.next + grain_);
      own.next = hi;
      return true;
    }
  }
  // Steal: take the upper half of the fullest remaining range. Re-scan
  // until every range is empty — another participant may split a range
  // between our scan and our lock. Ranges are locked one at a time (never
  // nested), so thieves stealing from each other's ranges cannot deadlock.
  for (;;) {
    WorkRange* victim = nullptr;
    std::int64_t best_left = 0;
    for (const auto& range : ranges_) {
      std::lock_guard<std::mutex> lock(range->lock);
      const std::int64_t left = range->end - range->next;
      if (left > best_left) {
        best_left = left;
        victim = range.get();
      }
    }
    if (victim == nullptr) return false;
    std::int64_t steal_lo = 0, steal_hi = 0;
    {
      std::lock_guard<std::mutex> lock(victim->lock);
      const std::int64_t left = victim->end - victim->next;
      if (left <= 0) continue;  // drained between scan and lock; rescan
      if (left <= grain_) {
        // Too small to split: take it whole.
        steal_lo = victim->next;
        steal_hi = victim->end;
        victim->next = victim->end;
      } else {
        const std::int64_t mid = victim->next + left / 2;
        steal_lo = mid;
        steal_hi = victim->end;
        victim->end = mid;
      }
    }
    if (steal_hi - steal_lo <= grain_) {
      lo = steal_lo;
      hi = steal_hi;
      return true;
    }
    // Deposit the loot beyond the first chunk into our own (drained)
    // range, after releasing the victim's lock, so future claims chunk it
    // by `grain` and other thieves can re-steal from it.
    lo = steal_lo;
    hi = steal_lo + grain_;
    WorkRange& mine = *ranges_[worker];
    std::lock_guard<std::mutex> lock(mine.lock);
    mine.next = hi;
    mine.end = steal_hi;
    return true;
  }
}

void ParallelForJob::record_exception(std::exception_ptr error) {
  cancelled_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(done_mutex_);
  if (!error_) error_ = std::move(error);
}

void ParallelForJob::participant_done() {
  std::lock_guard<std::mutex> lock(done_mutex_);
  ++done_count_;
  done_cv_.notify_all();
}

void ParallelForJob::wait_and_rethrow(unsigned participants) {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [&] { return done_count_ == participants; });
  if (error_) std::rethrow_exception(error_);
}

}  // namespace detail

}  // namespace polymem::runtime
