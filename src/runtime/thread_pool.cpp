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
