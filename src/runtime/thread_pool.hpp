// Parallel execution runtime (docs/ARCHITECTURE.md, "Parallel runtime").
//
// The paper's design is parallel twice over — p*q independent BRAM banks
// per access and up to four replicated read ports (Fig. 3) — and the DSE
// grid of Sec. IV is a set of fully independent design points. This module
// is the host-side mirror of that parallelism: a small thread pool plus a
// deterministic `parallel_for` that the DSE sweep (dse/explorer.hpp) runs
// on; the service drain runs as a pool task. A PolyMem's engine stays on
// one thread (core/polymem.hpp).
//
// Design rules, in priority order:
//  1. *Determinism.* Work is identified by its index, never by the worker
//     that ran it: results land in slot `i`, and randomized workloads
//     derive their RNG stream from `derive_seed(seed, i)` — so any thread
//     count (including 1) produces bit-identical output.
//  2. *One shared counter.* parallel_for's participants claim the next
//     index from one atomic counter, so a participant that finishes early
//     simply claims more: irregular items (DSE points whose PolyMem
//     capacity varies 8x) balance with no per-participant ranges.
//  3. *The caller works too.* parallel_for enlists the calling thread as
//     participant 0, so a pool of size 0 degrades to plain serial
//     execution with zero synchronisation surprises — that is the
//     reference path the differential tests compare against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace polymem::runtime {

/// A fixed-size pool of worker threads consuming submitted tasks.
/// Tasks are arbitrary callables; parallel_for (below) is the structured
/// entry point virtually all library code uses.
class ThreadPool {
 public:
  /// `threads` worker threads (0 is valid: every operation then runs on
  /// the calling thread).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Host hardware concurrency (at least 1).
  static unsigned hardware_threads();

  /// Enqueues one task. Tasks must not throw (parallel_for wraps user
  /// callables and routes their exceptions; raw submit is for internal
  /// and test use). On a pool of size 0 the task runs inline on the
  /// calling thread (design rule 3: no workers degrades to serial).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished (test/teardown aid;
  /// parallel_for has its own completion tracking).
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  unsigned running_ = 0;
  bool stop_ = false;
};

namespace detail {

/// The shared state of one parallel_for: the index counter, the first
/// exception (which cancels the remaining claims) and the count of
/// participants that have stopped.
class ParallelForJob {
 public:
  ParallelForJob(std::int64_t begin, std::int64_t end)
      : next_(begin), end_(end) {}

  /// Claims the next unclaimed index; false once the range is exhausted
  /// or an iteration has thrown.
  bool claim(std::int64_t& i) {
    if (cancelled_) return false;
    i = next_++;
    return i < end_;
  }

  void record_exception(std::exception_ptr error);

  /// Called by each participant when it can claim no more work; the last
  /// one wakes the caller. Rethrows the first recorded exception in the
  /// caller once every participant has quiesced.
  void participant_done();
  void wait_and_rethrow(unsigned participants);

 private:
  std::atomic<std::int64_t> next_;
  const std::int64_t end_;
  std::atomic<bool> cancelled_{false};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  unsigned done_count_ = 0;
  std::exception_ptr error_;
};

}  // namespace detail

/// Runs `fn(i, worker)` for every i in [begin, end), distributed over the
/// pool's workers plus the calling thread. `worker` is a dense stable id
/// in [0, pool.size()] — 0 is the caller — usable to index per-participant
/// scratch state. Blocks until the whole range completed; the first
/// exception thrown by `fn` is rethrown here (remaining iterations may be
/// skipped).
template <typename Fn>
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  Fn&& fn) {
  if (begin >= end) return;
  const unsigned participants = pool.size() + 1;
  if (participants == 1 || end - begin == 1) {
    for (std::int64_t i = begin; i < end; ++i) fn(i, 0u);
    return;
  }
  detail::ParallelForJob job(begin, end);
  auto run = [&job, &fn](unsigned worker) {
    std::int64_t i = 0;
    while (job.claim(i)) {
      try {
        fn(i, worker);
      } catch (...) {
        job.record_exception(std::current_exception());
      }
    }
    job.participant_done();
  };
  for (unsigned w = 1; w < participants; ++w) pool.submit([&run, w] { run(w); });
  run(0);
  job.wait_and_rethrow(participants);
}

/// Deterministic per-index seed derivation (splitmix64 over base ^ index):
/// workload generators draw from Rng(derive_seed(seed, i)) so the random
/// stream of element i never depends on which thread computed it or on the
/// thread count. Statistically independent streams for adjacent indices.
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace polymem::runtime
