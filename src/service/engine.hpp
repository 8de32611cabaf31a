// ServiceEngine — the concurrent request engine over one PolyMem.
//
// Clients submit (tenant, access, payload) requests into bounded per-port
// queues (service/port_queue.hpp); one drain loop — a long-running task
// on the shared runtime::ThreadPool — serves them:
//
//   submit -> enqueue -> coalesce -> batch drain -> in-flight -> complete
//
//  - *Coalesce.* Each drain pops the longest constant-stride FIFO prefix
//    of one port (round-robin across ports = cycle order) and serves it
//    with one PolyMem::read_batch / write_batch call, so one lowering and
//    one gather/scatter serve the whole run (the batched path of
//    BENCH_core.json) instead of one call per request. Runs of one
//    request take the same call; with the plan cache off, read_batch
//    serves the run access by access on the AGU reference.
//  - *In-flight tracking.* Executed runs wait in a FIFO of reused slots,
//    each carrying its modeled completion cycle (issue cycle + config
//    read_latency, + a miss penalty when a tile-cached engine faulted).
//    Issue cycles strictly increase, the latency is one constant and the
//    idle fast-forward only moves the clock to the oldest completion, so
//    issue order is retire order: completions retire in cycle order
//    without the cycle-keyed multimap of the mgsim ParallelMemory idiom.
//    Each request's listener fires exactly once. A slot keeps its
//    buffers, so the steady-state drain allocates nothing.
//  - *Admission control.* Bounded queues shed with Status::kOverloaded
//    instead of growing without bound; malformed requests are rejected
//    synchronously with Status::kRejected; submits after stop() return
//    Status::kShutdown. A submit writes only its own port's queue: one
//    compare-and-swap claims a ring position, which also names the
//    request (RequestId = position x ports + port + 1), and the accepted
//    count is the sum of the queues' claims.
//  - *Idle.* When every queue is empty and nothing is in flight, the
//    drain polls the queues for kIdlePoll before it parks on a
//    condition variable, so a closed-loop client's next burst does not
//    wait out a futex wake-up.
//
// Two backing modes share the engine:
//  - *direct*: requests address PolyMem coordinates of a caller-owned
//    memory — the in-core engine the 1-port/multi-port benches use;
//  - *tile-cached*: requests address matrix coordinates of a TileCache's
//    LMem-resident matrix; the drain faults tiles in (counting misses
//    into the completion latency) and translates anchors to cache
//    frames. Coalesced runs are constrained to one tile so the whole
//    run translates with a single offset. This is the per-shard engine
//    of service/sharded.hpp.
//
// Threading: any number of submitters; exactly one drain thread, which
// is the only thread to touch the PolyMem (and TileCache) — the same
// single-consumer contract as TileCache itself. Listeners run on the
// drain thread; they may submit (the queues take no lock, and a full
// queue sheds instead of waiting for the drain) but must not call the
// manual pumps.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/tile_cache.hpp"
#include "core/polymem.hpp"
#include "runtime/thread_pool.hpp"
#include "service/port_queue.hpp"
#include "service/request.hpp"

namespace polymem::service {

struct EngineOptions {
  /// Submit queues; queue `port` reads through PolyMem replica
  /// `port % read_ports`, so tenants hashed to different queues use
  /// independent read ports.
  unsigned ports = 1;
  /// Per-port queue bound; try_push sheds with kOverloaded beyond it.
  std::size_t queue_bound = 256;
  /// Longest run one drain serves (one read_batch / write_batch call).
  std::size_t max_coalesce = 64;
  /// Extra cycles the drain clock stalls when a tile-cached drain
  /// faulted the run's tile in (the synchronous DRAM refill; it delays
  /// this run's completion and every later issue).
  std::uint64_t miss_penalty_cycles = 64;
};

struct EngineStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;      ///< kOverloaded submissions (all ports)
  std::uint64_t rejected = 0;  ///< kRejected submissions
  std::uint64_t completed_reads = 0;
  std::uint64_t completed_writes = 0;
  std::uint64_t shutdown_completions = 0;
  std::uint64_t drained_runs = 0;       ///< batches executed
  std::uint64_t drained_requests = 0;   ///< requests inside those batches
  std::uint64_t compiled_runs = 0;      ///< runs served by the class tables
  std::uint64_t compiled_requests = 0;  ///< requests inside compiled runs
  std::uint64_t fallback_accesses = 0;  ///< requests on the AGU reference
  std::uint64_t tile_misses = 0;        ///< tile-cached mode only
  std::uint64_t max_queue_depth = 0;    ///< high water over all ports
  std::uint64_t max_in_flight = 0;      ///< requests awaiting completion
  std::uint64_t cycles = 0;             ///< modeled clock at snapshot

  /// Requests per drained batch — the coalescing amortization factor.
  double mean_run_length() const {
    return drained_runs == 0 ? 0.0
                             : static_cast<double>(drained_requests) /
                                   static_cast<double>(drained_runs);
  }
  EngineStats& operator+=(const EngineStats& other);
};

class ServiceEngine {
 public:
  /// Direct engine: requests address `mem`'s PolyMem coordinates. The
  /// engine is the memory's only user while running.
  explicit ServiceEngine(core::PolyMem& mem, EngineOptions options = {});

  /// Tile-cached engine: requests address matrix coordinates of
  /// `cache`'s LMem matrix; every access must fit inside one tile.
  /// Requires the cache's write policy to be write-back (the drain marks
  /// frames dirty; call the cache's flush() when LMem must be current)
  /// and takes over as the cache's single consumer.
  explicit ServiceEngine(cache::TileCache& cache, EngineOptions options = {});

  /// Stops the drain if running, then completes anything still queued
  /// or in flight (executed requests with kOk, never-executed ones with
  /// kShutdown) — listeners always hear exactly one completion.
  ~ServiceEngine();

  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  /// Validates and enqueues on `port`. Returns kAccepted (id written to
  /// `id_out` when non-null), kOverloaded (typed shedding: queue full,
  /// request untouched — retry later), kRejected (malformed; see
  /// request.hpp) or kShutdown (stop() already called).
  Status submit(unsigned port, Request&& request, RequestId* id_out = nullptr);

  /// Launches the drain loop as one long-running task on `pool`
  /// (requires at least one worker thread; the loop would otherwise run
  /// inline forever).
  void start(runtime::ThreadPool& pool);

  /// Graceful shutdown: stops admission, serves every accepted request,
  /// retires all completions, then returns once the drain task exited.
  void stop();

  bool started() const { return started_.load(std::memory_order_acquire); }

  /// Manual pumps for deterministic tests (engine must not be started):
  /// drain_once serves one run or retires due completions, returning
  /// false only when fully idle; run_until_idle pumps to quiescence.
  bool drain_once();
  void run_until_idle();

  const EngineOptions& options() const { return options_; }
  unsigned ports() const { return static_cast<unsigned>(queues_.size()); }
  core::PolyMem& polymem() { return *mem_; }
  cache::TileCache* tile_cache() { return cache_; }

  /// Point-in-time statistics; exact once the engine is stopped or idle.
  EngineStats stats() const;

 private:
  /// One request of an executed run, waiting in the in-flight FIFO.
  struct Pending {
    RequestId id = 0;
    std::uint64_t tag = 0;
    Tenant tenant = 0;
    Op op = Op::kRead;
    CompletionListener* listener = nullptr;
    std::uint64_t submit_cycle = 0;
    std::uint64_t sequence = 0;
  };
  /// One executed run: its completion cycle, its requests and (reads)
  /// the gathered data. Slots are reused with their vectors' capacity,
  /// so steady state allocates nothing.
  struct PendingBatch {
    std::uint64_t complete_cycle = 0;
    std::vector<Pending> requests;
    std::vector<Word> data;
  };

  void init_queues();
  Status validate(const Request& request) const;
  /// Unique per engine and increasing per port.
  RequestId request_id(unsigned port, std::uint64_t position) const {
    return position * queues_.size() + port + 1;
  }
  bool service_once();
  void execute_run(unsigned queue_port, const core::AccessBatch& batch);
  bool retire_due();
  void retire_all();
  void shutdown_sweep();
  void drain_loop();
  bool any_queued() const;
  /// Polls the queues for up to kIdlePoll; true once one holds a claim.
  bool poll_queues() const;
  /// The slot behind the newest in-flight run; grows the ring only when
  /// every slot is in flight. ++in_flight_runs_ commits it.
  PendingBatch& free_slot();

  // Read by every submit; written only at construction and when the
  // drain parks, wakes or stops.
  core::PolyMem* mem_;
  cache::TileCache* cache_ = nullptr;
  std::int64_t tile_rows_ = 0;
  std::int64_t tile_cols_ = 0;
  EngineOptions options_;
  std::vector<std::unique_ptr<PortQueue>> queues_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> drain_idle_{false};
  std::atomic<bool> started_{false};

  // Lifecycle handshake with the pool task; a submit takes the mutex
  // only to wake a parked drain.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable exit_cv_;
  bool work_signal_ = false;
  bool stop_requested_ = false;
  bool exited_ = false;
  bool stopped_ = false;

  // The modeled clock: the drain advances it once per run and every
  // submit reads it (submit_cycle), so it gets a cache line of its own.
  alignas(64) std::atomic<std::uint64_t> cycle_{0};

  // Drain-side state (single consumer) and statistics (relaxed atomics:
  // drain-owned writers, any-thread reads), on lines no submit reads.
  alignas(64) std::vector<PendingRequest> run_;
  std::vector<Word> write_staging_;
  // In-flight runs, oldest first: a ring of in_flight_runs_ slots
  // starting at in_flight_head_.
  std::vector<PendingBatch> in_flight_;
  std::size_t in_flight_head_ = 0;
  std::size_t in_flight_runs_ = 0;
  unsigned round_robin_ = 0;
  std::uint64_t sequence_ = 0;
  std::uint64_t in_flight_requests_ = 0;
  std::atomic<std::uint64_t> completed_reads_{0};
  std::atomic<std::uint64_t> completed_writes_{0};
  std::atomic<std::uint64_t> shutdown_completions_{0};
  std::atomic<std::uint64_t> drained_runs_{0};
  std::atomic<std::uint64_t> drained_requests_{0};
  std::atomic<std::uint64_t> compiled_runs_{0};
  std::atomic<std::uint64_t> compiled_requests_{0};
  std::atomic<std::uint64_t> fallback_accesses_{0};
  std::atomic<std::uint64_t> tile_misses_{0};
  std::atomic<std::uint64_t> max_in_flight_{0};
};

}  // namespace polymem::service
