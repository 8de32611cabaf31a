#include "service/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"

namespace polymem::service {

namespace {

/// How long an idle drain polls the queues before it parks: longer than
/// a closed-loop client takes from its last completion to its next
/// submit, far shorter than the futex sleep and wake-up it saves.
constexpr std::chrono::microseconds kIdlePoll{50};

}  // namespace

const char* status_name(Status status) {
  switch (status) {
    case Status::kAccepted:
      return "accepted";
    case Status::kOverloaded:
      return "overloaded";
    case Status::kRejected:
      return "rejected";
    case Status::kShutdown:
      return "shutdown";
    case Status::kOk:
      return "ok";
  }
  return "unknown";
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  accepted += other.accepted;
  shed += other.shed;
  rejected += other.rejected;
  completed_reads += other.completed_reads;
  completed_writes += other.completed_writes;
  shutdown_completions += other.shutdown_completions;
  drained_runs += other.drained_runs;
  drained_requests += other.drained_requests;
  compiled_runs += other.compiled_runs;
  compiled_requests += other.compiled_requests;
  fallback_accesses += other.fallback_accesses;
  tile_misses += other.tile_misses;
  max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
  max_in_flight = std::max(max_in_flight, other.max_in_flight);
  cycles += other.cycles;  // total modeled cycles across engines
  return *this;
}

ServiceEngine::ServiceEngine(core::PolyMem& mem, EngineOptions options)
    : mem_(&mem), options_(options) {
  init_queues();
}

ServiceEngine::ServiceEngine(cache::TileCache& cache, EngineOptions options)
    : mem_(&cache.polymem()),
      cache_(&cache),
      tile_rows_(cache.frames().tile_rows()),
      tile_cols_(cache.frames().tile_cols()),
      options_(options) {
  POLYMEM_REQUIRE(
      cache.options().write_policy == cache::WritePolicy::kWriteBack,
      "service engine requires a write-back tile cache (drains mark frames "
      "dirty; flush() publishes to LMem)");
  init_queues();
}

ServiceEngine::~ServiceEngine() {
  if (started_.load(std::memory_order_acquire) && !stopped_) stop();
  accepting_.store(false, std::memory_order_release);
  // Manual-mode engines (and stragglers that raced stop): everything
  // still queued hears kShutdown, everything executed completes with kOk.
  shutdown_sweep();
  retire_all();
}

void ServiceEngine::init_queues() {
  POLYMEM_REQUIRE(options_.ports >= 1, "service engine needs at least 1 port");
  POLYMEM_REQUIRE(options_.max_coalesce >= 1,
                  "max_coalesce must be at least 1");
  queues_.reserve(options_.ports);
  for (unsigned port = 0; port < options_.ports; ++port) {
    queues_.push_back(std::make_unique<PortQueue>(options_.queue_bound,
                                                  tile_rows_, tile_cols_));
  }
}

Status ServiceEngine::validate(const Request& request) const {
  if (request.listener == nullptr) return Status::kRejected;
  const unsigned lanes = mem_->lanes();
  if (request.op == Op::kWrite) {
    if (request.payload.size() != lanes) return Status::kRejected;
  } else if (!request.payload.empty()) {
    return Status::kRejected;
  }
  const auto& config = mem_->config();
  const access::Coord anchor = request.where.anchor;
  if (cache_ == nullptr) {
    if (!access::fits(request.where, config.p, config.q, config.height,
                      config.width)) {
      return Status::kRejected;
    }
  } else {
    // Matrix coordinates: inside the matrix AND inside the anchor's tile,
    // so the whole access translates to its cache frame with one offset.
    const auto ext =
        access::pattern_extent(request.where.kind, config.p, config.q);
    const maxsim::LMemMatrix& matrix = cache_->matrix();
    const std::int64_t i0 = anchor.i;
    const std::int64_t c0 = anchor.j + ext.col_offset;
    if (i0 < 0 || c0 < 0 || anchor.j < 0) return Status::kRejected;
    if (i0 + ext.rows > matrix.rows || c0 + ext.cols > matrix.cols) {
      return Status::kRejected;
    }
    const std::int64_t ti = i0 / tile_rows_;
    const std::int64_t tj = anchor.j / tile_cols_;
    if ((i0 + ext.rows - 1) / tile_rows_ != ti) return Status::kRejected;
    if (c0 / tile_cols_ != tj || (c0 + ext.cols - 1) / tile_cols_ != tj) {
      return Status::kRejected;
    }
  }
  const maf::SupportLevel level = mem_->supports(request.where.kind);
  if (level == maf::SupportLevel::kNone) return Status::kRejected;
  if (level == maf::SupportLevel::kAligned &&
      (anchor.i % config.p != 0 || anchor.j % config.q != 0)) {
    // Frame origins and tile dimensions are bank-grid aligned (FramePool
    // invariant), so matrix-coordinate alignment survives translation.
    return Status::kRejected;
  }
  return Status::kAccepted;
}

Status ServiceEngine::submit(unsigned port, Request&& request,
                             RequestId* id_out) {
  POLYMEM_REQUIRE(port < queues_.size(), "service port out of range");
  if (!accepting_.load(std::memory_order_acquire)) return Status::kShutdown;
  PortQueue& queue = *queues_[port];
  const Status verdict = validate(request);
  if (verdict != Status::kAccepted) {
    queue.note_rejected();
    return verdict;
  }
  PendingRequest pending{std::move(request), 0,
                         cycle_.load(std::memory_order_relaxed)};
  std::uint64_t position = 0;
  const Status pushed = queue.try_push(std::move(pending), &position);
  if (pushed != Status::kAccepted) {
    // Typed shedding: hand the request (payload included) back intact so
    // the caller can retry. The queue counted the shed.
    request = std::move(pending.request);
    return pushed;
  }
  if (id_out != nullptr) *id_out = request_id(port, position);
  // Wake the drain only when it published itself idle: the seq_cst pair
  // (claim CAS in try_push -> load idle here, store idle -> recheck the
  // queues' tails there) makes a missed wakeup impossible without
  // serializing every submit on the wake mutex.
  if (drain_idle_.load(std::memory_order_seq_cst)) {
    {
      const std::lock_guard<std::mutex> lock(wake_mutex_);
      work_signal_ = true;
    }
    wake_cv_.notify_one();
  }
  return Status::kAccepted;
}

void ServiceEngine::start(runtime::ThreadPool& pool) {
  POLYMEM_REQUIRE(!started_.load(std::memory_order_acquire),
                  "service engine already started");
  POLYMEM_REQUIRE(pool.size() >= 1,
                  "service drain needs a worker thread (a 0-size pool would "
                  "run the drain loop inline forever)");
  started_.store(true, std::memory_order_release);
  pool.submit([this] { drain_loop(); });
}

void ServiceEngine::stop() {
  if (stopped_) return;
  accepting_.store(false, std::memory_order_release);
  if (started_.load(std::memory_order_acquire)) {
    {
      const std::lock_guard<std::mutex> lock(wake_mutex_);
      stop_requested_ = true;
    }
    wake_cv_.notify_all();
    std::unique_lock<std::mutex> lock(wake_mutex_);
    exit_cv_.wait(lock, [this] { return exited_; });
  }
  // The drain has exited (or never ran): its state is ours now. Complete
  // stragglers that raced admission, then retire whatever is in flight.
  shutdown_sweep();
  retire_all();
  stopped_ = true;
}

bool ServiceEngine::drain_once() {
  POLYMEM_REQUIRE(!started_.load(std::memory_order_acquire),
                  "manual pump on a started engine (the drain thread owns "
                  "the PolyMem)");
  return service_once();
}

void ServiceEngine::run_until_idle() {
  POLYMEM_REQUIRE(!started_.load(std::memory_order_acquire),
                  "manual pump on a started engine (the drain thread owns "
                  "the PolyMem)");
  while (service_once()) {
  }
}

bool ServiceEngine::service_once() {
  bool progress = retire_due();
  const unsigned nports = static_cast<unsigned>(queues_.size());
  for (unsigned k = 0; k < nports; ++k) {
    const unsigned port = (round_robin_ + k) % nports;
    core::AccessBatch batch;
    if (queues_[port]->pop_run(options_.max_coalesce, run_, batch) == 0) {
      continue;
    }
    round_robin_ = (port + 1) % nports;
    execute_run(port, batch);
    return true;
  }
  if (in_flight_runs_ > 0) {
    // Nothing left to issue: fast-forward the clock to the next
    // completion instead of spinning cycle by cycle.
    cycle_.store(in_flight_[in_flight_head_].complete_cycle,
                 std::memory_order_relaxed);
    retire_due();
    return true;
  }
  return progress;
}

void ServiceEngine::execute_run(unsigned queue_port,
                                const core::AccessBatch& batch) {
  const std::size_t n = run_.size();
  const unsigned lanes = mem_->lanes();
  const Op op = run_.front().request.op;
  core::AccessBatch exec = batch;
  std::uint64_t extra_latency = 0;
  int dirty_frame = -1;
  if (cache_ != nullptr) {
    const std::int64_t ti = batch.start.i / tile_rows_;
    const std::int64_t tj = batch.start.j / tile_cols_;
    if (!cache_->resident(ti, tj)) {
      extra_latency = options_.miss_penalty_cycles;
      tile_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    const cache::TileCache::TileRef ref = cache_->acquire(ti, tj);
    exec.start = {ref.origin.i + (batch.start.i - ti * tile_rows_),
                  ref.origin.j + (batch.start.j - tj * tile_cols_)};
    if (op == Op::kWrite) dirty_frame = ref.frame;
    cache_->note_kernel_accesses(n, static_cast<std::uint64_t>(n) * lanes);
  }
  const unsigned port = queue_port % mem_->config().read_ports;
  PendingBatch& pending = free_slot();
  if (op == Op::kRead) {
    pending.data.resize(n * lanes);
    mem_->read_batch(exec, port, pending.data);
  } else {
    write_staging_.clear();
    for (const PendingRequest& pr : run_) {
      write_staging_.insert(write_staging_.end(), pr.request.payload.begin(),
                            pr.request.payload.end());
    }
    mem_->write_batch(exec, write_staging_);
    if (dirty_frame >= 0) cache_->mark_dirty(dirty_frame);
  }
  if (mem_->uses_plan_cache()) {
    compiled_runs_.fetch_add(1, std::memory_order_relaxed);
    compiled_requests_.fetch_add(n, std::memory_order_relaxed);
  } else {
    fallback_accesses_.fetch_add(n, std::memory_order_relaxed);
  }
  drained_runs_.fetch_add(1, std::memory_order_relaxed);
  drained_requests_.fetch_add(n, std::memory_order_relaxed);

  // One access per cycle; a tile fault stalls the drain clock itself
  // (acquire is synchronous), so later requests on the port never
  // complete before an earlier miss. The run completes read_latency
  // pipeline cycles after its last issue.
  const std::uint64_t advance = n + extra_latency;
  const std::uint64_t issued =
      cycle_.fetch_add(advance, std::memory_order_relaxed) + advance;
  pending.complete_cycle = issued + mem_->config().read_latency;
  pending.requests.reserve(n);
  for (const PendingRequest& pr : run_) {
    pending.requests.push_back({request_id(queue_port, pr.position),
                                pr.request.tag, pr.request.tenant, op,
                                pr.request.listener, pr.submit_cycle,
                                sequence_++});
  }
  in_flight_requests_ += n;
  if (in_flight_requests_ > max_in_flight_.load(std::memory_order_relaxed)) {
    max_in_flight_.store(in_flight_requests_, std::memory_order_relaxed);
  }
  ++in_flight_runs_;
}

bool ServiceEngine::retire_due() {
  bool any = false;
  const std::uint64_t now = cycle_.load(std::memory_order_relaxed);
  const unsigned lanes = mem_->lanes();
  while (in_flight_runs_ > 0 &&
         in_flight_[in_flight_head_].complete_cycle <= now) {
    PendingBatch& pending = in_flight_[in_flight_head_];
    for (std::size_t x = 0; x < pending.requests.size(); ++x) {
      const Pending& req = pending.requests[x];
      Completion completion;
      completion.id = req.id;
      completion.tag = req.tag;
      completion.tenant = req.tenant;
      completion.op = req.op;
      completion.status = Status::kOk;
      if (req.op == Op::kRead) {
        completion.data =
            std::span<const Word>(pending.data).subspan(x * lanes, lanes);
        completed_reads_.fetch_add(1, std::memory_order_relaxed);
      } else {
        completed_writes_.fetch_add(1, std::memory_order_relaxed);
      }
      completion.sequence = req.sequence;
      completion.submit_cycle = req.submit_cycle;
      completion.complete_cycle = pending.complete_cycle;
      req.listener->on_complete(completion);
      any = true;
    }
    in_flight_requests_ -= pending.requests.size();
    pending.requests.clear();
    pending.data.clear();
    in_flight_head_ = (in_flight_head_ + 1) % in_flight_.size();
    --in_flight_runs_;
  }
  return any;
}

void ServiceEngine::retire_all() {
  if (in_flight_runs_ == 0) return;
  const std::size_t newest =
      (in_flight_head_ + in_flight_runs_ - 1) % in_flight_.size();
  cycle_.store(in_flight_[newest].complete_cycle, std::memory_order_relaxed);
  retire_due();
}

void ServiceEngine::shutdown_sweep() {
  std::vector<PendingRequest> swept;
  for (unsigned port = 0; port < queues_.size(); ++port) {
    queues_[port]->pop_all(swept);
    for (PendingRequest& pr : swept) {
      Completion completion;
      completion.id = request_id(port, pr.position);
      completion.tag = pr.request.tag;
      completion.tenant = pr.request.tenant;
      completion.op = pr.request.op;
      completion.status = Status::kShutdown;
      completion.sequence = sequence_++;
      completion.submit_cycle = pr.submit_cycle;
      completion.complete_cycle = cycle_.load(std::memory_order_relaxed);
      shutdown_completions_.fetch_add(1, std::memory_order_relaxed);
      pr.request.listener->on_complete(completion);
    }
  }
}

bool ServiceEngine::any_queued() const {
  for (const auto& queue : queues_) {
    if (!queue->empty()) return true;
  }
  return false;
}

bool ServiceEngine::poll_queues() const {
  const auto deadline = std::chrono::steady_clock::now() + kIdlePoll;
  do {
    if (any_queued()) return true;
  } while (std::chrono::steady_clock::now() < deadline);
  return false;
}

void ServiceEngine::drain_loop() {
  for (;;) {
    while (service_once()) {
    }
    if (poll_queues()) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_requested_) break;
    if (work_signal_) {
      work_signal_ = false;
      continue;
    }
    drain_idle_.store(true, std::memory_order_seq_cst);
    if (any_queued()) {
      // A submit slipped in between our last drain and publishing idle;
      // it may have read drain_idle_ == false and skipped the wakeup.
      drain_idle_.store(false, std::memory_order_relaxed);
      continue;
    }
    wake_cv_.wait(lock, [this] { return stop_requested_ || work_signal_; });
    work_signal_ = false;
    drain_idle_.store(false, std::memory_order_relaxed);
    if (stop_requested_) break;
  }
  // Shutdown: admission is closed (stop() cleared accepting_ before
  // signalling). Serve everything accepted, retire every completion, and
  // hand leftover sweep duty back to stop().
  while (service_once()) {
  }
  retire_all();
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    exited_ = true;
  }
  exit_cv_.notify_all();
}

ServiceEngine::PendingBatch& ServiceEngine::free_slot() {
  if (in_flight_runs_ == in_flight_.size()) {
    // Every slot is in flight: unroll the ring oldest-first and append a
    // slot. Moving a slot keeps its vectors' buffers.
    std::rotate(in_flight_.begin(),
                in_flight_.begin() +
                    static_cast<std::ptrdiff_t>(in_flight_head_),
                in_flight_.end());
    in_flight_head_ = 0;
    in_flight_.emplace_back();
  }
  return in_flight_[(in_flight_head_ + in_flight_runs_) % in_flight_.size()];
}

EngineStats ServiceEngine::stats() const {
  EngineStats s;
  s.completed_reads = completed_reads_.load(std::memory_order_relaxed);
  s.completed_writes = completed_writes_.load(std::memory_order_relaxed);
  s.shutdown_completions =
      shutdown_completions_.load(std::memory_order_relaxed);
  s.drained_runs = drained_runs_.load(std::memory_order_relaxed);
  s.drained_requests = drained_requests_.load(std::memory_order_relaxed);
  s.compiled_runs = compiled_runs_.load(std::memory_order_relaxed);
  s.compiled_requests = compiled_requests_.load(std::memory_order_relaxed);
  s.fallback_accesses = fallback_accesses_.load(std::memory_order_relaxed);
  s.tile_misses = tile_misses_.load(std::memory_order_relaxed);
  s.max_in_flight = max_in_flight_.load(std::memory_order_relaxed);
  s.cycles = cycle_.load(std::memory_order_relaxed);
  for (const auto& queue : queues_) {
    const PortQueueStats qs = queue->stats();
    s.accepted += qs.pushed;
    s.shed += qs.shed;
    s.rejected += qs.rejected;
    s.max_queue_depth = std::max(s.max_queue_depth, qs.max_depth);
  }
  return s;
}

}  // namespace polymem::service
