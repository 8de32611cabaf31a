#include "adapt/adaptive_matrix.hpp"

#include <algorithm>
#include <thread>

#include "common/error.hpp"
#include "runtime/thread_pool.hpp"

namespace polymem::adapt {

namespace {

bool stride_aligned(std::int64_t p, std::int64_t q, access::Coord stride) {
  return stride.i % p == 0 && stride.j % q == 0;
}

}  // namespace

AdaptiveMatrix::AdaptiveMatrix(core::PolyMemConfig config, AdaptiveOptions opts)
    : base_config_(config),
      opts_(opts),
      band_rows_(opts.band_rows > 0 ? opts.band_rows : config.p),
      n_bands_((config.height + band_rows_ - 1) / band_rows_),
      active_(std::make_unique<core::PolyMem>(config)),
      current_scheme_(config.scheme),
      profiler_(config.p, config.q, opts.profiler),
      policy_(config.p, config.q, config.height * config.width, opts.policy) {
  POLYMEM_REQUIRE(n_bands_ > 0, "adaptive: empty address space");
  band_locks_.reserve(static_cast<std::size_t>(n_bands_));
  for (std::int64_t b = 0; b < n_bands_; ++b) {
    band_locks_.push_back(std::make_unique<std::shared_mutex>());
  }
  copied_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(n_bands_));
  for (std::int64_t b = 0; b < n_bands_; ++b) {
    copied_[b].store(false, std::memory_order_relaxed);
  }
}

AdaptiveMatrix::~AdaptiveMatrix() { abort_migration(); }

std::shared_lock<std::shared_mutex> AdaptiveMatrix::enter() const {
  while (flip_waiting_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  return std::shared_lock(flip_mutex_);
}

maf::Scheme AdaptiveMatrix::scheme() const {
  std::shared_lock flip = enter();
  return current_scheme_;
}

std::int64_t AdaptiveMatrix::band_row_count(std::int64_t band) const {
  return std::min(band_rows_, height() - band_first_row(band));
}

void AdaptiveMatrix::batch_row_span(const core::AccessBatch& batch,
                                    std::int64_t& lo, std::int64_t& hi) const {
  const auto ext =
      access::pattern_extent(batch.kind, base_config_.p, base_config_.q);
  const std::int64_t outer = batch.outer_stride.i * (batch.outer_count - 1);
  const std::int64_t inner = batch.inner_stride.i * (batch.inner_count - 1);
  std::int64_t min_i = batch.start.i + std::min<std::int64_t>(0, outer) +
                       std::min<std::int64_t>(0, inner);
  std::int64_t max_i = batch.start.i + std::max<std::int64_t>(0, outer) +
                       std::max<std::int64_t>(0, inner) + ext.rows - 1;
  lo = std::clamp<std::int64_t>(min_i, 0, height() - 1);
  hi = std::clamp<std::int64_t>(max_i, lo, height() - 1);
}

bool AdaptiveMatrix::run_supported_locked(
    const core::AccessBatch& batch) const {
  switch (active_->supports(batch.kind)) {
    case maf::SupportLevel::kAny:
      return true;
    case maf::SupportLevel::kAligned:
      return run_aligned(base_config_.p, base_config_.q, batch.start,
                         batch.inner_stride) &&
             stride_aligned(base_config_.p, base_config_.q,
                            batch.outer_stride);
    case maf::SupportLevel::kNone:
      return false;
  }
  return false;
}

bool AdaptiveMatrix::run_supported(const core::AccessBatch& batch) const {
  std::shared_lock flip = enter();
  std::lock_guard eng(engine_mutex_);
  return run_supported_locked(batch);
}

void AdaptiveMatrix::serve_read(const core::AccessBatch& batch,
                                std::span<core::Word> out) {
  const std::int64_t count = batch.count();
  if (run_supported_locked(batch)) {
    active_->read_batch(batch, 0, out);
    batched_accesses_ += static_cast<std::uint64_t>(count);
    return;
  }
  const unsigned lane_count = lanes();
  for (std::int64_t t = 0; t < count; ++t) {
    access::expand_into(batch.access(t), base_config_.p, base_config_.q,
                        expand_scratch_);
    for (unsigned l = 0; l < lane_count; ++l) {
      out[static_cast<std::size_t>(t) * lane_count + l] =
          active_->load(expand_scratch_[l]);
    }
  }
  fallback_accesses_ += static_cast<std::uint64_t>(count);
}

void AdaptiveMatrix::serve_write(const core::AccessBatch& batch,
                                 std::span<const core::Word> data) {
  const std::int64_t count = batch.count();
  if (run_supported_locked(batch)) {
    active_->write_batch(batch, data);
    batched_accesses_ += static_cast<std::uint64_t>(count);
    return;
  }
  const unsigned lane_count = lanes();
  for (std::int64_t t = 0; t < count; ++t) {
    access::expand_into(batch.access(t), base_config_.p, base_config_.q,
                        expand_scratch_);
    for (unsigned l = 0; l < lane_count; ++l) {
      active_->store(expand_scratch_[l],
                     data[static_cast<std::size_t>(t) * lane_count + l]);
    }
  }
  fallback_accesses_ += static_cast<std::uint64_t>(count);
}

void AdaptiveMatrix::forward_write(const core::AccessBatch& batch,
                                   std::span<const core::Word> data) {
  const unsigned lane_count = lanes();
  const std::int64_t count = batch.count();
  for (std::int64_t t = 0; t < count; ++t) {
    access::expand_into(batch.access(t), base_config_.p, base_config_.q,
                        expand_scratch_);
    for (unsigned l = 0; l < lane_count; ++l) {
      const access::Coord c = expand_scratch_[l];
      if (copied_[band_of(c.i)].load(std::memory_order_acquire)) {
        next_->store(c, data[static_cast<std::size_t>(t) * lane_count + l]);
        ++forwarded_words_;
      }
    }
  }
}

void AdaptiveMatrix::forward_store(access::Coord c, core::Word value) {
  if (copied_[band_of(c.i)].load(std::memory_order_acquire)) {
    next_->store(c, value);
    ++forwarded_words_;
  }
}

std::optional<maf::Scheme> AdaptiveMatrix::observe(
    bool is_write, const core::AccessBatch& batch) {
  for (std::int64_t o = 0; o < batch.outer_count; ++o) {
    const access::Coord anchor{batch.start.i + o * batch.outer_stride.i,
                               batch.start.j + o * batch.outer_stride.j};
    profiler_.observe_run(is_write, batch.kind, anchor, batch.inner_stride,
                          batch.inner_count);
  }
  if (!profiler_.window_ready()) return std::nullopt;
  ++windows_profiled_;
  const WindowProfile window = profiler_.take_window();
  return policy_.decide(current_scheme_, window);
}

void AdaptiveMatrix::read_batch(const core::AccessBatch& batch,
                                std::span<core::Word> out) {
  POLYMEM_REQUIRE(
      out.size() == static_cast<std::size_t>(batch.count()) * lanes(),
      "adaptive read_batch: out must hold count() * lanes() words");
  std::optional<maf::Scheme> pending;
  {
    std::shared_lock flip = enter();
    std::lock_guard eng(engine_mutex_);
    serve_read(batch, out);
    reads_ += static_cast<std::uint64_t>(batch.count());
    if (opts_.adapt) pending = observe(false, batch);
  }
  if (pending) migrate_to(*pending);
}

void AdaptiveMatrix::write_batch(const core::AccessBatch& batch,
                                 std::span<const core::Word> data) {
  POLYMEM_REQUIRE(
      data.size() == static_cast<std::size_t>(batch.count()) * lanes(),
      "adaptive write_batch: data must hold count() * lanes() words");
  std::optional<maf::Scheme> pending;
  {
    std::shared_lock flip = enter();
    std::lock_guard eng(engine_mutex_);
    if (migrating_.load(std::memory_order_acquire)) {
      std::int64_t lo = 0, hi = 0;
      batch_row_span(batch, lo, hi);
      std::vector<std::unique_lock<std::shared_mutex>> held;
      held.reserve(static_cast<std::size_t>(band_of(hi) - band_of(lo) + 1));
      for (std::int64_t b = band_of(lo); b <= band_of(hi); ++b) {
        held.emplace_back(*band_locks_[static_cast<std::size_t>(b)]);
      }
      serve_write(batch, data);
      forward_write(batch, data);
    } else {
      serve_write(batch, data);
    }
    writes_ += static_cast<std::uint64_t>(batch.count());
    if (opts_.adapt) pending = observe(true, batch);
  }
  if (pending) migrate_to(*pending);
}

core::Word AdaptiveMatrix::load(access::Coord c) const {
  std::shared_lock flip = enter();
  std::lock_guard eng(engine_mutex_);
  return active_->load(c);
}

void AdaptiveMatrix::store(access::Coord c, core::Word value) {
  std::shared_lock flip = enter();
  std::lock_guard eng(engine_mutex_);
  if (migrating_.load(std::memory_order_acquire)) {
    const std::int64_t b =
        std::clamp<std::int64_t>(band_of(c.i), 0, n_bands_ - 1);
    std::unique_lock band(*band_locks_[static_cast<std::size_t>(b)]);
    active_->store(c, value);
    forward_store(c, value);
  } else {
    active_->store(c, value);
  }
}

void AdaptiveMatrix::fill_rect(access::Coord origin, std::int64_t rows,
                               std::int64_t cols,
                               std::span<const core::Word> values) {
  std::shared_lock flip = enter();
  std::lock_guard eng(engine_mutex_);
  if (!migrating_.load(std::memory_order_acquire)) {
    active_->fill_rect(origin, rows, cols, values);
    return;
  }
  const std::int64_t lo = std::clamp<std::int64_t>(origin.i, 0, height() - 1);
  const std::int64_t hi =
      std::clamp<std::int64_t>(origin.i + rows - 1, lo, height() - 1);
  std::vector<std::unique_lock<std::shared_mutex>> held;
  held.reserve(static_cast<std::size_t>(band_of(hi) - band_of(lo) + 1));
  for (std::int64_t b = band_of(lo); b <= band_of(hi); ++b) {
    held.emplace_back(*band_locks_[static_cast<std::size_t>(b)]);
  }
  active_->fill_rect(origin, rows, cols, values);
  // The rectangle passed A's checks; forward its rows in every copied band.
  for (std::int64_t b = band_of(lo); b <= band_of(hi); ++b) {
    if (!copied_[b].load(std::memory_order_acquire)) continue;
    const std::int64_t r0 = std::max(origin.i, band_first_row(b));
    const std::int64_t r1 =
        std::min(origin.i + rows, band_first_row(b) + band_row_count(b));
    if (r0 >= r1) continue;  // an empty rectangle
    const auto words = static_cast<std::size_t>((r1 - r0) * cols);
    next_->fill_rect({r0, origin.j}, r1 - r0, cols,
                     values.subspan(
                         static_cast<std::size_t>((r0 - origin.i) * cols),
                         words));
    forwarded_words_ += words;
  }
}

void AdaptiveMatrix::dump_rect(access::Coord origin, std::int64_t rows,
                               std::int64_t cols,
                               std::span<core::Word> values) const {
  std::shared_lock flip = enter();
  std::lock_guard eng(engine_mutex_);
  active_->dump_rect(origin, rows, cols, values);
}

bool AdaptiveMatrix::migrate_to(maf::Scheme target) {
  std::lock_guard admit(admit_mutex_);
  {
    std::lock_guard done(done_mutex_);
    if (busy_) return false;
  }
  {
    std::shared_lock flip = enter();
    if (current_scheme_ == target) return false;
  }
  std::unique_ptr<core::PolyMem> fresh;
  try {
    fresh = std::make_unique<core::PolyMem>(base_config_.with_scheme(target));
  } catch (const Unsupported&) {
    return false;  // no MAF for this (scheme, p, q)
  }
  for (std::int64_t b = 0; b < n_bands_; ++b) {
    copied_[b].store(false, std::memory_order_relaxed);
  }
  abort_requested_.store(false, std::memory_order_relaxed);
  next_ = std::move(fresh);
  migrations_started_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard done(done_mutex_);
    busy_ = true;
  }
  // Publishes next_ and the cleared copy map to forwarding writers. Under
  // the engine lock: a writer that read the flag still false finishes its
  // unforwarded write before the copy phase can snapshot its band.
  {
    std::lock_guard eng(engine_mutex_);
    migrating_.store(true, std::memory_order_release);
  }
  if (opts_.pool != nullptr) {
    opts_.pool->submit([this, target] { run_migration(target); });
  } else {
    run_migration(target);
  }
  return true;
}

void AdaptiveMatrix::run_migration(maf::Scheme target) {
  bool aborted = false;
  const std::int64_t w = width();
  std::vector<core::Word> image(static_cast<std::size_t>(band_rows_ * w));

  // Copy phase: band by band under the band's shared lock (excludes
  // client writers to the band; readers are unaffected).
  for (std::int64_t b = 0; b < n_bands_; ++b) {
    if (abort_requested_.load(std::memory_order_relaxed) ||
        fault_band_.load(std::memory_order_relaxed) == b) {
      aborted = true;
      break;
    }
    std::shared_lock band(*band_locks_[static_cast<std::size_t>(b)]);
    const std::int64_t rows = band_row_count(b);
    const std::span<core::Word> view(image.data(),
                                     static_cast<std::size_t>(rows * w));
    active_->dump_rect({band_first_row(b), 0}, rows, w, view);
    next_->fill_rect({band_first_row(b), 0}, rows, w, view);
    // Release before unlocking: a writer that takes this band exclusive
    // afterwards must see the flag and forward.
    copied_[b].store(true, std::memory_order_release);
  }

  // Differential oracle: with every band copied and forwarding active,
  // A and B must be bit-identical; any difference is a protocol bug and
  // vetoes the flip.
  if (!aborted && opts_.verify_migrations) {
    std::uint64_t mismatches = 0;
    std::vector<core::Word> other(image.size());
    for (std::int64_t b = 0; b < n_bands_; ++b) {
      if (abort_requested_.load(std::memory_order_relaxed)) {
        aborted = true;
        break;
      }
      std::shared_lock band(*band_locks_[static_cast<std::size_t>(b)]);
      const std::int64_t rows = band_row_count(b);
      const auto n = static_cast<std::size_t>(rows * w);
      const std::span<core::Word> a_view(image.data(), n);
      const std::span<core::Word> b_view(other.data(), n);
      active_->dump_rect({band_first_row(b), 0}, rows, w, a_view);
      next_->dump_rect({band_first_row(b), 0}, rows, w, b_view);
      for (std::size_t k = 0; k < n; ++k) {
        if (a_view[k] != b_view[k]) ++mismatches;
      }
      verified_words_.fetch_add(n, std::memory_order_relaxed);
    }
    if (mismatches > 0) {
      mismatched_words_.fetch_add(mismatches, std::memory_order_relaxed);
      aborted = true;
    }
  }

  // Cutover (or rollback): the only exclusive hold on flip_mutex_, O(1).
  std::unique_ptr<core::PolyMem> retired;
  maf::Scheme from = maf::Scheme::kReO;
  std::uint64_t epoch_after = 0;
  {
    flip_waiting_.store(true, std::memory_order_release);
    std::unique_lock flip(flip_mutex_);
    flip_waiting_.store(false, std::memory_order_release);
    from = current_scheme_;
    migrating_.store(false, std::memory_order_release);
    if (aborted) {
      retired = std::move(next_);
      epoch_after = epoch_.load(std::memory_order_relaxed);
    } else {
      retired = std::move(active_);
      active_ = std::move(next_);
      current_scheme_ = target;
      epoch_after = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    }
  }
  if (aborted) {
    migrations_aborted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    migrations_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard hist(history_mutex_);
    history_.push_back({from, target, epoch_after, aborted});
  }
  fault_band_.store(-1, std::memory_order_relaxed);
  retired.reset();  // destroy the losing epoch outside every lock
  // Notify under the lock: a waiter that sees busy_ cleared may destroy
  // the matrix, condition variable included, as soon as it holds the lock.
  std::lock_guard done(done_mutex_);
  busy_ = false;
  done_cv_.notify_all();
}

void AdaptiveMatrix::wait_idle() {
  std::unique_lock done(done_mutex_);
  done_cv_.wait(done, [this] { return !busy_; });
}

void AdaptiveMatrix::abort_migration() {
  abort_requested_.store(true, std::memory_order_relaxed);
  wait_idle();
  abort_requested_.store(false, std::memory_order_relaxed);
}

AdaptiveStats AdaptiveMatrix::stats() const {
  AdaptiveStats s;
  {
    std::lock_guard eng(engine_mutex_);
    s.reads = reads_;
    s.writes = writes_;
    s.batched_accesses = batched_accesses_;
    s.fallback_accesses = fallback_accesses_;
    s.forwarded_words = forwarded_words_;
    s.windows_profiled = windows_profiled_;
  }
  s.migrations_started = migrations_started_.load(std::memory_order_relaxed);
  s.migrations_completed =
      migrations_completed_.load(std::memory_order_relaxed);
  s.migrations_aborted = migrations_aborted_.load(std::memory_order_relaxed);
  s.verified_words = verified_words_.load(std::memory_order_relaxed);
  s.mismatched_words = mismatched_words_.load(std::memory_order_relaxed);
  s.epoch = epoch_.load(std::memory_order_acquire);
  {
    std::shared_lock flip = enter();
    s.scheme = current_scheme_;
  }
  {
    std::lock_guard hist(history_mutex_);
    s.history = history_;
  }
  return s;
}

}  // namespace polymem::adapt
