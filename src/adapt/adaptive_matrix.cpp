#include "adapt/adaptive_matrix.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace polymem::adapt {

AdaptiveMatrix::AdaptiveMatrix(core::PolyMemConfig config, AdaptiveOptions opts)
    : base_config_(config),
      opts_(opts),
      active_(std::make_unique<core::PolyMem>(config)),
      profiler_(config.p, config.q, opts.profiler),
      policy_(config.p, config.q, config.height * config.width, opts.policy) {
  POLYMEM_REQUIRE(opts.pool == nullptr,
                  "adaptive: migrations run inline; AdaptiveOptions::pool "
                  "must be null");
}

bool AdaptiveMatrix::run_supported(const core::AccessBatch& batch) const {
  return active_->serves(batch);
}

void AdaptiveMatrix::read_batch(const core::AccessBatch& batch,
                                std::span<core::Word> out) {
  POLYMEM_REQUIRE(
      out.size() == static_cast<std::size_t>(batch.count()) * lanes(),
      "adaptive read_batch: out must hold count() * lanes() words");
  const auto count = static_cast<std::uint64_t>(batch.count());
  if (run_supported(batch)) {
    active_->read_batch(batch, 0, out);
    stats_.batched_accesses += count;
  } else {
    active_->load_batch(batch, out);
    stats_.fallback_accesses += count;
  }
  stats_.reads += count;
  if (opts_.adapt) observe(false, batch);
}

void AdaptiveMatrix::write_batch(const core::AccessBatch& batch,
                                 std::span<const core::Word> data) {
  POLYMEM_REQUIRE(
      data.size() == static_cast<std::size_t>(batch.count()) * lanes(),
      "adaptive write_batch: data must hold count() * lanes() words");
  const auto count = static_cast<std::uint64_t>(batch.count());
  if (run_supported(batch)) {
    active_->write_batch(batch, data);
    stats_.batched_accesses += count;
  } else {
    active_->store_batch(batch, data);
    stats_.fallback_accesses += count;
  }
  stats_.writes += count;
  if (opts_.adapt) observe(true, batch);
}

void AdaptiveMatrix::observe(bool is_write, const core::AccessBatch& batch) {
  for (std::int64_t o = 0; o < batch.outer_count; ++o) {
    const access::Coord anchor{batch.start.i + o * batch.outer_stride.i,
                               batch.start.j + o * batch.outer_stride.j};
    profiler_.observe_run(is_write, batch.kind, anchor, batch.inner_stride,
                          batch.inner_count);
  }
  if (!profiler_.window_ready()) return;
  ++stats_.windows_profiled;
  const WindowProfile window = profiler_.take_window();
  if (const auto target = policy_.decide(scheme(), window)) {
    migrate_to(*target);
  }
}

bool AdaptiveMatrix::migrate_to(maf::Scheme target) {
  const maf::Scheme from = scheme();
  if (from == target) return false;
  std::unique_ptr<core::PolyMem> next;
  try {
    next = std::make_unique<core::PolyMem>(base_config_.with_scheme(target));
  } catch (const Unsupported&) {
    return false;  // no MAF for this (scheme, p, q)
  }
  ++stats_.migrations_started;
  const bool flip = copy_and_verify(*next);
  fault_band_ = -1;
  if (flip) {
    active_ = std::move(next);
    ++stats_.epoch;
    ++stats_.migrations_completed;
  } else {
    ++stats_.migrations_aborted;  // rollback: epoch B is dropped unseen
  }
  if (stats_.history.size() == AdaptiveStats::kMaxHistory)
    stats_.history.erase(stats_.history.begin());
  stats_.history.push_back({from, target, stats_.epoch, !flip});
  return true;
}

bool AdaptiveMatrix::copy_and_verify(core::PolyMem& next) {
  const std::int64_t p = base_config_.p;  // rows per band
  const std::int64_t w = width();
  std::vector<core::Word> image(static_cast<std::size_t>(p * w));
  for (std::int64_t row = 0; row < height(); row += p) {
    if (row / p == fault_band_) return false;
    const std::int64_t rows = std::min(p, height() - row);
    const std::span<core::Word> view(image.data(),
                                     static_cast<std::size_t>(rows * w));
    active_->dump_rect({row, 0}, rows, w, view);
    next.fill_rect({row, 0}, rows, w, view);
  }
  if (!opts_.verify_migrations) return true;

  // Differential oracle: the two epochs must be bit-identical; any
  // difference vetoes the flip.
  std::vector<core::Word> other(image.size());
  std::uint64_t mismatches = 0;
  for (std::int64_t row = 0; row < height(); row += p) {
    const std::int64_t rows = std::min(p, height() - row);
    const auto n = static_cast<std::size_t>(rows * w);
    const std::span<core::Word> a_view(image.data(), n);
    const std::span<core::Word> b_view(other.data(), n);
    active_->dump_rect({row, 0}, rows, w, a_view);
    next.dump_rect({row, 0}, rows, w, b_view);
    for (std::size_t k = 0; k < n; ++k) {
      if (a_view[k] != b_view[k]) ++mismatches;
    }
    stats_.verified_words += n;
  }
  stats_.mismatched_words += mismatches;
  return mismatches == 0;
}

AdaptiveStats AdaptiveMatrix::stats() const {
  AdaptiveStats s = stats_;
  s.scheme = scheme();
  return s;
}

}  // namespace polymem::adapt
