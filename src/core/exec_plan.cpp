#include "core/exec_plan.hpp"

#include <numeric>

namespace polymem::core {

namespace {

/// Steps of `stride` until the anchor returns to the same residue class
/// modulo the MAF's axis period (1 when the stride never moves the axis).
std::int64_t axis_period(std::int64_t period, std::int64_t stride) {
  if (stride == 0) return 1;
  const std::int64_t magnitude = stride < 0 ? -stride : stride;
  return period / std::gcd(period, magnitude);
}

}  // namespace

std::int32_t ExecPlan::resolve_table(const PlanTemplate* tmpl) {
  for (std::size_t m = 0; m < used_; ++m) {
    if (tmpls_[m] == tmpl) return static_cast<std::int32_t>(m);
  }
  if (used_ == kMaxTables) return -1;
  tmpls_[used_] = tmpl;
  for (unsigned r = 0; r < ports_; ++r)
    lane_bases_[r * kMaxTables + used_] =
        tmpl->lane_base.data() + static_cast<std::size_t>(r) * lanes_;
  bank_bases_[used_] = tmpl->bank_base.data();
  lanes_for_bank_[used_] = tmpl->lane_for_bank.data();
  return static_cast<std::int32_t>(used_++);
}

bool ExecPlan::compile(const AccessBatch& batch, PlanCache& cache) {
  count_ = batch.count();
  lanes_ = cache.lanes();
  ports_ = cache.ports();
  used_ = 0;
  tmpl_of_.resize(static_cast<std::size_t>(count_));
  delta_.resize(static_cast<std::size_t>(count_));
  // Sized once; later compiles overwrite the live prefix in place.
  tmpls_.resize(kMaxTables);
  lane_bases_.resize(static_cast<std::size_t>(ports_) * kMaxTables);
  bank_bases_.resize(kMaxTables);
  lanes_for_bank_.resize(kMaxTables);

  std::int32_t last = -1;  // table index the previous access resolved to
  const auto resolve = [&](std::int64_t t,
                           const access::ParallelAccess& acc) -> bool {
    std::int64_t delta = 0;
    const PlanTemplate* tmpl = cache.lookup(acc, delta);
    if (tmpl == nullptr) return false;
    if (last < 0 || tmpls_[static_cast<std::size_t>(last)] != tmpl) {
      last = resolve_table(tmpl);
      if (last < 0) return false;
    }
    tmpl_of_[static_cast<std::size_t>(t)] = last;
    delta_[static_cast<std::size_t>(t)] = delta;
    return true;
  };

  access::ParallelAccess acc{batch.kind, batch.start};
  if (batch.outer_count == 1) {
    // Single strided walk — the shape every coalesced service run takes.
    // Anchors repeat their residue class every `period` steps (the MAF's
    // axis periods divided by the stride), and within one class the
    // per-anchor delta is affine in the block coordinates (see
    // plan_cache.hpp), so after resolving one full period plus one
    // access, the rest of the batch is a copy with a constant delta
    // advance — no cache lookups. The caller already bounds-checked the
    // whole batch (PolyMem::validate_batch corner check), so skipping
    // lookup() skips only work, never a safety check.
    const std::int64_t period =
        axis_period(cache.period_i(), batch.inner_stride.i) *
        axis_period(cache.period_j(), batch.inner_stride.j);
    const std::int64_t head =
        (period > 0 && period + 1 < count_) ? period + 1 : count_;
    std::int64_t t = 0;
    for (; t < head; ++t) {
      if (!resolve(t, acc)) return false;
      acc.anchor.i += batch.inner_stride.i;
      acc.anchor.j += batch.inner_stride.j;
    }
    if (t < count_ &&
        tmpl_of_[static_cast<std::size_t>(period)] == tmpl_of_[0]) {
      const std::int64_t advance =
          delta_[static_cast<std::size_t>(period)] - delta_[0];
      for (; t < count_; ++t) {
        const auto cur = static_cast<std::size_t>(t);
        const auto prev = static_cast<std::size_t>(t - period);
        tmpl_of_[cur] = tmpl_of_[prev];
        delta_[cur] = delta_[prev] + advance;
      }
    } else {
      for (; t < count_; ++t) {
        if (!resolve(t, acc)) return false;
        acc.anchor.i += batch.inner_stride.i;
        acc.anchor.j += batch.inner_stride.j;
      }
    }
    return used_ > 0 || count_ == 0;
  }

  std::int64_t t = 0;
  for (std::int64_t o = 0; o < batch.outer_count; ++o) {
    acc.anchor = {batch.start.i + o * batch.outer_stride.i,
                  batch.start.j + o * batch.outer_stride.j};
    for (std::int64_t k = 0; k < batch.inner_count; ++k) {
      if (!resolve(t, acc)) return false;
      ++t;
      acc.anchor.i += batch.inner_stride.i;
      acc.anchor.j += batch.inner_stride.j;
    }
  }
  return used_ > 0 || count_ == 0;
}

}  // namespace polymem::core
