#include "core/plan_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"

namespace polymem::core {

using access::ParallelAccess;
using access::PatternKind;

namespace {

// Residue classes one pattern kind may have before the cache disables
// itself (a table of that many slots is 32 KB of pointers).
constexpr std::int64_t kMaxClasses = 4096;

}  // namespace

PlanCache::PlanCache(const PolyMemConfig& config, const maf::Maf& maf,
                     BankArray& banks)
    : config_(&config), maf_(&maf), banks_(&banks) {
  for (PatternKind kind : access::kAllPatterns)
    kinds_[static_cast<std::size_t>(kind)].support =
        maf::probe_support(maf, kind);
  period_i_ = maf.period_i();
  period_j_ = maf.period_j();
  // The second bound divides, so the class count cannot overflow.
  enabled_ = is_pow2(static_cast<std::uint64_t>(period_i_)) &&
             is_pow2(static_cast<std::uint64_t>(period_j_)) &&
             period_i_ <= kMaxClasses && period_j_ <= kMaxClasses / period_i_;
  if (!enabled_) return;
  POLYMEM_ASSERT(period_i_ % config.p == 0 && period_j_ % config.q == 0);
  shift_i_ = log2_floor(static_cast<std::uint64_t>(period_i_));
  shift_j_ = log2_floor(static_cast<std::uint64_t>(period_j_));
  row_words_ = config.width / config.q;
  delta_i_ = (period_i_ / config.p) * row_words_;
  delta_j_ = period_j_ / config.q;
  coords_scratch_.reserve(config.lanes());
  for (PatternKind kind : access::kAllPatterns) {
    const auto ext = access::pattern_extent(kind, config.p, config.q);
    KindInfo& ki = kinds_[static_cast<std::size_t>(kind)];
    ki.min_i = 0;
    ki.max_i = config.height - ext.rows;
    ki.min_j = -ext.col_offset;
    ki.max_j = config.width - ext.cols - ext.col_offset;
    if (ki.support != maf::SupportLevel::kNone)
      ki.slots.resize(static_cast<std::size_t>(period_i_ * period_j_));
  }
}

const PlanTemplate* PlanCache::lookup(const ParallelAccess& access,
                                      std::int64_t& delta) {
  if (!enabled_) return nullptr;
  const KindInfo& ki = kinds_[static_cast<std::size_t>(access.kind)];
  const auto [ai, aj] = access.anchor;
  switch (ki.support) {
    case maf::SupportLevel::kNone:
      return nullptr;
    case maf::SupportLevel::kAligned:
      // Periods are multiples of p and q, so alignment is a residue-class
      // property and each cached template is alignment-consistent; p and
      // q divide power-of-two periods, so they are powers of two too.
      if ((ai & (static_cast<std::int64_t>(config_->p) - 1)) != 0 ||
          (aj & (static_cast<std::int64_t>(config_->q) - 1)) != 0)
        return nullptr;
      break;
    case maf::SupportLevel::kAny:
      break;
  }
  if (ai < ki.min_i || ai > ki.max_i || aj < ki.min_j || aj > ki.max_j)
    return nullptr;
  return class_template(access, delta);
}

std::size_t PlanCache::size() const {
  std::size_t filled = 0;
  for (const KindInfo& ki : kinds_)
    filled += static_cast<std::size_t>(
        std::count_if(ki.slots.begin(), ki.slots.end(),
                      [](const auto& slot) { return slot != nullptr; }));
  return filled;
}

const PlanTemplate* PlanCache::build(PatternKind kind, std::size_t slot) {
  KindInfo& ki = kinds_[static_cast<std::size_t>(kind)];
  if (ki.slots.empty())
    ki.slots.resize(static_cast<std::size_t>(period_i_ * period_j_));
  const auto ri = static_cast<std::int64_t>(slot >> shift_j_);
  const auto rj = static_cast<std::int64_t>(slot) & (period_j_ - 1);
  // The residue anchor (ri, rj) may place elements outside the address
  // space or below zero (SecDiag walks left); bank() and the floordiv
  // decomposition are defined there, and the per-anchor delta shifts the
  // base addresses back into range for every real anchor of the class.
  access::expand_into({kind, {ri, rj}}, config_->p, config_->q,
                      coords_scratch_);
  const unsigned lanes = static_cast<unsigned>(coords_scratch_.size());
  auto t = std::make_unique<PlanTemplate>();
  t->bank.resize(lanes);
  t->addr0.resize(lanes);
  const auto p = static_cast<std::int64_t>(config_->p);
  const auto q = static_cast<std::int64_t>(config_->q);
  for (unsigned k = 0; k < lanes; ++k) {
    const access::Coord c = coords_scratch_[k];
    t->bank[k] = maf_->bank(c);
    POLYMEM_ASSERT(t->bank[k] < lanes);
    t->addr0[k] = floordiv(c.i, p) * row_words_ + floordiv(c.j, q);
  }
  // Base addresses of a residue class may sit below the bank's first word
  // (the per-anchor delta shifts them back in range); fold them into the
  // table as integers so no out-of-range pointer is ever formed.
  const unsigned ports = banks_->read_ports();
  t->lane_base.resize(static_cast<std::size_t>(ports) * lanes);
  std::uintptr_t* base = t->lane_base.data();
  for (unsigned r = 0; r < ports; ++r)
    for (unsigned k = 0; k < lanes; ++k)
      *base++ = reinterpret_cast<std::uintptr_t>(
                    banks_->bank_storage(r, t->bank[k])) +
                static_cast<std::uintptr_t>(
                    static_cast<std::int64_t>(sizeof(hw::Word)) * t->addr0[k]);
  ++builds_;
  ki.slots[slot] = std::move(t);
  return ki.slots[slot].get();
}

}  // namespace polymem::core
