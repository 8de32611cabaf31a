#include "core/plan_cache.hpp"

#include "common/error.hpp"
#include "common/math.hpp"

namespace polymem::core {

using access::ParallelAccess;
using access::PatternKind;

namespace {

// Keying templates as (kind * Pi + ri) * Pj + rj must not overflow, and a
// degenerate geometry with astronomically long periods would hash poorly
// anyway; such configurations simply keep the naive path.
constexpr std::int64_t kMaxPeriod = std::int64_t{1} << 20;

// Templates are built lazily per residue class actually touched, so the
// map stays tiny for regular walks; this cap bounds adversarial access
// sequences that spray residues (overflow degrades to the naive path).
constexpr std::size_t kMaxTemplates = std::size_t{1} << 16;

}  // namespace

PlanCache::PlanCache(const PolyMemConfig& config, const maf::Maf& maf,
                     const maf::AddressingFunction& addressing)
    : config_(&config), maf_(&maf), addressing_(&addressing) {
  for (PatternKind kind : access::kAllPatterns)
    kinds_[static_cast<std::size_t>(kind)].support =
        maf::probe_support(maf, kind);
  period_i_ = maf.period_i();
  period_j_ = maf.period_j();
  enabled_ = period_i_ < kMaxPeriod && period_j_ < kMaxPeriod;
  if (!enabled_) return;
  POLYMEM_ASSERT(period_i_ % config.p == 0 && period_j_ % config.q == 0);
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
  }
}

const PlanTemplate* PlanCache::lookup(const ParallelAccess& access,
                                      std::int64_t& delta, Memo& memo) {
  if (!enabled_) return nullptr;
  const KindInfo& ki = kinds_[static_cast<std::size_t>(access.kind)];
  switch (ki.support) {
    case maf::SupportLevel::kNone:
      return nullptr;
    case maf::SupportLevel::kAligned:
      // Periods are multiples of p and q, so alignment is a residue-class
      // property and each cached template is alignment-consistent.
      if (access.anchor.i % config_->p != 0 ||
          access.anchor.j % config_->q != 0)
        return nullptr;
      break;
    case maf::SupportLevel::kAny:
      break;
  }
  const auto [ai, aj] = access.anchor;
  if (ai < ki.min_i || ai > ki.max_i || aj < ki.min_j || aj > ki.max_j)
    return nullptr;
  // In-bounds anchors are non-negative (min_j >= 0 even for SecDiag), so
  // plain division is the floored decomposition a = A*P + r, r in [0, P).
  const std::int64_t ri = ai % period_i_;
  const std::int64_t rj = aj % period_j_;
  delta = (ai / period_i_) * delta_i_ + (aj / period_j_) * delta_j_;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(access.kind) * period_i_ + ri) * period_j_ +
      rj;
  for (unsigned s = 0; s < Memo::kSlots; ++s) {
    if (memo.key[s] == key) {
      ++hits_;
      return memo.tmpl[s];
    }
  }
  const PlanTemplate* tmpl = nullptr;
  if (auto it = templates_.find(key); it != templates_.end()) {
    ++hits_;
    tmpl = &it->second;
  } else if (templates_.size() < kMaxTemplates) {
    tmpl = &build(access.kind, ri, rj, key);
  } else {
    return nullptr;  // cache full
  }
  memo.key[memo.next] = key;
  memo.tmpl[memo.next] = tmpl;
  memo.next = (memo.next + 1) % Memo::kSlots;
  return tmpl;
}

std::optional<std::int64_t> PlanCache::period_shift(access::Coord from,
                                                    access::Coord to) const {
  const std::int64_t di = to.i - from.i;
  const std::int64_t dj = to.j - from.j;
  if (!enabled_ || di % period_i_ != 0 || dj % period_j_ != 0)
    return std::nullopt;
  return (di / period_i_) * delta_i_ + (dj / period_j_) * delta_j_;
}

const PlanTemplate& PlanCache::build(PatternKind kind, std::int64_t ri,
                                     std::int64_t rj, std::uint64_t key) {
  // The residue anchor (ri, rj) may place elements outside the address
  // space or below zero (SecDiag walks left); bank() and the floordiv
  // decomposition are defined there, and the per-anchor delta shifts the
  // base addresses back into range for every real anchor of the class.
  access::expand_into({kind, {ri, rj}}, config_->p, config_->q,
                      coords_scratch_);
  const unsigned lanes = static_cast<unsigned>(coords_scratch_.size());
  PlanTemplate t;
  t.bank.resize(lanes);
  t.lane_for_bank.resize(lanes);
  t.addr0.resize(lanes);
  t.bank_addr0.resize(lanes);
  t.id = static_cast<std::uint32_t>(templates_.size());
  const auto p = static_cast<std::int64_t>(config_->p);
  const auto q = static_cast<std::int64_t>(config_->q);
  for (unsigned k = 0; k < lanes; ++k) {
    const access::Coord c = coords_scratch_[k];
    t.bank[k] = maf_->bank(c);
    t.addr0[k] = floordiv(c.i, p) * row_words_ + floordiv(c.j, q);
  }
  for (unsigned k = 0; k < lanes; ++k) {
    // Conflict-freeness (proven by the oracle before lookup hands out
    // templates) makes `bank` a permutation; a violation here is a bug.
    POLYMEM_ASSERT(t.bank[k] < lanes);
    t.lane_for_bank[t.bank[k]] = k;
    t.bank_addr0[t.bank[k]] = t.addr0[k];
  }
  ++builds_;
  return templates_.emplace(key, std::move(t)).first->second;
}

}  // namespace polymem::core
