// Plan-template cache — the fast path of the access engine.
//
// Every MAF in maf/maf.hpp is periodic per axis (Maf::period_i/period_j),
// and the addressing function A(i,j) = |i/p|*(W/q) + |j/q| decomposes over
// those periods: writing the anchor as a = A*P + r (P the axis period,
// r the residue), the bank of every element of the access depends only on
// (pattern, r), and its intra-bank address is an affine shift of the
// residue-anchor address:
//
//   bank(a + d)  = bank(r + d)
//   addr(a + d)  = addr0(r + d) + Ai*(Pi/p)*(W/q) + Aj*(Pj/q)
//
// So one *plan template* per (pattern, anchor-residue) class — the lane
// banks, the per-lane base addresses and the gather table compiled from
// them against the owner's banks — replaces the per-lane MAF + addressing
// + shuffle work of the naive AGU path with one indexed load and one add
// per lane.
//
// The decomposition holds for every pattern kind, served or not, so the
// table has two doors. lookup() gates on support, alignment and bounds
// and hands single accesses only classes the scheme serves conflict-free.
// class_template() serves any in-bounds anchor of any kind: the batch
// lowering (PolyMem::read_batch/write_batch/load_batch/store_batch) calls
// it after the batch's own checks.
//
// The table is dense: each pattern kind owns Pi*Pj slots (an unsupported
// kind's are allocated when it is first touched), and an anchor (ai, aj)
// selects slot (ai mod Pi)*Pj + (aj mod Pj). With power-of-two periods —
// every geometry whose p and q are powers of two — the slot index and the
// per-anchor delta are masks and shifts. A slot stays null until its
// class is first touched; then it holds the class's template for the
// cache's lifetime. A geometry whose periods are not powers of two, or
// that has more than 4096 classes per kind, disables the cache, and every
// access runs on the AGU reference; every power-of-two geometry up to 32
// lanes fits (the largest is ReTr 4x8 or 8x4, 32 x 128 classes).
//
// Threading: a PlanCache has one owner, the PolyMem whose blocks it points
// into, and only the one thread that runs that PolyMem's engine calls it
// (core/polymem.hpp). So the slots, the build scratch and the hit/build
// counters are plain members. Template pointers are stable for the
// cache's lifetime.
//
// Correctness rests on two machine-checked facts: the axis periods
// (tested against Maf::bank over multiple periods) and conflict-freeness
// (the capability oracle's exhaustive per-period proof, which also makes
// the bank vector of every template lookup() returns a permutation by
// construction). The differential test suite
// (tests/core/plan_cache_test.cpp) additionally asserts bitwise equality
// of cached and naive plans and data for every scheme x pattern x an
// anchor sweep, and of the backdoor's batches for every pattern kind.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "access/pattern.hpp"
#include "core/banks.hpp"
#include "core/config.hpp"
#include "core/simd/aligned.hpp"
#include "maf/conflict.hpp"
#include "maf/maf.hpp"

namespace polymem::core {

/// The reusable part of an AccessPlan for one (pattern, anchor-residue)
/// class: the lane banks, the base intra-bank addresses, and the kernel
/// table built from them. Per-anchor plans are `addr0[k] + delta` with the
/// O(1) delta returned by PlanCache::lookup. Two lanes share a bank only
/// in a class the scheme does not serve; their addresses still differ.
struct PlanTemplate {
  std::vector<unsigned> bank;       ///< lane k -> bank
  std::vector<std::int64_t> addr0;  ///< lane k -> base address
  /// Gather and scatter table, [port][lane] flattened: read replica
  /// `port`'s storage of lane k's bank, pre-advanced by addr0[k] words.
  simd::AlignedVec<std::uintptr_t> lane_base;
};

class PlanCache {
 public:
  /// Templates' kernel tables point into `banks`, which must outlive the
  /// cache and never move.
  PlanCache(const PolyMemConfig& config, const maf::Maf& maf,
            BankArray& banks);

  // Templates point into the owner's banks; pinned like them.
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// False when the periods are not powers of two or give a kind more
  /// than 4096 classes (the owner then always uses the naive AGU path).
  bool enabled() const { return enabled_; }

  /// O(1) template lookup. Returns the template plus the per-anchor
  /// address offset `delta` (element addresses are `addr0[k] + delta`).
  /// Returns nullptr — caller falls back to the naive path, which either
  /// serves the access or reports the exact error — when the pattern is
  /// unsupported (including unaligned anchors of aligned-only patterns),
  /// the access leaves the address space, or the cache is disabled.
  const PlanTemplate* lookup(const access::ParallelAccess& access,
                             std::int64_t& delta);

  /// lookup() without its gate: the template and delta of any access
  /// whose elements all lie in the address space, for any pattern kind,
  /// whether or not the scheme serves it. The caller has checked bounds
  /// and enabled(). Its bank vector need not be a permutation, so a
  /// caller that needs conflict-freedom checks support itself (as
  /// PolyMem::validate_batch does). Counted like lookup(). The hit path
  /// is inline; a class's first touch builds it out of line.
  const PlanTemplate* class_template(const access::ParallelAccess& access,
                                     std::int64_t& delta) {
    const auto [ai, aj] = access.anchor;
    // In-bounds anchors are non-negative (min_j >= 0 even for SecDiag), so
    // masks and shifts give the floored decomposition a = A*P + r.
    delta = (ai >> shift_i_) * delta_i_ + (aj >> shift_j_) * delta_j_;
    const auto slot = static_cast<std::size_t>(
        ((ai & (period_i_ - 1)) << shift_j_) | (aj & (period_j_ - 1)));
    const auto& slots = kinds_[static_cast<std::size_t>(access.kind)].slots;
    if (slot < slots.size() && slots[slot] != nullptr) {
      ++hits_;
      return slots[slot].get();
    }
    return build(access.kind, slot);
  }

  std::int64_t period_i() const { return period_i_; }
  std::int64_t period_j() const { return period_j_; }

  /// Machine-checked support level of `kind`, probed once per pattern at
  /// construction (also when the cache is disabled) and immutable after:
  /// per-batch callers read it without the probe's process-wide lock.
  maf::SupportLevel support(access::PatternKind kind) const {
    return kinds_[static_cast<std::size_t>(kind)].support;
  }

  /// Served lookups and class_template() calls, each exactly one of: a
  /// hit on a filled slot, or the build that filled it (lookups that
  /// return nullptr count as neither).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t builds() const { return builds_; }
  /// Filled slots, counted over the whole table: equal to builds(), since
  /// a class is built once, when its slot is first touched.
  std::size_t size() const;

  /// Both counters in one snapshot.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t builds = 0;
  };
  Stats stats() const { return {hits_, builds_}; }

 private:
  struct KindInfo {
    maf::SupportLevel support = maf::SupportLevel::kNone;
    // Valid anchor rectangle (inclusive) for in-bounds accesses.
    std::int64_t min_i = 0, max_i = -1;
    std::int64_t min_j = 0, max_j = -1;
    // Pi*Pj slots, (ri << shift_j_) | rj; an unsupported kind's stay
    // unallocated until its first class_template() call.
    std::vector<std::unique_ptr<PlanTemplate>> slots;
  };

  /// Fills slot `slot` of `kind` (allocating the kind's slot array on its
  /// first touch) and counts one build.
  const PlanTemplate* build(access::PatternKind kind, std::size_t slot);

  const PolyMemConfig* config_;
  const maf::Maf* maf_;
  BankArray* banks_;
  bool enabled_ = false;
  std::int64_t period_i_ = 1;
  std::int64_t period_j_ = 1;
  unsigned shift_i_ = 0;         // log2(Pi)
  unsigned shift_j_ = 0;         // log2(Pj)
  std::int64_t row_words_ = 0;   // W/q: address stride of one block row
  std::int64_t delta_i_ = 0;     // (Pi/p) * (W/q): delta per i-period
  std::int64_t delta_j_ = 0;     // Pj/q: delta per j-period
  KindInfo kinds_[6];
  std::vector<access::Coord> coords_scratch_;  // build()'s expansion

  std::uint64_t hits_ = 0;
  std::uint64_t builds_ = 0;
};

}  // namespace polymem::core
