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
// So one *plan template* per (pattern, anchor-residue) class — the bank
// permutation, its inverse, and the per-lane/per-bank base addresses —
// replaces the per-lane MAF + addressing + shuffle work of the naive AGU
// path with one cache lookup and one add per bank. Templates are built
// lazily on first use and reused for every later access in the same
// residue class (strided walks cycle through a handful of classes).
//
// Threading: a PlanCache has one owner, the PolyMem whose blocks it points
// into, and only the one thread that runs that PolyMem's engine calls it
// (core/polymem.hpp). So the template map, the build scratch and the
// hit/build counters are plain members. The recent-class memo lives with
// the caller (PlanCache::Memo), and template pointers are stable for the
// cache's lifetime.
//
// Correctness rests on two machine-checked facts: the axis periods
// (tested against Maf::bank over multiple periods) and conflict-freeness
// (the capability oracle's exhaustive per-period proof, which also makes
// every template's bank vector a permutation by construction). The
// differential test suite (tests/core/plan_cache_test.cpp) additionally
// asserts bitwise equality of cached and naive plans and data for every
// scheme x pattern x an anchor sweep.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "access/pattern.hpp"
#include "core/config.hpp"
#include "maf/addressing.hpp"
#include "maf/conflict.hpp"
#include "maf/maf.hpp"

namespace polymem::core {

/// The reusable part of an AccessPlan for one (pattern, anchor-residue)
/// class: the bank permutation in both directions and the base intra-bank
/// addresses. Per-anchor plans are `bank_addr0[b] + delta` with the O(1)
/// delta returned by PlanCache::lookup.
struct PlanTemplate {
  std::vector<unsigned> bank;           ///< lane k -> bank (permutation)
  std::vector<unsigned> lane_for_bank;  ///< bank b -> lane (inverse perm)
  std::vector<std::int64_t> addr0;      ///< lane k -> base address
  std::vector<std::int64_t> bank_addr0; ///< bank b -> base address
  /// Dense build-order index (0, 1, ... < the template cap): the key of
  /// per-class side tables such as the compiled TableStore.
  std::uint32_t id = 0;
};

class PlanCache {
 public:
  PlanCache(const PolyMemConfig& config, const maf::Maf& maf,
            const maf::AddressingFunction& addressing);

  // Holds pointers into the owning PolyMem's blocks; pinned like them.
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// False when the MAF periods are too large to key templates (the owner
  /// then always uses the naive AGU path).
  bool enabled() const { return enabled_; }

  /// Caller-owned memo of the last kSlots residue classes looked up:
  /// strided walks stay in one class for long runs, and row bursts on a
  /// scheme whose i-period is 2 alternate between two, so both skip the
  /// template map. PolyMem keeps one for its single accesses and each
  /// ExecPlan compile brings its own, so a batch's walk does not evict
  /// the single-access classes. Template pointers are stable (never
  /// invalidated while the cache lives), which is what makes the
  /// memoized pointers sound.
  struct Memo {
    static constexpr unsigned kSlots = 4;
    std::uint64_t key[kSlots] = {~0ull, ~0ull, ~0ull, ~0ull};
    const PlanTemplate* tmpl[kSlots] = {};
    unsigned next = 0;  ///< slot the next miss overwrites (round robin)
  };

  /// O(1) template lookup. Returns the template plus the per-anchor
  /// address offset `delta` (element addresses are `addr0[k] + delta`).
  /// Returns nullptr — caller falls back to the naive path, which either
  /// serves the access or reports the exact error — when the pattern is
  /// unsupported (including unaligned anchors of aligned-only patterns),
  /// the access leaves the address space, or the cache is disabled/full.
  /// `memo` carries the caller's recent-template fast path.
  const PlanTemplate* lookup(const access::ParallelAccess& access,
                             std::int64_t& delta, Memo& memo);

  /// Memo-less convenience overload (tools, tests, single-shot callers).
  const PlanTemplate* lookup(const access::ParallelAccess& access,
                             std::int64_t& delta) {
    Memo memo;
    return lookup(access, delta, memo);
  }

  std::int64_t period_i() const { return period_i_; }
  std::int64_t period_j() const { return period_j_; }

  /// Moving an anchor from `from` to `to` by whole periods on both axes
  /// keeps its residue class, so its template, and moves its delta by the
  /// returned amount (the decomposition above). nullopt when the move
  /// changes a residue or the cache is disabled. Callers pass in-bounds
  /// anchors, the only ones lookup() serves; this checks nothing else.
  std::optional<std::int64_t> period_shift(access::Coord from,
                                           access::Coord to) const;

  /// Machine-checked support level of `kind`, probed once per pattern at
  /// construction (also when the cache is disabled) and immutable after:
  /// per-batch callers read it without the probe's process-wide lock.
  maf::SupportLevel support(access::PatternKind kind) const {
    return kinds_[static_cast<std::size_t>(kind)].support;
  }

  /// Served-from-cache and template-build counters (lookup misses that
  /// return nullptr count as neither).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t builds() const { return builds_; }
  std::size_t size() const { return templates_.size(); }

  /// Aggregate cache state, one call — for polymem_info and reports.
  struct Stats {
    bool enabled = false;
    std::int64_t period_i = 1;
    std::int64_t period_j = 1;
    std::uint64_t hits = 0;
    std::uint64_t builds = 0;
    std::size_t templates = 0;
  };
  Stats stats() const {
    return {enabled_, period_i_, period_j_, hits(), builds(), size()};
  }

 private:
  struct KindInfo {
    maf::SupportLevel support = maf::SupportLevel::kNone;
    // Valid anchor rectangle (inclusive) for in-bounds accesses.
    std::int64_t min_i = 0, max_i = -1;
    std::int64_t min_j = 0, max_j = -1;
  };

  const PlanTemplate& build(access::PatternKind kind, std::int64_t ri,
                            std::int64_t rj, std::uint64_t key);

  const PolyMemConfig* config_;
  const maf::Maf* maf_;
  const maf::AddressingFunction* addressing_;
  bool enabled_ = false;
  std::int64_t period_i_ = 1;
  std::int64_t period_j_ = 1;
  std::int64_t row_words_ = 0;   // W/q: address stride of one block row
  std::int64_t delta_i_ = 0;     // (Pi/p) * (W/q): delta per i-period
  std::int64_t delta_j_ = 0;     // Pj/q: delta per j-period
  KindInfo kinds_[6];

  // Template map. Node-based, so PlanTemplate addresses are stable across
  // inserts — lookups hand out raw pointers and memos cache them.
  std::unordered_map<std::uint64_t, PlanTemplate> templates_;
  std::vector<access::Coord> coords_scratch_;  // build()'s expansion

  std::uint64_t hits_ = 0;
  std::uint64_t builds_ = 0;
};

}  // namespace polymem::core
