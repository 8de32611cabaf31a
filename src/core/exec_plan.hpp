// ExecPlan — a batch of parallel accesses compiled to flat SoA tables.
//
// The plan-template cache (core/plan_cache.hpp) reduces one access to
// "permute through a residue-class table, add one delta per bank". The
// permutation is static, so executing an access is a gather, not a
// traversal of bank objects.
//
// Each residue class's template carries its kernel tables — pointer
// tables that fold the bank select and base address into a single
// uintptr per lane/bank, built against the owning PolyMem's banks when
// the class is first touched — so executing an access of the class with
// per-anchor offset `delta` is the gather
//
//   out[k] = *(lane_base[port][k] + delta)
//
// and the mirrored scatter for writes. Single accesses run one-access
// kernel calls straight off a template, and every ExecPlan points into
// the templates it uses.
//
// compile() turns a whole AccessBatch into structure-of-arrays form:
//
//   tmpl_of[t]  int32  — which of the plan's classes access t uses
//                        (strided walks cycle through a handful);
//   delta[t]    int64  — access t's word offset from the class's base
//                        addresses (the plan cache's per-anchor delta);
//
// plus the kernel argument tables: per class in first-use order, the
// template's gather table for every port and its scatter tables.
//
// All per-access arrays are cache-line aligned (simd/aligned.hpp) and
// resized in place: recompiling a plan of the same shape allocates
// nothing, which the batch heap-count test enforces. The pointer tables
// stay valid for the owning PolyMem's lifetime — bank storage is fixed at
// construction and templates are never evicted — so a compiled plan can
// be memoized and replayed for every later call with an equal
// AccessBatch.
//
// The permutation baked into each table is safe to replay blindly: the
// capability oracle proves conflict-freedom for the scheme per residue
// class before the plan cache hands out a template, which makes `bank` a
// permutation of [0, lanes) by construction (see plan_cache.hpp). That is
// why execution needs no per-cycle bank-conflict accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "core/access_batch.hpp"
#include "core/plan_cache.hpp"
#include "core/simd/aligned.hpp"

namespace polymem::core {

class ExecPlan {
 public:
  /// Distinct residue classes a single plan may span before compile()
  /// gives up (adversarial batches then run access by access).
  static constexpr std::size_t kMaxTables = 64;

  /// Compiles `batch` against the owning PolyMem's plan cache. Returns
  /// false — leaving the plan unusable — when any access lacks a cached
  /// template (cache disabled, unsupported anchors; the caller then serves
  /// the batch per access, where the AGU reports exact errors) or the
  /// batch spans more than kMaxTables residue classes.
  bool compile(const AccessBatch& batch, PlanCache& cache);

  /// Re-targets a compiled plan at its batch moved by whole MAF periods:
  /// every access keeps its residue class, so the class tables stay and
  /// each delta moves by `shift` (PlanCache::period_shift). O(count),
  /// allocates nothing.
  void rebase(std::int64_t shift) {
    for (std::int64_t& d : delta_) d += shift;
  }

  std::int64_t count() const { return count_; }
  unsigned lanes() const { return lanes_; }
  unsigned ports() const { return ports_; }
  bool uniform() const { return used_ == 1; }

  const std::int32_t* tmpl_of() const { return tmpl_of_.data(); }
  const std::int64_t* delta() const { return delta_.data(); }

  /// Kernel argument tables, indexed by tmpl_of: each class's gather
  /// table as seen by read replica `port`, its scatter table and its
  /// inverse permutation.
  const std::uintptr_t* const* lane_bases(unsigned port) const {
    return lane_bases_.data() + static_cast<std::size_t>(port) * kMaxTables;
  }
  const std::uintptr_t* const* bank_bases() const { return bank_bases_.data(); }
  const std::uint32_t* const* lanes_for_bank() const {
    return lanes_for_bank_.data();
  }

 private:
  std::int32_t resolve_table(const PlanTemplate* tmpl);

  simd::AlignedVec<std::int32_t> tmpl_of_;
  simd::AlignedVec<std::int64_t> delta_;
  // Per class, in first-use order ([0, used_) live): the template and the
  // tables of it the kernels take.
  std::vector<const PlanTemplate*> tmpls_;
  std::vector<const std::uintptr_t*> lane_bases_;  // [port][kMaxTables]
  std::vector<const std::uintptr_t*> bank_bases_;
  std::vector<const std::uint32_t*> lanes_for_bank_;
  std::size_t used_ = 0;
  std::int64_t count_ = 0;
  unsigned lanes_ = 0;
  unsigned ports_ = 0;
};

}  // namespace polymem::core
