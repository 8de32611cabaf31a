// The compiled engine's gather/scatter kernels (defined in
// core/simd/kernels_scalar.cpp).
//
// The shuffle stage of a compiled access plan is a static permutation
// (core/exec_plan.hpp), so executing one parallel access is a gather —
// lane k loads `*(lane_base[k] + delta)` — and a write is the mirror
// scatter. PolyMem calls these kernels directly from its single-access
// and batch executors and its batch backdoor; the AGU reference (a PolyMem with
// its plan cache disabled) is the oracle tests/core/simd_exec_test.cpp
// holds them to, bit for bit. They are portable C++ and need no build
// flag or CPU detection.
//
// Pointer tables are carried as std::uintptr_t, not T*: residue-class
// base addresses may sit below a bank's first word (the per-anchor delta
// shifts them back into range), and integer arithmetic keeps that
// intermediate state well-defined — the value is only converted back to
// a pointer at dereference time, where it is in-bounds by construction.
#pragma once

#include <cstdint>

#include "hw/bram.hpp"

namespace polymem::core::simd {

using hw::Word;

/// The kernel family the engine runs, named in benchmark host
/// fingerprints. There is one: the portable kernels below.
enum class Level : int { kScalar = 0 };

inline const char* level_name(Level /*level*/) { return "scalar"; }

inline Level active_level() { return Level::kScalar; }

// Kernel contracts. All tables are flat arrays built by the ExecPlan
// compiler; `delta[t]` is access t's word offset from the table's base
// pointers, `lanes` the number of elements per parallel access and
// `count` the number of accesses in the run.

/// Gather a run of accesses sharing one lane table:
///   out[t*lanes + k] = word at (lane_base[k] + delta[t] words)
void gather_run(const std::uintptr_t* lane_base, unsigned lanes,
                const std::int64_t* delta, std::int64_t count, Word* out);

/// Gather with a per-access table: table_lane_base[tmpl_of[t]] replaces
/// the shared lane_base (mixed-residue batches).
void gather_multi(const std::uintptr_t* const* table_lane_base,
                  const std::int32_t* tmpl_of, unsigned lanes,
                  const std::int64_t* delta, std::int64_t count, Word* out);

/// Scatter a run of write accesses sharing one bank table. `bank_base`
/// holds `replicas * lanes` entries ([replica][bank] flattened: every
/// read-port replica stores the same data); lane_for_bank is the inverse
/// permutation routing canonical data words to banks:
///   word at (bank_base[r*lanes + b] + delta[t]) = data[t*lanes + lane_for_bank[b]]
void scatter_run(const std::uintptr_t* bank_base, unsigned replicas,
                 const std::uint32_t* lane_for_bank, unsigned lanes,
                 const std::int64_t* delta, std::int64_t count,
                 const Word* data);

/// Scatter through a gather table, for classes whose banks need not form
/// a permutation (the host backdoor's writes). `lane_base` holds
/// `replicas * lanes` entries ([replica][lane] flattened), and every lane
/// is stored into every replica:
///   word at (lane_base[r*lanes + k] + delta[t]) = data[t*lanes + k]
void scatter_lanes(const std::uintptr_t* lane_base, unsigned replicas,
                   unsigned lanes, const std::int64_t* delta,
                   std::int64_t count, const Word* data);

/// Scatter with per-access tables (mixed-residue batches).
void scatter_multi(const std::uintptr_t* const* table_bank_base,
                   const std::uint32_t* const* table_lane_for_bank,
                   const std::int32_t* tmpl_of, unsigned replicas,
                   unsigned lanes, const std::int64_t* delta,
                   std::int64_t count, const Word* data);

}  // namespace polymem::core::simd
