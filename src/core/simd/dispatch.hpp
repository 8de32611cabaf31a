// The engine's gather/scatter kernels (defined in
// core/simd/kernels_scalar.cpp).
//
// The shuffle stage of a residue class is a static permutation
// (core/plan_cache.hpp), so executing one parallel access is a gather —
// lane k loads `*(lane_base[k] + delta)` — and a write is the mirror
// scatter. PolyMem lowers every batch to one table pointer and one delta
// per access and runs one kernel call over all of them; a single access
// is a call with a count of one. The AGU reference (a PolyMem with its
// plan cache disabled) is the oracle tests/core/simd_exec_test.cpp holds
// them to, bit for bit. They are portable C++ and need no build flag or
// CPU detection.
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

// Kernel contracts. Access t uses the template table `table[t]` (a
// PlanTemplate::lane_base, `replicas * lanes` entries, [replica][lane]
// flattened) at word offset `delta[t]`; `lanes` is the number of elements
// per parallel access and `count` the number of accesses.

/// Gather through read replica `port`:
///   out[t*lanes + k] = word at (table[t][port*lanes + k] + delta[t] words)
void gather(const std::uintptr_t* const* table, unsigned port,
            unsigned lanes, const std::int64_t* delta, std::int64_t count,
            Word* out);

/// Scatter in lane order into every replica r < replicas, access by
/// access, so where accesses overlap the last one's words stay:
///   word at (table[t][r*lanes + k] + delta[t] words) = data[t*lanes + k]
/// The lanes of one access never share a word, so their order within the
/// access does not matter, even where two of them share a bank.
void scatter(const std::uintptr_t* const* table, unsigned replicas,
             unsigned lanes, const std::int64_t* delta, std::int64_t count,
             const Word* data);

}  // namespace polymem::core::simd
