// Runtime CPU dispatch for the compiled batch-execution kernels.
//
// The shuffle stage of a compiled access plan is a static permutation
// (core/exec_plan.hpp), so executing one parallel access is a gather —
// lane k loads `*(lane_base[k] + delta)` — and a batched write is the
// mirror scatter. Three kernel families implement that loop:
//
//   scalar — portable C++, the reference the differential suite compares
//            SIMD output against bit-for-bit, and the default on hosts
//            without AVX2/NEON;
//   avx2   — x86-64 `vpgatherqq`-based gathers (compiled with a function
//            target attribute, so the library itself needs no -mavx2);
//            its writes are the scalar scatter, which measured faster;
//   neon   — aarch64: vectorised stores around scalar loads (NEON has no
//            gather instruction; the win is the flat table walk).
//
// The level is detected once at first use and can be overridden:
//   POLYMEM_FORCE_SCALAR=1     — force the scalar kernels,
//   POLYMEM_SIMD=scalar|avx2|neon|auto — request a level explicitly
//                                 (clamped to what the host supports).
// Tests force levels programmatically via force_level() so the fallback
// path stays exercised on AVX2 hosts.
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

enum class Level : int { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// "scalar" / "avx2" / "neon" — for logs, benches and tests.
const char* level_name(Level level);

/// Best level the host CPU (and this build) supports.
Level detected_level();

/// The level the kernels() table currently serves: detected_level()
/// filtered through the environment knobs, or the last force_level().
Level active_level();

/// Overrides the active level (clamped to detected_level(); requesting
/// e.g. AVX2 on a non-AVX2 host keeps scalar). Test/bench hook — call it
/// only between batch operations, not concurrently with them.
void force_level(Level level);

// Kernel signatures. All tables are flat arrays built by the ExecPlan
// compiler; `delta[t]` is access t's word offset from the table's base
// pointers, `lanes` the number of elements per parallel access and
// `count` the number of accesses in the run.

/// Gather a run of accesses sharing one lane table:
///   out[t*lanes + k] = word at (lane_base[k] + delta[t] words)
using GatherRunFn = void (*)(const std::uintptr_t* lane_base, unsigned lanes,
                             const std::int64_t* delta, std::int64_t count,
                             Word* out);

/// Gather with a per-access table: table_lane_base[tmpl_of[t]] replaces
/// the shared lane_base (mixed-residue batches).
using GatherMultiFn = void (*)(const std::uintptr_t* const* table_lane_base,
                               const std::int32_t* tmpl_of, unsigned lanes,
                               const std::int64_t* delta, std::int64_t count,
                               Word* out);

/// Scatter a run of write accesses sharing one bank table. `bank_base`
/// holds `replicas * lanes` entries ([replica][bank] flattened: every
/// read-port replica stores the same data); lane_for_bank is the inverse
/// permutation routing canonical data words to banks:
///   word at (bank_base[r*lanes + b] + delta[t]) = data[t*lanes + lane_for_bank[b]]
using ScatterRunFn = void (*)(const std::uintptr_t* bank_base,
                              unsigned replicas,
                              const std::uint32_t* lane_for_bank,
                              unsigned lanes, const std::int64_t* delta,
                              std::int64_t count, const Word* data);

/// Scatter with per-access tables (mixed-residue batches).
using ScatterMultiFn = void (*)(const std::uintptr_t* const* table_bank_base,
                                const std::uint32_t* const* table_lane_for_bank,
                                const std::int32_t* tmpl_of, unsigned replicas,
                                unsigned lanes, const std::int64_t* delta,
                                std::int64_t count, const Word* data);

struct Kernels {
  Level level = Level::kScalar;
  GatherRunFn gather_run = nullptr;
  GatherMultiFn gather_multi = nullptr;
  ScatterRunFn scatter_run = nullptr;
  ScatterMultiFn scatter_multi = nullptr;
};

/// The kernel table for the active level. Re-read per batch operation so
/// force_level() takes effect immediately.
const Kernels& kernels();

/// The kernel table for a specific (host-supported) level — benches
/// compare levels side by side without flipping global state.
const Kernels& kernels_for(Level level);

}  // namespace polymem::core::simd
