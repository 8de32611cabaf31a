// Access-plan linter: static analysis of batch descriptors and traces.
//
// PolyMem::read_batch/write_batch reject bad batches at runtime by
// throwing on the first problem; this linter analyses the same
// descriptors *without executing them* and reports every problem at
// once, with a stable diagnostic code per kind (lint_code) so tools and
// CI can gate on them:
//
//   PML001 bad-config          the configuration itself is invalid
//   PML002 empty-batch         a batch moves no data (or negative counts,
//                              or a degenerate/aliasing affine pattern)
//   PML003 unsupported-pattern the scheme never serves the pattern; for
//                              affine ops, the symbolic prover refutes the
//                              pattern (with a replayable counterexample)
//   PML004 unaligned-anchor    aligned-only pattern, unaligned start
//   PML005 misaligned-stride   aligned-only pattern, stride leaves the
//                              aligned anchor lattice
//   PML006 out-of-bounds       a corner access leaves the address space
//   PML007 bank-conflict       lane pair sharing a bank (with the worst
//                              per-bank load, i.e. the serialization cost)
//   PML008 read-after-write    a read overlaps an earlier write's elements
//   PML009 trace-out-of-bounds trace elements outside the space
//   PML010 bank-imbalance      trace skewed onto few banks (schedule
//                              length is lower-bounded by the worst bank)
//
// Batches are not limited to the six Table-I families: a BatchOp may carry
// an arbitrary AffinePattern (verify/affine.hpp). Such ops are admitted
// through the symbolic prover (verify/affine_prover.hpp) — proven
// conflict-free patterns pass with no diagnostic at all, aligned-only
// proofs get the same anchor/stride lint as the built-in aligned families,
// and refuted patterns are rejected with a concrete collision witness in
// Diagnostic::counterexample.
//
// Diagnostics never throw; a LintReport collects everything found.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/polymem.hpp"
#include "sched/trace.hpp"
#include "verify/affine.hpp"

namespace polymem::verify {

enum class LintKind : std::uint8_t {
  kBadConfig,
  kEmptyBatch,
  kUnsupportedPattern,
  kUnalignedAnchor,
  kMisalignedStride,
  kOutOfBounds,
  kBankConflict,
  kReadAfterWrite,
  kTraceOutOfBounds,
  kBankImbalance,
};

/// Stable diagnostic code ("PML006") / short name ("out-of-bounds").
const char* lint_code(LintKind kind);
const char* lint_name(LintKind kind);

enum class Severity : std::uint8_t { kWarning, kError };
const char* severity_name(Severity severity);

/// One finding. `message` always starts with "[<code>]" and names the
/// pattern, anchor and lanes involved; `op` is the index of the offending
/// program op (-1 when the finding concerns the whole input).
struct Diagnostic {
  LintKind kind = LintKind::kBadConfig;
  Severity severity = Severity::kError;
  std::string message;
  std::int64_t op = -1;
  /// Structured, replayable collision witness for conflict findings
  /// (PML003 on affine ops, PML004 aligned-only refutations, PML007).
  std::optional<AffineCounterexample> counterexample;
};

/// One step of a batch program: a direction plus the batch descriptor.
/// When `affine` is set, the op accesses that affine pattern instead of
/// the Table-I family in `batch.kind`; the batch anchor walk (start,
/// strides, counts) is unchanged, and admission goes through the symbolic
/// prover rather than the capability oracle.
struct BatchOp {
  enum class Dir : std::uint8_t { kRead, kWrite };
  Dir dir = Dir::kRead;
  core::AccessBatch batch;
  std::optional<AffinePattern> affine;
};

const char* dir_name(BatchOp::Dir dir);

struct LintReport {
  std::vector<Diagnostic> diagnostics;

  std::size_t errors() const;
  std::size_t warnings() const;
  bool ok() const { return errors() == 0; }

  /// One line per diagnostic plus a trailing error/warning count.
  std::string summary() const;
};

/// Lints a single batch descriptor (as op 0): support, alignment, bounds
/// and bank-conflict analysis — everything but cross-op hazards.
LintReport lint_batch(const core::PolyMemConfig& config,
                      const core::AccessBatch& batch);

/// Lints a whole program: every op individually plus one read-after-write
/// hazard per read that overlaps earlier writes (naming the nearest).
LintReport lint_program(const core::PolyMemConfig& config,
                        const std::vector<BatchOp>& ops);

/// Lints an application trace against the configuration: out-of-bounds
/// elements and bank-load imbalance under the configuration's MAF.
LintReport lint_trace(const core::PolyMemConfig& config,
                      const sched::AccessTrace& trace);

}  // namespace polymem::verify
