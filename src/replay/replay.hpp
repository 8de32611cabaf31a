// Trace-replay harness: executes a RecordedTrace against an arbitrary
// scheme x cache x port configuration, differentially verified.
//
// A trace pins the lane geometry, address space and canonical-data seed
// (sched/trace_io.hpp); this module supplies everything else. A Backend
// serves the ops, and replay(trace, options) builds one of three:
//
//  - *direct*: a PolyMem of the chosen scheme. Ops the scheme serves
//    conflict-free run through the batched engine (read_batch /
//    write_batch, ports round-robined); the rest fall back to the batch
//    host backdoor (load_batch / store_batch) — counted, so the report
//    shows what the scheme could not serve, and the replay still
//    completes on every scheme.
//  - *through_cache*: a CachedMatrix over LMem (the out-of-core path),
//    where rectangle-family ops map to block accesses and diagonal ops
//    exercise the element path of the software cache.
//  - *adaptive*: an adapt::AdaptiveMatrix starting on the chosen scheme,
//    migrating as the trace's pattern mix shifts (each migration runs
//    inside the op that triggered it, so the replay is deterministic).
//
// Each backend starts from the canonical trace-space image; the padding
// of a space that is not a multiple of p x q stays zero, as BRAM starts.
// One loop drives any backend from inside sched::host_replay, the one
// oracle: op k is bounds-checked against the trace space and applied to
// the host image, then served by the backend. Every read is compared
// word for word with the host's words, every op's FNV-1a checksum with
// the recorded one, and the backend's final image with the host image.
// Any divergence is a counted failure — ReplayReport::verified() is the
// differential oracle the CLI and CI gate on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "cache/cached_matrix.hpp"
#include "maf/scheme.hpp"
#include "sched/trace_io.hpp"
#include "verify/plan_lint.hpp"

namespace polymem::replay {

struct ReplayOptions {
  maf::Scheme scheme = maf::Scheme::kReRo;
  unsigned read_ports = 1;
  /// Route through CachedMatrix over LMem instead of a resident PolyMem.
  bool through_cache = false;
  cache::WritePolicy write_policy = cache::WritePolicy::kWriteBack;
  /// Compare computed checksums against the ones recorded in the trace
  /// (off replays traces without `sum` fields silently).
  bool verify_checksums = true;
  /// Route through the adaptive layout engine (src/adapt): `scheme` is
  /// only the *initial* scheme; the profiler/policy migrate the matrix
  /// as the trace's pattern mix shifts. Each migration runs inside the op
  /// that triggered it, so the replay — including every migration
  /// decision — is deterministic, and each one is verified bit-identical
  /// before its epoch flip. Mutually exclusive with through_cache.
  bool adaptive = false;
  /// Profiler window for adaptive mode; 0 derives one from the trace
  /// length (accesses / 6, clamped to [64, 4096]) so short traces can
  /// still migrate.
  std::int64_t adaptive_window = 0;
};

struct ReplayReport {
  maf::Scheme scheme = maf::Scheme::kReRo;  ///< initial scheme
  bool through_cache = false;
  bool adaptive = false;

  std::int64_t ops = 0;
  std::int64_t reads = 0, writes = 0;       ///< parallel accesses by dir
  std::int64_t batched_accesses = 0;        ///< served by the batched engine
  std::int64_t fallback_accesses = 0;       ///< served element-by-element

  std::int64_t checksums_checked = 0;
  std::int64_t checksum_mismatches = 0;
  std::int64_t data_mismatches = 0;         ///< read words != host image
  bool final_image_ok = false;              ///< end-state memory == host

  /// Populated in adaptive mode.
  maf::Scheme final_scheme = maf::Scheme::kReRo;
  std::int64_t migrations = 0;              ///< completed epoch flips
  std::int64_t migrations_aborted = 0;
  std::int64_t migration_mismatches = 0;    ///< migration-oracle word diffs

  /// Populated in through_cache mode.
  cache::CacheStats cache_stats;

  bool verified() const {
    return checksum_mismatches == 0 && data_mismatches == 0 &&
           migration_mismatches == 0 && final_image_ok;
  }
  std::string summary() const;
};

/// One engine under replay. The loop hands it each op after the oracle's
/// bounds check; its words are count * p * q in canonical lane order.
class Backend {
 public:
  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  virtual ~Backend() = default;
  /// Serves read op number `k` into `out`.
  virtual void read(const sched::TraceOp& op, std::size_t k,
                    std::span<std::uint64_t> out) = 0;
  virtual void write(const sched::TraceOp& op,
                     std::span<const std::uint64_t> data) = 0;
  /// Dumps the trace-space image row-major (height x width words) and
  /// adds the engine's own counts to `report`.
  virtual void finish(std::span<std::uint64_t> image,
                      ReplayReport& report) = 0;
};

/// Replays the trace on the backend `options` selects; throws
/// polymem::Error on structurally impossible input (out-of-bounds ops,
/// empty space). Divergence does not throw — it is counted in the report.
ReplayReport replay(const sched::RecordedTrace& trace,
                    const ReplayOptions& options = {});

/// The replay loop: serves every op on `backend` from inside
/// sched::host_replay's per-op hook and diffs it against the host. Of
/// `options` it reads only `scheme` (for the report) and
/// `verify_checksums`.
ReplayReport replay(const sched::RecordedTrace& trace, Backend& backend,
                    const ReplayOptions& options = {});

/// Re-lints a replayed trace with no access to the original program:
/// every op as a BatchOp program (support/alignment/bounds/conflict/RAW
/// analysis) plus the flattened element trace (out-of-bounds, bank
/// imbalance) under the chosen scheme.
verify::LintReport relint(const sched::RecordedTrace& trace,
                          maf::Scheme scheme);

}  // namespace polymem::replay
