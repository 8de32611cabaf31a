// Online access-stream profiler (docs/ARCHITECTURE.md, "Adaptive layout
// engine"; ROADMAP item 3, after DReAM's dynamic re-arrangement).
//
// The adaptive engine needs to know, cheaply and continuously, what the
// workload is *doing*: which Table-I patterns dominate, how many of them
// land on p/q-aligned anchors, and how the mix shifts over time. This is
// exactly the provenance the AccessTrace already carries per access
// (pattern kind + anchor), so the profiler consumes the same stream,
// directly from AdaptiveMatrix's serve path.
//
// Accesses accumulate into fixed-size *windows* (ProfilerOptions::window
// parallel accesses each). When a window fills it is sealed into a
// WindowProfile histogram and the accumulator restarts; the policy engine
// (adapt/policy.hpp) consumes sealed windows one at a time.
//
// Alignment is classified with the same rule the batched execution engine
// uses for kAligned schemes: a run is aligned when its first anchor *and*
// its stride are p/q-aligned — then every access of the run is. This keeps
// the profiler's "aligned" column in one-to-one correspondence with what
// read_batch/write_batch could actually serve conflict-free.
#pragma once

#include <array>
#include <cstdint>

#include "access/pattern.hpp"

namespace polymem::adapt {

struct ProfilerOptions {
  /// Parallel accesses per sealed window.
  std::int64_t window = 4096;
};

/// True when a constant-stride run starting at `anchor` keeps every access
/// p/q-aligned — the eligibility rule of the batched engines for kAligned
/// schemes.
bool run_aligned(unsigned p, unsigned q, access::Coord anchor,
                 access::Coord stride);

/// Per-pattern-kind counters of one window.
struct KindCounts {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t aligned = 0;  ///< of total(), how many in aligned runs

  std::int64_t total() const { return reads + writes; }
};

/// One sealed histogram window.
struct WindowProfile {
  std::array<KindCounts, std::size(access::kAllPatterns)> kinds{};
  std::int64_t accesses = 0;  ///< observed accesses
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t sequence = 0;  ///< 0-based seal index

  const KindCounts& of(access::PatternKind kind) const {
    return kinds[static_cast<std::size_t>(kind)];
  }
  /// The kind with the most accesses in this window (ties: first in
  /// kAllPatterns order). Meaningless when accesses == 0.
  access::PatternKind dominant() const;
};

/// Windowed histogram accumulator. Not thread-safe: its owner calls it
/// from one thread at a time (AdaptiveMatrix is single-threaded by
/// contract).
class AccessProfiler {
 public:
  AccessProfiler(unsigned p, unsigned q, ProfilerOptions opts = {});

  const ProfilerOptions& options() const { return opts_; }

  /// Observes one constant-stride run of `count` accesses.
  void observe_run(bool is_write, access::PatternKind kind,
                   access::Coord anchor, access::Coord stride,
                   std::int64_t count);

  /// Observes one access (a run of length 1).
  void observe(bool is_write, const access::ParallelAccess& access) {
    observe_run(is_write, access.kind, access.anchor, {0, 0}, 1);
  }

  /// True when a sealed window is waiting to be taken. If several windows
  /// seal before take_window(), the latest wins — the adaptive loop wants
  /// the freshest view, not a backlog.
  bool window_ready() const { return ready_; }
  WindowProfile take_window();

  std::int64_t windows_sealed() const { return sealed_count_; }
  std::int64_t accesses_observed() const { return observed_total_; }

  /// Drops the partial window and the pending sealed one.
  void reset();

 private:
  void seal();

  unsigned p_, q_;
  ProfilerOptions opts_;
  WindowProfile cur_;
  WindowProfile sealed_;
  bool ready_ = false;
  std::int64_t sealed_count_ = 0;
  std::int64_t observed_total_ = 0;
};

}  // namespace polymem::adapt
