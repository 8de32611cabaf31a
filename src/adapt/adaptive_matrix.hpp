// AdaptiveMatrix — an epoch-aware PolyMem handle with scheme migration
// (docs/ARCHITECTURE.md, "Adaptive layout engine").
//
// A PolyMem is born on one scheme and dies on it. AdaptiveMatrix wraps one
// and turns the paper's polymorphism into a runtime knob: an online
// profiler (adapt/profiler.hpp) watches the access stream, a policy engine
// (adapt/policy.hpp) elects a better scheme when the pattern mix shifts,
// and an *epoch migration* re-maps the data to it.
//
// Serving
// -------
// An op the active scheme serves conflict-free (PolyMem::serves) runs on
// the compiled engine; any other op runs through PolyMem's batch host
// backdoor (load_batch/store_batch), one residue-class table gather per
// access. Both paths check the whole batch's bounds before any word
// moves, so an op that throws changes nothing. The stats count backdoor
// accesses as fallbacks, which the policy's cost model charges p*q
// cycles each, as the hardware would spend.
//
// Epoch migration
// ---------------
// A migration runs inline, on the thread whose read_batch/write_batch
// triggered it or inside migrate_to. Beside the active epoch A it builds
// the target epoch B and copies A into B one band of p rows at a time
// (dump_rect/fill_rect, each row walked over the MAF's column period).
// The differential oracle then reads both epochs back band by band: any
// mismatch, or an injected fault (set_fault_band), discards B and leaves
// A authoritative. Otherwise B becomes the active epoch and the epoch
// counter increments. Either way the migration is over when the call
// returns, so it is invisible until its flip. The stats keep the last
// AdaptiveStats::kMaxHistory migrations.
//
// Threading: one thread at a time calls an AdaptiveMatrix, the same
// single-owner contract as PolyMem, PlanCache and TileCache. An owner
// that serves several threads serializes them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "adapt/policy.hpp"
#include "adapt/profiler.hpp"
#include "core/polymem.hpp"

namespace polymem::runtime {
class ThreadPool;
}

namespace polymem::adapt {

struct AdaptiveOptions {
  ProfilerOptions profiler;
  PolicyOptions policy;
  /// Profile + decide on every batch op. Off: a static matrix that still
  /// supports explicit migrate_to() (the benches time static schemes
  /// through the same serve path this way).
  bool adapt = true;
  /// Run the differential oracle over every band before cutover; a
  /// mismatch aborts the migration instead of flipping.
  bool verify_migrations = true;
  /// Must stay nullptr (the constructor rejects any other value):
  /// migrations run inline on the calling thread. Declared only because
  /// perfbench/src/phase.cpp assigns it.
  runtime::ThreadPool* pool = nullptr;
};

struct MigrationRecord {
  maf::Scheme from = maf::Scheme::kReO;
  maf::Scheme to = maf::Scheme::kReO;
  std::uint64_t epoch = 0;  ///< epoch after the flip (unchanged if aborted)
  bool aborted = false;
};

struct AdaptiveStats {
  std::uint64_t reads = 0;    ///< client parallel read accesses
  std::uint64_t writes = 0;   ///< client parallel write accesses
  std::uint64_t batched_accesses = 0;   ///< served by the compiled engine
  /// Served by the batch host backdoor: accesses the scheme does not
  /// serve, modeled at p*q cycles each.
  std::uint64_t fallback_accesses = 0;
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_aborted = 0;
  std::uint64_t verified_words = 0;
  std::uint64_t mismatched_words = 0;  ///< differential oracle failures
  std::uint64_t windows_profiled = 0;
  std::uint64_t epoch = 0;
  maf::Scheme scheme = maf::Scheme::kReO;
  /// The kMaxHistory most recent migrations, oldest first.
  static constexpr std::size_t kMaxHistory = 64;
  std::vector<MigrationRecord> history;
};

class AdaptiveMatrix {
 public:
  explicit AdaptiveMatrix(core::PolyMemConfig config, AdaptiveOptions opts = {});

  AdaptiveMatrix(const AdaptiveMatrix&) = delete;
  AdaptiveMatrix& operator=(const AdaptiveMatrix&) = delete;

  /// The construction-time configuration (scheme field = initial scheme).
  const core::PolyMemConfig& base_config() const { return base_config_; }
  unsigned lanes() const { return base_config_.lanes(); }
  std::int64_t height() const { return base_config_.height; }
  std::int64_t width() const { return base_config_.width; }

  /// Current scheme / epoch (epoch increments once per completed flip).
  maf::Scheme scheme() const { return active_->config().scheme; }
  std::uint64_t epoch() const { return stats_.epoch; }

  // ---- client operations -----------------------------------------------

  /// Batched read/write through the active epoch: batches the current
  /// scheme serves conflict-free go through the compiled engine, the rest
  /// through PolyMem's batch host backdoor (load_batch/store_batch), which
  /// gathers each access through its residue class's table. Both check
  /// bounds before any word moves. A fallback access is counted, and
  /// modeled at the p*q cycles the hardware would spend on it — what the
  /// policy's cost model charges — though the host serves it nearly as
  /// fast as a compiled one. out/data hold count() * lanes() words in
  /// canonical order. With adapt on, the op is profiled afterwards, and a
  /// migration the policy elects runs before the call returns.
  void read_batch(const core::AccessBatch& batch, std::span<core::Word> out);
  void write_batch(const core::AccessBatch& batch,
                   std::span<const core::Word> data);

  /// Scalar host backdoor on the active epoch.
  core::Word load(access::Coord c) const { return active_->load(c); }
  void store(access::Coord c, core::Word value) { active_->store(c, value); }

  /// Bulk host helpers (row-major rectangle) on the active epoch.
  void fill_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<const core::Word> values) {
    active_->fill_rect(origin, rows, cols, values);
  }
  void dump_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<core::Word> values) const {
    active_->dump_rect(origin, rows, cols, values);
  }

  /// True when the active scheme serves this run conflict-free (the
  /// batched path will be taken): PolyMem::serves on the active epoch.
  bool run_supported(const core::AccessBatch& batch) const;

  // ---- migration control -----------------------------------------------

  /// Migrates to `target` and returns after the flip (or rollback).
  /// Returns false, starting nothing, when target is the active scheme or
  /// no MAF exists for the geometry.
  bool migrate_to(maf::Scheme target);

  /// Test hook: the copy aborts (as if crashed) when it reaches this
  /// p-row band index. Cleared when the migration ends.
  void set_fault_band(std::int64_t band) { fault_band_ = band; }

  AdaptiveStats stats() const;

 private:
  /// Profiles the run and runs the migration the policy elects, if any.
  void observe(bool is_write, const core::AccessBatch& batch);

  /// Copies the active epoch into `next` band by band, then (with
  /// verify_migrations) diffs the two; false when the copy faulted or
  /// the oracle found a mismatch.
  bool copy_and_verify(core::PolyMem& next);

  core::PolyMemConfig base_config_;
  AdaptiveOptions opts_;
  std::unique_ptr<core::PolyMem> active_;
  std::int64_t fault_band_ = -1;
  AccessProfiler profiler_;
  MigrationPolicy policy_;
  AdaptiveStats stats_;  // scheme is filled in by stats()
};

}  // namespace polymem::adapt
