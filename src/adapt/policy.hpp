// Migration policy engine (docs/ARCHITECTURE.md, "Adaptive layout
// engine"): when is another scheme worth the move?
//
// Cost model. Every scheme serves a pattern kind at one of three levels
// (maf/conflict.hpp's machine-checked oracle): kAny costs 1 parallel-access
// slot, kAligned costs 1 for aligned runs and lanes() for unaligned ones,
// kNone costs lanes() — the p*q scalar bank accesses an unservable access
// takes on the hardware, and the modeled cost the replay harness and
// AdaptiveMatrix count for their fallbacks (the host itself serves one
// through PolyMem's batch backdoor at about a compiled access's cost).
// Summing that over a WindowProfile gives each scheme's projected cost
// for the observed mix, in units where 1.0 == one conflict-free parallel
// access.
//
// Tiebreak. Equal-cost schemes are ranked by symbolic polymorphism
// (DseExplorer::affine_coverage over the canonical affine suite), scaled
// small enough to never override a real cost difference: when the observed
// window doesn't separate two schemes, prefer the one that provably serves
// more of the affine pattern space.
//
// Decision. A migration is proposed only when (a) the best scheme beats
// the current one by at least min_improvement (hysteresis against noise),
// (b) the same winner persists for `persistence` consecutive windows
// (phase-change debounce, DReAM-style), and (c) the projected win over
// payback_windows windows clears the migration cost — one full copy of the
// matrix, i.e. 2 * cells / lanes parallel-access slots (a dump and a fill
// of every element).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "adapt/profiler.hpp"
#include "maf/conflict.hpp"
#include "maf/scheme.hpp"

namespace polymem::adapt {

struct PolicyOptions {
  /// Required fractional cost win: migrate only when
  /// best_cost <= (1 - min_improvement) * current_cost.
  double min_improvement = 0.15;
  /// Consecutive windows that must elect the same winner.
  int persistence = 2;
  /// Horizon (in windows) over which the win must amortize the copy.
  double payback_windows = 8.0;
  /// Weight of the affine-coverage tiebreak (kept far below 1 access).
  double affine_weight = 1e-3;
};

/// One scheme's rating against a window.
struct SchemeScore {
  maf::Scheme scheme = maf::Scheme::kReO;
  bool available = false;  ///< a MAF exists for this (scheme, p, q)
  double cost = 0;         ///< projected window cost in access slots
  unsigned affine_served = 0;
  unsigned affine_any = 0;
  double score = 0;  ///< cost minus the affine tiebreak; lower is better
};

class MigrationPolicy {
 public:
  /// `cells` is the matrix size (height * width), the migration-cost side
  /// of the payback test.
  MigrationPolicy(unsigned p, unsigned q, std::int64_t cells,
                  PolicyOptions opts = {});

  const PolicyOptions& options() const { return opts_; }
  unsigned lanes() const { return p_ * q_; }

  /// The support level of `kind` under `scheme` at this geometry (kNone
  /// for schemes with no MAF at this geometry).
  maf::SupportLevel support(maf::Scheme scheme,
                            access::PatternKind kind) const;

  /// Projected cost of serving `window` under `scheme`, in access slots.
  double window_cost(maf::Scheme scheme, const WindowProfile& window) const;

  /// All five schemes rated against `window`, in kAllSchemes order.
  std::vector<SchemeScore> score(const WindowProfile& window) const;

  /// One full-matrix copy, in access slots: 2 * cells / lanes.
  double migration_cost_accesses() const;

  /// Feeds one sealed window; returns the scheme to migrate to when the
  /// improvement, persistence and payback tests all pass, nullopt
  /// otherwise. Stateful (persistence streak); call from one thread.
  std::optional<maf::Scheme> decide(maf::Scheme current,
                                    const WindowProfile& window);

  /// Clears the persistence streak (e.g. after a migration or an abort).
  void reset();

 private:
  struct SchemeInfo {
    bool available = false;
    std::array<maf::SupportLevel, std::size(access::kAllPatterns)> support{};
    unsigned affine_served = 0;
    unsigned affine_any = 0;
  };

  unsigned p_, q_;
  std::int64_t cells_;
  PolicyOptions opts_;
  std::array<SchemeInfo, std::size(maf::kAllSchemes)> schemes_{};
  std::optional<maf::Scheme> candidate_;
  int streak_ = 0;
};

}  // namespace polymem::adapt
