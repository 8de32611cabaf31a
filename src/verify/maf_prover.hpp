// Static MAF conflict-freedom prover (verify/, the "prove before you run"
// layer).
//
// The paper's central claim — each PRF scheme's MAF keeps its pattern
// family conflict-free — and the invariants the plan-template cache
// (core/plan_cache.hpp) is built on are *static* properties of the
// (scheme, p, q) configuration. This module proves them once, offline,
// instead of sampling them at runtime:
//
//   1. bank range        — bank(i, j) lands in [0, p*q) everywhere;
//   2. periodicity       — Maf::period_i()/period_j() really are axis
//                          periods of the bank function;
//   3. conflict freedom  — every pattern the capability oracle claims is
//                          served maps its p*q lanes to distinct banks at
//                          *every* anchor of one period_i x period_j
//                          lattice (exhaustive by periodicity: any anchor
//                          in the unbounded space is congruent to a lattice
//                          anchor, so the sweep is a proof, not a sample);
//   4. address injectivity — (bank, A) is a bijection from the H x W space
//                          onto p*q banks of (H/p)*(W/q) words;
//   5. template agreement — every plan-cache template agrees bitwise with
//                          the naive MAF/AGU math for its whole
//                          (pattern, anchor-residue) class.
//
// On top of the lattice sweeps sits the *symbolic* layer
// (verify/affine_prover.hpp): arbitrary affine patterns are proven
// conflict-free algebraically, and every symbolic ingredient is itself
// checked here — the extracted SymbolicMaf normal form against the
// concrete bank function (PMV008), and every symbolic verdict against the
// brute-force period-lattice sweep (PMV009). prove_affine_pattern() is
// the one-stop entry the lint CLI uses for user-supplied specs.
//
// Checks operate on a black-box MafModel (a bank function plus claimed
// periods), so tests can inject deliberately-corrupted mutants the prover
// must reject; model_of() adapts the production Maf.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "access/pattern.hpp"
#include "core/config.hpp"
#include "maf/conflict.hpp"
#include "maf/maf.hpp"
#include "maf/scheme.hpp"
#include "verify/affine.hpp"
#include "verify/affine_prover.hpp"

namespace polymem::verify {

/// A module assignment function under verification: the bank mapping, its
/// claimed axis periods and the bank geometry. Checks treat it as a black
/// box, so corrupted mutants are first-class inputs for negative tests.
struct MafModel {
  unsigned p = 0;
  unsigned q = 0;
  std::int64_t period_i = 1;
  std::int64_t period_j = 1;
  std::function<unsigned(std::int64_t, std::int64_t)> bank;

  unsigned banks() const { return p * q; }
};

/// Adapts a production Maf (maf/maf.hpp) into a verifiable model.
MafModel model_of(const maf::Maf& maf);

/// The prover's check kinds. Every violation message carries the check's
/// stable diagnostic code (check_code) for tooling and tests.
enum class CheckKind : std::uint8_t {
  kConstruction,        ///< PMV001: the MAF cannot be built at all
  kBankRange,           ///< PMV002: bank() escapes [0, p*q)
  kPeriodicity,         ///< PMV003: claimed period is not a period
  kConflictFreedom,     ///< PMV004: two lanes of a pattern share a bank
  kAddressInjectivity,  ///< PMV005: (bank, addr) is not a bijection
  kTemplateAgreement,   ///< PMV006: plan-cache template != naive AGU math
  kAffineConflict,      ///< PMV007: an affine pattern provably collides
  kAffineForm,          ///< PMV008: symbolic MAF form != concrete banks
  kAffineDifferential,  ///< PMV009: symbolic verdict != brute-force sweep
  kAffineDegenerate,    ///< PMV010: affine pattern is ill-formed/aliasing
};

/// Stable diagnostic code ("PMV004") / short name ("conflict-freedom").
const char* check_code(CheckKind kind);
const char* check_name(CheckKind kind);

/// One disproved invariant: the failing check plus a message holding the
/// diagnostic code and a concrete counterexample (anchor, lane pair, ...).
struct Violation {
  CheckKind check = CheckKind::kConstruction;
  std::string message;
};

/// Checks bank(i, j) < p*q over one period window around the origin
/// (negative coordinates included).
std::optional<Violation> check_bank_range(const MafModel& model);

/// Checks bank(i + Pi, j) == bank(i, j) and bank(i, j + Pj) == bank(i, j)
/// over a window spanning negative and positive coordinates, plus the
/// plan-cache requirements Pi % p == 0 and Pj % q == 0.
std::optional<Violation> check_periodicity(const MafModel& model);

/// Exhaustive conflict-freedom proof of `pattern` under `model` for every
/// (optionally p/q-aligned) anchor of the period lattice. On failure the
/// violation names the pattern, the anchor and the offending lane pair.
std::optional<Violation> check_conflict_freedom(const MafModel& model,
                                                access::PatternKind pattern,
                                                bool aligned_only);

/// Checks that (bank, address) is a bijection from the height x width
/// space onto p*q banks of `words_per_bank` words each: every address in
/// range, no two elements sharing a (bank, address) slot, every slot hit.
std::optional<Violation> check_address_injectivity(
    const MafModel& model,
    const std::function<std::int64_t(std::int64_t, std::int64_t)>& address,
    std::int64_t height, std::int64_t width, std::int64_t words_per_bank);

/// Replays every (pattern, anchor-residue) plan-cache template of the
/// configuration against the naive AGU expansion: the per-lane banks and
/// addresses must agree.
std::optional<Violation> check_template_agreement(
    const core::PolyMemConfig& config);

/// The support level the lattice sweep actually proves (kAny > kAligned >
/// kNone). When `counterexample` is given, the first disproving violation
/// message of the stronger levels is stored there.
maf::SupportLevel prove_support(const MafModel& model,
                                access::PatternKind pattern,
                                std::string* counterexample = nullptr);

/// Checks the extracted symbolic normal form (SymbolicMaf) against the
/// concrete bank function over the full period window — the soundness
/// foundation of every symbolic verdict. PMV008 on disagreement.
std::optional<Violation> check_affine_form(const SymbolicMaf& sym,
                                           const maf::Maf& maf);

/// Differentially validates one symbolic verdict against the brute-force
/// period-lattice sweep: both must agree on conflict-freedom, and a
/// symbolic counterexample must replay to a real bank collision. PMV009
/// on any disagreement. `sym` is a parameter (not derived from `maf`) so
/// tests can inject corrupted forms the check must flag.
std::optional<Violation> check_affine_differential(const maf::Maf& maf,
                                                   const SymbolicMaf& sym,
                                                   const AffinePattern& pattern,
                                                   AnchorClass anchors);

/// One symbolically-proven affine pattern inside a ProverReport: the
/// symbolic support level, the brute-force reference level, and whether
/// they agree (`ok`). A pattern the scheme legitimately cannot serve has
/// proven == swept == kNone and ok == true — only *disagreement* is a
/// violation.
struct AffineProof {
  AffinePattern pattern;
  maf::SupportLevel proven = maf::SupportLevel::kNone;  ///< symbolic
  maf::SupportLevel swept = maf::SupportLevel::kNone;   ///< brute force
  std::optional<AffineCounterexample> counterexample;
  bool ok = false;
};

/// Self-contained verdict for one user-supplied affine pattern under one
/// configuration — the engine behind `polymem_lint --prove-affine`.
/// Violations use PMV007 (proven conflict, with a replayable
/// counterexample), PMV008/PMV009 (symbolic machinery unsound — never
/// expected for shipped schemes) and PMV010 (degenerate pattern).
/// ok == true means the pattern is admissible (kAny or kAligned).
struct AffineReport {
  maf::Scheme scheme = maf::Scheme::kReO;
  unsigned p = 0;
  unsigned q = 0;
  AffinePattern pattern;
  maf::SupportLevel proven = maf::SupportLevel::kNone;
  std::optional<AffineCounterexample> counterexample;
  std::vector<Violation> violations;
  bool ok = false;

  /// Multi-line human-readable report.
  std::string summary() const;
};

/// Proves one affine pattern under (scheme, p, q): symbolic support level,
/// PMV008 form validation, PMV009 differential validation of the verdict,
/// PMV007/PMV010 admission violations.
AffineReport prove_affine_pattern(maf::Scheme scheme, unsigned p, unsigned q,
                                  const AffinePattern& pattern);

/// Mutant-injectable overload: `sym` need not be the form extracted from
/// `maf`, so tests can feed corrupted normal forms and assert that
/// PMV008/PMV009 fire.
AffineReport prove_affine_pattern(const maf::Maf& maf, const SymbolicMaf& sym,
                                  const AffinePattern& pattern);

/// Per-pattern proof outcome: the proven level, the capability oracle's
/// claim (they must match) and whether the scheme's advertised family
/// (paper Table I) includes the pattern (advertised patterns must prove at
/// least kAligned).
struct PatternProof {
  access::PatternKind pattern = access::PatternKind::kRect;
  maf::SupportLevel proven = maf::SupportLevel::kNone;
  maf::SupportLevel claimed = maf::SupportLevel::kNone;
  bool advertised = false;
  bool ok = false;
  std::string detail;
};

struct ProverReport {
  maf::Scheme scheme = maf::Scheme::kReO;
  unsigned p = 0;
  unsigned q = 0;
  std::int64_t period_i = 0;
  std::int64_t period_j = 0;
  bool ok = false;
  std::vector<Violation> violations;
  std::vector<PatternProof> patterns;
  /// Symbolic-vs-sweep differential over the canonical affine suite
  /// (affine_prover.hpp); any disagreement is also a PMV009 violation.
  std::vector<AffineProof> affine;

  /// Multi-line human-readable report (one PASS/FAIL line per check).
  std::string summary() const;
};

/// Full static proof of one configuration: all checks above, all six
/// patterns. The report is self-contained; ok == true means every
/// invariant the runtime relies on is proven for the unbounded space.
ProverReport prove(const core::PolyMemConfig& config);

/// Convenience: proves (scheme, p, q) on a small synthetic address space
/// that covers every residue class of every pattern.
ProverReport prove(maf::Scheme scheme, unsigned p, unsigned q);

}  // namespace polymem::verify
