#include "verify/maf_prover.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "core/agu.hpp"
#include "core/banks.hpp"
#include "core/plan_cache.hpp"

namespace polymem::verify {

using access::Coord;
using access::PatternKind;

const char* check_code(CheckKind kind) {
  switch (kind) {
    case CheckKind::kConstruction: return "PMV001";
    case CheckKind::kBankRange: return "PMV002";
    case CheckKind::kPeriodicity: return "PMV003";
    case CheckKind::kConflictFreedom: return "PMV004";
    case CheckKind::kAddressInjectivity: return "PMV005";
    case CheckKind::kTemplateAgreement: return "PMV006";
    case CheckKind::kAffineConflict: return "PMV007";
    case CheckKind::kAffineForm: return "PMV008";
    case CheckKind::kAffineDifferential: return "PMV009";
    case CheckKind::kAffineDegenerate: return "PMV010";
  }
  throw InvalidArgument("unknown check kind");
}

const char* check_name(CheckKind kind) {
  switch (kind) {
    case CheckKind::kConstruction: return "construction";
    case CheckKind::kBankRange: return "bank-range";
    case CheckKind::kPeriodicity: return "periodicity";
    case CheckKind::kConflictFreedom: return "conflict-freedom";
    case CheckKind::kAddressInjectivity: return "address-injectivity";
    case CheckKind::kTemplateAgreement: return "template-agreement";
    case CheckKind::kAffineConflict: return "affine-conflict";
    case CheckKind::kAffineForm: return "affine-form";
    case CheckKind::kAffineDifferential: return "affine-differential";
    case CheckKind::kAffineDegenerate: return "affine-degenerate";
  }
  throw InvalidArgument("unknown check kind");
}

MafModel model_of(const maf::Maf& maf) {
  MafModel model;
  model.p = maf.p();
  model.q = maf.q();
  model.period_i = maf.period_i();
  model.period_j = maf.period_j();
  model.bank = [&maf](std::int64_t i, std::int64_t j) {
    return maf.bank(i, j);
  };
  return model;
}

namespace {

Violation violation(CheckKind check, const std::string& detail) {
  return {check, std::string("[") + check_code(check) + "] " + detail};
}

std::string coord_str(std::int64_t i, std::int64_t j) {
  std::ostringstream os;
  os << '(' << i << ',' << j << ')';
  return os.str();
}

void require_model(const MafModel& model) {
  POLYMEM_REQUIRE(model.p >= 1 && model.q >= 1,
                  "prover model needs a non-empty bank geometry");
  POLYMEM_REQUIRE(model.period_i >= 1 && model.period_j >= 1,
                  "prover model needs positive periods");
  POLYMEM_REQUIRE(static_cast<bool>(model.bank),
                  "prover model needs a bank function");
}

}  // namespace

std::optional<Violation> check_bank_range(const MafModel& model) {
  require_model(model);
  const unsigned n = model.banks();
  for (std::int64_t i = -model.period_i; i < 2 * model.period_i; ++i) {
    for (std::int64_t j = -model.period_j; j < 2 * model.period_j; ++j) {
      const unsigned b = model.bank(i, j);
      if (b >= n) {
        std::ostringstream os;
        os << "bank" << coord_str(i, j) << " = " << b
           << " escapes [0, " << n << ")";
        return violation(CheckKind::kBankRange, os.str());
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_periodicity(const MafModel& model) {
  require_model(model);
  if (model.period_i % model.p != 0 || model.period_j % model.q != 0) {
    std::ostringstream os;
    os << "periods (" << model.period_i << ", " << model.period_j
       << ") must be multiples of the bank geometry (" << model.p << ", "
       << model.q << ")";
    return violation(CheckKind::kPeriodicity, os.str());
  }
  for (std::int64_t i = -model.period_i; i < 2 * model.period_i; ++i) {
    for (std::int64_t j = -model.period_j; j < 2 * model.period_j; ++j) {
      const unsigned b = model.bank(i, j);
      if (model.bank(i + model.period_i, j) != b) {
        std::ostringstream os;
        os << "bank" << coord_str(i + model.period_i, j) << " = "
           << model.bank(i + model.period_i, j) << " != bank"
           << coord_str(i, j) << " = " << b << "; claimed period_i = "
           << model.period_i << " is not a period";
        return violation(CheckKind::kPeriodicity, os.str());
      }
      if (model.bank(i, j + model.period_j) != b) {
        std::ostringstream os;
        os << "bank" << coord_str(i, j + model.period_j) << " = "
           << model.bank(i, j + model.period_j) << " != bank"
           << coord_str(i, j) << " = " << b << "; claimed period_j = "
           << model.period_j << " is not a period";
        return violation(CheckKind::kPeriodicity, os.str());
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_conflict_freedom(const MafModel& model,
                                                PatternKind pattern,
                                                bool aligned_only) {
  require_model(model);
  const unsigned n = model.banks();
  std::vector<Coord> el;
  // lane_of[b]: the first lane observed on bank b at the current anchor
  // (n when unseen) — yields the offending lane *pair* on a collision.
  std::vector<unsigned> lane_of(n, n);
  const std::int64_t step_i = aligned_only ? model.p : 1;
  const std::int64_t step_j = aligned_only ? model.q : 1;
  for (std::int64_t a = 0; a < model.period_i; a += step_i) {
    for (std::int64_t b = 0; b < model.period_j; b += step_j) {
      access::expand_into({pattern, {a, b}}, model.p, model.q, el);
      std::fill(lane_of.begin(), lane_of.end(), n);
      for (unsigned k = 0; k < el.size(); ++k) {
        const unsigned bank = model.bank(el[k].i, el[k].j);
        if (bank >= n) {
          std::ostringstream os;
          os << "pattern " << access::pattern_name(pattern) << " at "
             << coord_str(a, b) << ": lane " << k << " element "
             << coord_str(el[k].i, el[k].j) << " maps to bank " << bank
             << " outside [0, " << n << ")";
          return violation(CheckKind::kConflictFreedom, os.str());
        }
        if (lane_of[bank] != n) {
          std::ostringstream os;
          os << "pattern " << access::pattern_name(pattern) << " at "
             << (aligned_only ? "aligned " : "") << "anchor "
             << coord_str(a, b) << ": lanes " << lane_of[bank] << " and "
             << k << " (elements " << coord_str(el[lane_of[bank]].i,
                                                el[lane_of[bank]].j)
             << " and " << coord_str(el[k].i, el[k].j)
             << ") both map to bank " << bank;
          return violation(CheckKind::kConflictFreedom, os.str());
        }
        lane_of[bank] = k;
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_address_injectivity(
    const MafModel& model,
    const std::function<std::int64_t(std::int64_t, std::int64_t)>& address,
    std::int64_t height, std::int64_t width, std::int64_t words_per_bank) {
  require_model(model);
  POLYMEM_REQUIRE(static_cast<bool>(address),
                  "prover needs an address function");
  POLYMEM_REQUIRE(height >= 1 && width >= 1 && words_per_bank >= 1,
                  "prover needs a non-empty address space");
  const unsigned n = model.banks();
  if (height * width != static_cast<std::int64_t>(n) * words_per_bank) {
    std::ostringstream os;
    os << height << 'x' << width << " elements cannot fill " << n
       << " banks of " << words_per_bank << " words bijectively";
    return violation(CheckKind::kAddressInjectivity, os.str());
  }
  // first_at[bank * wpb + addr]: first element claiming the slot (-1 free).
  std::vector<std::int64_t> first_at(
      static_cast<std::size_t>(n) * words_per_bank, -1);
  for (std::int64_t i = 0; i < height; ++i) {
    for (std::int64_t j = 0; j < width; ++j) {
      const unsigned bank = model.bank(i, j);
      if (bank >= n) {
        std::ostringstream os;
        os << "bank" << coord_str(i, j) << " = " << bank << " escapes [0, "
           << n << ")";
        return violation(CheckKind::kAddressInjectivity, os.str());
      }
      const std::int64_t addr = address(i, j);
      if (addr < 0 || addr >= words_per_bank) {
        std::ostringstream os;
        os << "address" << coord_str(i, j) << " = " << addr
           << " escapes [0, " << words_per_bank << ")";
        return violation(CheckKind::kAddressInjectivity, os.str());
      }
      std::int64_t& slot = first_at[bank * words_per_bank + addr];
      if (slot >= 0) {
        std::ostringstream os;
        os << "elements " << coord_str(slot / width, slot % width) << " and "
           << coord_str(i, j) << " both occupy bank " << bank << " word "
           << addr;
        return violation(CheckKind::kAddressInjectivity, os.str());
      }
      slot = i * width + j;
    }
  }
  // Slot counting: H*W injective placements into exactly H*W slots is a
  // bijection, so no separate surjectivity pass is needed.
  return std::nullopt;
}

std::optional<Violation> check_template_agreement(
    const core::PolyMemConfig& config) {
  config.validate();
  const maf::Maf maf(config.scheme, config.p, config.q);
  const maf::AddressingFunction addressing(config.p, config.q, config.height,
                                           config.width);
  // The check reads templates, never data: one storage replica is enough
  // to build their tables, and keeps this check's footprint at the
  // injectivity check's.
  core::BankArray banks(config.lanes(), 1, config.words_per_bank());
  core::PlanCache cache(config, maf, banks);
  if (!cache.enabled()) return std::nullopt;  // nothing cached to verify
  const core::Agu agu(config, maf, addressing);
  const std::int64_t pi = cache.period_i();
  const std::int64_t pj = cache.period_j();
  core::AccessPlan naive;
  for (PatternKind pattern : access::kAllPatterns) {
    const maf::SupportLevel level = maf::probe_support(maf, pattern);
    if (level == maf::SupportLevel::kNone) continue;
    const bool aligned = level == maf::SupportLevel::kAligned;
    const std::int64_t step_i = aligned ? config.p : 1;
    const std::int64_t step_j = aligned ? config.q : 1;
    const auto ext = access::pattern_extent(pattern, config.p, config.q);
    const std::int64_t min_j = -ext.col_offset;
    const std::int64_t max_i = config.height - ext.rows;
    const std::int64_t max_j = config.width - ext.cols - ext.col_offset;
    for (std::int64_t ri = 0; ri < pi; ri += step_i) {
      for (std::int64_t rj = 0; rj < pj; rj += step_j) {
        // The smallest in-bounds anchor of the residue class; classes with
        // no valid anchor have no template to verify.
        std::int64_t ai = ri;
        std::int64_t aj = rj;
        while (aj < min_j) aj += pj;
        if (ai > max_i || aj > max_j) continue;
        const access::ParallelAccess acc{pattern, {ai, aj}};
        std::int64_t delta = 0;
        const core::PlanTemplate* tmpl = cache.lookup(acc, delta);
        if (tmpl == nullptr) {
          std::ostringstream os;
          os << "plan cache refused supported access "
             << access::pattern_name(pattern) << " at " << coord_str(ai, aj);
          return violation(CheckKind::kTemplateAgreement, os.str());
        }
        agu.expand_into(acc, naive);
        for (unsigned k = 0; k < naive.lanes(); ++k) {
          if (tmpl->bank[k] != naive.bank[k]) {
            std::ostringstream os;
            os << access::pattern_name(pattern) << " at " << coord_str(ai, aj)
               << " lane " << k << ": template bank " << tmpl->bank[k]
               << " != naive bank " << naive.bank[k];
            return violation(CheckKind::kTemplateAgreement, os.str());
          }
          if (tmpl->addr0[k] + delta != naive.addr[k]) {
            std::ostringstream os;
            os << access::pattern_name(pattern) << " at " << coord_str(ai, aj)
               << " lane " << k << ": template address "
               << tmpl->addr0[k] + delta << " != naive address "
               << naive.addr[k];
            return violation(CheckKind::kTemplateAgreement, os.str());
          }
        }
      }
    }
  }
  return std::nullopt;
}

maf::SupportLevel prove_support(const MafModel& model, PatternKind pattern,
                                std::string* counterexample) {
  const auto any = check_conflict_freedom(model, pattern, false);
  if (!any.has_value()) return maf::SupportLevel::kAny;
  if (counterexample != nullptr) *counterexample = any->message;
  const auto aligned = check_conflict_freedom(model, pattern, true);
  if (!aligned.has_value()) return maf::SupportLevel::kAligned;
  return maf::SupportLevel::kNone;
}

std::optional<Violation> check_affine_form(const SymbolicMaf& sym,
                                           const maf::Maf& maf) {
  const std::string mismatch = validate_symbolic_maf(sym, maf);
  if (mismatch.empty()) return std::nullopt;
  return violation(CheckKind::kAffineForm,
                   "symbolic normal form disagrees with the concrete MAF at " +
                       mismatch);
}

std::optional<Violation> check_affine_differential(const maf::Maf& maf,
                                                   const SymbolicMaf& sym,
                                                   const AffinePattern& pattern,
                                                   AnchorClass anchors) {
  const AffineVerdict symbolic = prove_conflict_free(sym, pattern, anchors);
  const AffineVerdict swept = sweep_conflict_free(maf, pattern, anchors);
  std::ostringstream os;
  os << "pattern '" << pattern.spec() << "' [" << anchor_class_name(anchors)
     << " anchors]: ";
  if (symbolic.degenerate.empty() != swept.degenerate.empty()) {
    os << "symbolic prover "
       << (symbolic.degenerate.empty()
               ? "accepts a pattern the sweep rejects as degenerate ("
                     + swept.degenerate + ")"
               : "rejects as degenerate (" + symbolic.degenerate +
                     ") a pattern the sweep accepts");
    return violation(CheckKind::kAffineDifferential, os.str());
  }
  if (!symbolic.degenerate.empty()) return std::nullopt;  // both degenerate
  if (symbolic.conflict_free != swept.conflict_free) {
    os << "symbolic verdict "
       << (symbolic.conflict_free ? "conflict-free" : "conflict") << " != "
       << "swept verdict "
       << (swept.conflict_free ? "conflict-free" : "conflict");
    if (symbolic.counterexample.has_value())
      os << "; symbolic witness: " << symbolic.counterexample->str();
    if (swept.counterexample.has_value())
      os << "; sweep witness: " << swept.counterexample->str();
    return violation(CheckKind::kAffineDifferential, os.str());
  }
  if (symbolic.counterexample.has_value()) {
    // Replay the symbolic witness against the *concrete* bank function:
    // lane offsets must reproduce the claimed elements, the anchor must
    // respect the class, and both elements must really share a bank.
    const AffineCounterexample& cx = *symbolic.counterexample;
    const auto element = [&pattern](access::Coord anchor, std::int64_t lane) {
      return pattern.element(anchor, lane / pattern.lanes_v,
                             lane % pattern.lanes_v);
    };
    if (element(cx.anchor, cx.lane_a) != cx.elem_a ||
        element(cx.anchor, cx.lane_b) != cx.elem_b) {
      os << "counterexample elements do not match the lane map: "
         << cx.str();
      return violation(CheckKind::kAffineDifferential, os.str());
    }
    if (anchors == AnchorClass::kAligned &&
        (floormod<std::int64_t>(cx.anchor.i, maf.p()) != 0 ||
         floormod<std::int64_t>(cx.anchor.j, maf.q()) != 0)) {
      os << "counterexample anchor is not " << maf.p() << '/' << maf.q()
         << "-aligned: " << cx.str();
      return violation(CheckKind::kAffineDifferential, os.str());
    }
    if (maf.bank(cx.elem_a) != maf.bank(cx.elem_b) ||
        maf.bank(cx.elem_a) != cx.bank) {
      os << "counterexample does not replay: concrete banks are "
         << maf.bank(cx.elem_a) << " and " << maf.bank(cx.elem_b)
         << " for claimed " << cx.str();
      return violation(CheckKind::kAffineDifferential, os.str());
    }
  }
  return std::nullopt;
}

AffineReport prove_affine_pattern(const maf::Maf& maf, const SymbolicMaf& sym,
                                  const AffinePattern& pattern) {
  AffineReport report;
  report.scheme = maf.scheme();
  report.p = maf.p();
  report.q = maf.q();
  report.pattern = pattern;
  if (auto v = check_affine_form(sym, maf)) report.violations.push_back(*v);

  const AffineVerdict any = prove_conflict_free(sym, pattern,
                                                AnchorClass::kAny);
  if (!any.degenerate.empty()) {
    report.violations.push_back(violation(
        CheckKind::kAffineDegenerate,
        "pattern '" + pattern.spec() + "' is degenerate: " + any.degenerate));
    return report;
  }
  AffineCounterexample cx;
  report.proven = prove_affine_support(sym, pattern, &cx);
  if (report.proven != maf::SupportLevel::kAny) report.counterexample = cx;
  if (report.proven == maf::SupportLevel::kNone) {
    report.violations.push_back(violation(
        CheckKind::kAffineConflict,
        "pattern '" + pattern.spec() + "' collides under " +
            maf::scheme_name(maf.scheme()) + ": " + cx.str()));
  }
  // Every symbolic verdict ships differentially validated against the
  // brute-force sweep — the CLI result is never a single algorithm's word.
  for (const AnchorClass anchors :
       {AnchorClass::kAny, AnchorClass::kAligned}) {
    if (auto v = check_affine_differential(maf, sym, pattern, anchors))
      report.violations.push_back(*v);
  }
  report.ok = report.proven != maf::SupportLevel::kNone &&
              report.violations.empty();
  return report;
}

AffineReport prove_affine_pattern(maf::Scheme scheme, unsigned p, unsigned q,
                                  const AffinePattern& pattern) {
  try {
    const maf::Maf maf(scheme, p, q);
    return prove_affine_pattern(maf, SymbolicMaf::of(maf), pattern);
  } catch (const Error& e) {
    AffineReport report;
    report.scheme = scheme;
    report.p = p;
    report.q = q;
    report.pattern = pattern;
    report.violations.push_back(violation(CheckKind::kConstruction, e.what()));
    return report;
  }
}

std::string AffineReport::summary() const {
  std::ostringstream os;
  os << "affine proof: " << maf::scheme_name(scheme) << ' ' << p << 'x' << q
     << ", pattern '" << pattern.spec() << "'\n";
  os << "  proven support: " << maf::support_level_name(proven) << '\n';
  if (counterexample.has_value())
    os << "  counterexample: " << counterexample->str() << '\n';
  for (const Violation& v : violations)
    os << "  violation: " << v.message << '\n';
  os << "result: "
     << (ok ? (proven == maf::SupportLevel::kAligned
                   ? "PROVEN (aligned anchors)"
                   : "PROVEN (any anchor)")
            : "REFUTED");
  return os.str();
}

namespace {

void prove_patterns(const maf::Maf& maf, ProverReport& report) {
  const MafModel model = model_of(maf);
  const auto advertised = maf::advertised_patterns(maf.scheme());
  for (PatternKind pattern : access::kAllPatterns) {
    PatternProof proof;
    proof.pattern = pattern;
    proof.claimed = maf::probe_support(maf, pattern);
    proof.proven = prove_support(model, pattern, &proof.detail);
    proof.advertised =
        std::find(advertised.begin(), advertised.end(), pattern) !=
        advertised.end();
    proof.ok = proof.proven == proof.claimed &&
               (!proof.advertised || proof.proven != maf::SupportLevel::kNone);
    if (!proof.ok) {
      std::ostringstream os;
      os << "pattern " << access::pattern_name(pattern) << ": proven "
         << maf::support_level_name(proof.proven) << ", oracle claims "
         << maf::support_level_name(proof.claimed)
         << (proof.advertised ? " (advertised by the scheme)" : "");
      if (!proof.detail.empty()) os << "; " << proof.detail;
      report.violations.push_back(
          violation(CheckKind::kConflictFreedom, os.str()));
    }
    report.patterns.push_back(std::move(proof));
  }
}

// The brute-force analogue of prove_affine_support: the support level the
// period-lattice sweep establishes for an affine pattern.
maf::SupportLevel sweep_affine_support(const maf::Maf& maf,
                                       const AffinePattern& pattern) {
  const AffineVerdict any = sweep_conflict_free(maf, pattern,
                                                AnchorClass::kAny);
  if (any.ok()) return maf::SupportLevel::kAny;
  if (!any.degenerate.empty()) return maf::SupportLevel::kNone;
  const AffineVerdict aligned = sweep_conflict_free(maf, pattern,
                                                    AnchorClass::kAligned);
  return aligned.ok() ? maf::SupportLevel::kAligned
                      : maf::SupportLevel::kNone;
}

// PMV008 + PMV009 for one configuration: validates the symbolic normal
// form, then differentially checks the symbolic verdict for every pattern
// of the canonical affine suite against the brute-force sweep.
void prove_affine_suite(const maf::Maf& maf, ProverReport& report) {
  const SymbolicMaf sym = SymbolicMaf::of(maf);
  if (auto v = check_affine_form(sym, maf)) report.violations.push_back(*v);
  for (const AffinePattern& pattern :
       canonical_affine_suite(maf.p(), maf.q())) {
    AffineProof proof;
    proof.pattern = pattern;
    AffineCounterexample cx;
    proof.proven = prove_affine_support(sym, pattern, &cx);
    if (proof.proven != maf::SupportLevel::kAny) proof.counterexample = cx;
    proof.swept = sweep_affine_support(maf, pattern);
    proof.ok = proof.proven == proof.swept;
    for (const AnchorClass anchors :
         {AnchorClass::kAny, AnchorClass::kAligned}) {
      if (auto v = check_affine_differential(maf, sym, pattern, anchors)) {
        proof.ok = false;
        report.violations.push_back(*v);
      }
    }
    if (proof.proven != proof.swept) {
      std::ostringstream os;
      os << "pattern '" << pattern.spec() << "': symbolic support "
         << maf::support_level_name(proof.proven) << " != swept support "
         << maf::support_level_name(proof.swept);
      report.violations.push_back(
          violation(CheckKind::kAffineDifferential, os.str()));
    }
    report.affine.push_back(std::move(proof));
  }
}

}  // namespace

ProverReport prove(const core::PolyMemConfig& config) {
  ProverReport report;
  report.scheme = config.scheme;
  report.p = config.p;
  report.q = config.q;
  try {
    config.validate();
    const maf::Maf maf(config.scheme, config.p, config.q);
    report.period_i = maf.period_i();
    report.period_j = maf.period_j();
    const MafModel model = model_of(maf);
    if (auto v = check_bank_range(model)) report.violations.push_back(*v);
    if (auto v = check_periodicity(model)) report.violations.push_back(*v);
    prove_patterns(maf, report);
    prove_affine_suite(maf, report);
    const maf::AddressingFunction addressing(config.p, config.q,
                                             config.height, config.width);
    auto address = [&addressing](std::int64_t i, std::int64_t j) {
      return addressing.address(i, j);
    };
    if (auto v = check_address_injectivity(model, address, config.height,
                                           config.width,
                                           addressing.words_per_bank()))
      report.violations.push_back(*v);
    if (auto v = check_template_agreement(config))
      report.violations.push_back(*v);
  } catch (const Error& e) {
    report.violations.push_back(
        violation(CheckKind::kConstruction, e.what()));
  }
  report.ok = report.violations.empty();
  return report;
}

ProverReport prove(maf::Scheme scheme, unsigned p, unsigned q) {
  core::PolyMemConfig config;
  config.scheme = scheme;
  config.p = p;
  config.q = q;
  try {
    // A minimal space covering every residue class of every pattern: tall
    // enough for a full column (p*q rows) anchored at the largest i
    // residue, wide enough for a secondary diagonal at the largest j
    // residue. Construction failures fall through to prove(config)'s
    // reporting with the placeholder shape.
    const maf::Maf maf(scheme, p, q);
    const std::int64_t n = static_cast<std::int64_t>(p) * q;
    config.height = round_up<std::int64_t>(maf.period_i() + n, p);
    config.width = round_up<std::int64_t>(maf.period_j() + 2 * n, q);
  } catch (const Error&) {
    config.height = p;
    config.width = q;
  }
  return prove(config);
}

std::string ProverReport::summary() const {
  std::ostringstream os;
  os << "static proof: " << maf::scheme_name(scheme) << ' ' << p << 'x' << q
     << " (periods i=" << period_i << ", j=" << period_j << ")\n";
  for (const PatternProof& proof : patterns) {
    os << "  " << (proof.ok ? "[PASS] " : "[FAIL] ") << "pattern "
       << access::pattern_name(proof.pattern) << ": proven "
       << maf::support_level_name(proof.proven) << " (oracle "
       << maf::support_level_name(proof.claimed) << ')'
       << (proof.advertised ? " [advertised]" : "") << '\n';
  }
  for (const AffineProof& proof : affine) {
    os << "  " << (proof.ok ? "[PASS] " : "[FAIL] ") << "affine "
       << proof.pattern.name << ": symbolic "
       << maf::support_level_name(proof.proven) << " (swept "
       << maf::support_level_name(proof.swept) << ')' << '\n';
  }
  for (const Violation& v : violations)
    os << "  violation: " << v.message << '\n';
  os << "result: " << (ok ? "PROVEN" : "REFUTED");
  return os.str();
}

}  // namespace polymem::verify
