#include "verify/maf_prover.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "maf/addressing.hpp"

namespace polymem::verify {
namespace {

using access::PatternKind;
using maf::Scheme;
using maf::SupportLevel;

TEST(MafProver, ProvesAllSchemesAt2x4And4x4) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (const auto& [p, q] : {std::pair{2u, 4u}, std::pair{4u, 4u}}) {
      const ProverReport report = prove(scheme, p, q);
      EXPECT_TRUE(report.ok) << report.summary();
      EXPECT_EQ(report.patterns.size(), 6u);
    }
  }
}

TEST(MafProver, ProvenLevelsMatchOracleClaims) {
  const ProverReport report = prove(Scheme::kRoCo, 2, 4);
  ASSERT_TRUE(report.ok) << report.summary();
  for (const PatternProof& proof : report.patterns) {
    EXPECT_EQ(proof.proven, proof.claimed)
        << access::pattern_name(proof.pattern);
    if (proof.advertised) {
      EXPECT_NE(proof.proven, SupportLevel::kNone);
    }
  }
}

TEST(MafProver, ProveAcceptsRealConfig) {
  const auto config = core::PolyMemConfig::with_capacity(
      64 * 1024, Scheme::kReRo, 2, 4);
  const ProverReport report = prove(config);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.period_i, 2);
  EXPECT_EQ(report.period_j, 8);
}

TEST(MafProver, SummaryNamesSchemeAndResult) {
  const ProverReport report = prove(Scheme::kReTr, 2, 4);
  ASSERT_TRUE(report.ok);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("ReTr 2x4"), std::string::npos);
  EXPECT_NE(summary.find("PROVEN"), std::string::npos);
  EXPECT_NE(summary.find("pattern trect"), std::string::npos);
}

TEST(MafProver, CheckCodesAreStableAndDistinct) {
  const CheckKind kinds[] = {
      CheckKind::kConstruction,        CheckKind::kBankRange,
      CheckKind::kPeriodicity,         CheckKind::kConflictFreedom,
      CheckKind::kAddressInjectivity,  CheckKind::kTemplateAgreement,
      CheckKind::kAffineConflict,      CheckKind::kAffineForm,
      CheckKind::kAffineDifferential,  CheckKind::kAffineDegenerate,
  };
  std::set<std::string> codes;
  for (CheckKind kind : kinds) {
    codes.insert(check_code(kind));
    EXPECT_NE(std::string(check_name(kind)), "");
  }
  EXPECT_EQ(codes.size(), 10u);
  EXPECT_STREQ(check_code(CheckKind::kConstruction), "PMV001");
  EXPECT_STREQ(check_code(CheckKind::kBankRange), "PMV002");
  EXPECT_STREQ(check_code(CheckKind::kPeriodicity), "PMV003");
  EXPECT_STREQ(check_code(CheckKind::kConflictFreedom), "PMV004");
  EXPECT_STREQ(check_code(CheckKind::kAddressInjectivity), "PMV005");
  EXPECT_STREQ(check_code(CheckKind::kTemplateAgreement), "PMV006");
  EXPECT_STREQ(check_code(CheckKind::kAffineConflict), "PMV007");
  EXPECT_STREQ(check_code(CheckKind::kAffineForm), "PMV008");
  EXPECT_STREQ(check_code(CheckKind::kAffineDifferential), "PMV009");
  EXPECT_STREQ(check_code(CheckKind::kAffineDegenerate), "PMV010");
  EXPECT_STREQ(check_name(CheckKind::kConflictFreedom), "conflict-freedom");
  EXPECT_STREQ(check_name(CheckKind::kAffineConflict), "affine-conflict");
}

// ---- deliberately corrupted mutants the prover must reject ----

// Mutant 1: a "ReRo" whose rotation term was dropped (it degenerates to
// ReO) — rows are no longer conflict-free, and the prover must produce
// the offending anchor and lane pair.
TEST(MafProverMutant, DroppedRotationBreaksRowConflictFreedom) {
  const maf::Maf rero(Scheme::kReRo, 2, 4);
  MafModel mutant = model_of(rero);
  mutant.bank = [](std::int64_t i, std::int64_t j) {
    return static_cast<unsigned>(floormod<std::int64_t>(i, 2) * 4 +
                                 floormod<std::int64_t>(j, 4));
  };
  const auto violation = check_conflict_freedom(mutant, PatternKind::kRow,
                                                /*aligned_only=*/false);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->check, CheckKind::kConflictFreedom);
  EXPECT_NE(violation->message.find("[PMV004]"), std::string::npos);
  EXPECT_NE(violation->message.find("pattern row"), std::string::npos);
  EXPECT_NE(violation->message.find("lanes"), std::string::npos);
  EXPECT_NE(violation->message.find("bank"), std::string::npos);
}

// Mutant 2: the real ReRo bank function with an understated j-period
// (4 instead of p*q = 8) — the periodicity proof must refute the claim,
// since a wrong period would poison every plan-cache residue class.
TEST(MafProverMutant, UnderstatedPeriodIsRefuted) {
  const maf::Maf rero(Scheme::kReRo, 2, 4);
  MafModel mutant = model_of(rero);
  ASSERT_EQ(mutant.period_j, 8);
  mutant.period_j = 4;
  const auto violation = check_periodicity(mutant);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->check, CheckKind::kPeriodicity);
  EXPECT_NE(violation->message.find("[PMV003]"), std::string::npos);
  EXPECT_NE(violation->message.find("period_j = 4"), std::string::npos);
}

// Mutant 3: an addressing function using the element column instead of
// the block column (A = |i/p|*(W/q) + j) — not a bijection onto the
// banks' words; the injectivity check must find the duplicate or
// out-of-range word.
TEST(MafProverMutant, BrokenAddressingIsNotInjective) {
  const maf::Maf rero(Scheme::kReRo, 2, 4);
  const MafModel model = model_of(rero);
  const std::int64_t height = 8, width = 16;
  const auto broken = [width](std::int64_t i, std::int64_t j) {
    return (i / 2) * (width / 4) + j;  // j, not |j/q|
  };
  const auto violation = check_address_injectivity(
      model, broken, height, width, (height / 2) * (width / 4));
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->check, CheckKind::kAddressInjectivity);
  EXPECT_NE(violation->message.find("[PMV005]"), std::string::npos);
}

// Mutant 4: two banks fused (every element of bank 0 rerouted to bank 1)
// — rectangles must collide, and the correct addressing must double-book
// words of bank 1.
TEST(MafProverMutant, FusedBanksCollide) {
  const maf::Maf reo(Scheme::kReO, 2, 4);
  MafModel mutant = model_of(reo);
  const maf::Maf& real = reo;
  mutant.bank = [&real](std::int64_t i, std::int64_t j) {
    const unsigned b = real.bank(i, j);
    return b == 0 ? 1u : b;
  };
  const auto conflict = check_conflict_freedom(mutant, PatternKind::kRect,
                                               /*aligned_only=*/false);
  ASSERT_TRUE(conflict.has_value());
  EXPECT_NE(conflict->message.find("pattern rect"), std::string::npos);

  const maf::AddressingFunction addressing(2, 4, 8, 16);
  const auto address = [&addressing](std::int64_t i, std::int64_t j) {
    return addressing.address(i, j);
  };
  const auto dup = check_address_injectivity(mutant, address, 8, 16,
                                             addressing.words_per_bank());
  ASSERT_TRUE(dup.has_value());
  EXPECT_NE(dup->message.find("both occupy bank 1"), std::string::npos);
}

// Mutant 5: a bank function escaping [0, p*q).
TEST(MafProverMutant, BankOutOfRangeIsCaught) {
  const maf::Maf reo(Scheme::kReO, 2, 4);
  MafModel mutant = model_of(reo);
  const maf::Maf& real = reo;
  mutant.bank = [&real](std::int64_t i, std::int64_t j) {
    return i == 1 && j == 1 ? 8u : real.bank(i, j);
  };
  const auto violation = check_bank_range(mutant);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->check, CheckKind::kBankRange);
  EXPECT_NE(violation->message.find("[PMV002]"), std::string::npos);
  EXPECT_NE(violation->message.find("bank(1,1) = 8"), std::string::npos);
}

TEST(MafProver, TemplateAgreementHoldsForAllSchemes) {
  struct Space {
    unsigned p, q;
    std::int64_t height, width;
  };
  // Each space covers a full period of every scheme plus the widest
  // pattern, so every residue class of every supported pattern has an
  // anchor to check; 4x8 holds the largest class table (ReTr, 32 x 128).
  const Space spaces[] = {{2, 4, 32, 64}, {4, 4, 48, 96}, {4, 8, 64, 192}};
  for (const Space& s : spaces) {
    for (Scheme scheme : maf::kAllSchemes) {
      const maf::Maf maf(scheme, s.p, s.q);
      const std::int64_t n = static_cast<std::int64_t>(s.p) * s.q;
      ASSERT_GE(s.height, maf.period_i() + n);
      ASSERT_GE(s.width, maf.period_j() + 2 * n);
      core::PolyMemConfig config;
      config.scheme = scheme;
      config.p = s.p;
      config.q = s.q;
      config.height = s.height;
      config.width = s.width;
      const auto violation = check_template_agreement(config);
      EXPECT_FALSE(violation.has_value())
          << maf::scheme_name(scheme) << ' ' << s.p << 'x' << s.q << ": "
          << violation->message;
    }
  }
}

TEST(MafProver, UnbuildableConfigReportsConstruction) {
  core::PolyMemConfig config;
  config.scheme = Scheme::kReRo;
  config.p = 2;
  config.q = 4;
  config.height = 33;  // not a multiple of p
  config.width = 64;
  const ProverReport report = prove(config);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().check, CheckKind::kConstruction);
  EXPECT_NE(report.violations.front().message.find("[PMV001]"),
            std::string::npos);
}

TEST(MafProver, ProveSupportReportsCounterexample) {
  const maf::Maf reo(Scheme::kReO, 2, 4);
  const MafModel model = model_of(reo);
  std::string counterexample;
  EXPECT_EQ(prove_support(model, PatternKind::kRow, &counterexample),
            SupportLevel::kNone);
  EXPECT_NE(counterexample.find("lanes"), std::string::npos);
  EXPECT_EQ(prove_support(model, PatternKind::kRect), SupportLevel::kAny);
}

// ---- symbolic affine layer (PMV007-PMV010) ----

TEST(MafProver, FullProofCarriesAgreeingAffineSuite) {
  for (Scheme scheme : maf::kAllSchemes) {
    const ProverReport report = prove(scheme, 2, 4);
    ASSERT_TRUE(report.ok) << report.summary();
    ASSERT_FALSE(report.affine.empty());
    for (const AffineProof& proof : report.affine) {
      EXPECT_TRUE(proof.ok) << proof.pattern.spec();
      EXPECT_EQ(proof.proven, proof.swept) << proof.pattern.spec();
    }
  }
}

TEST(MafProver, ProvableAffinePatternPasses) {
  const AffineReport report = prove_affine_pattern(
      Scheme::kReRo, 2, 4, AffinePattern::parse("lanes 1x8 ; i = 0 ; j = 3*v"));
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.proven, SupportLevel::kAny);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_NE(report.summary().find("PROVEN (any anchor)"), std::string::npos);
}

// Mutant 6 (PMV007): a stride-2 row folds lanes 0 and 4 onto one ReRo
// bank — the symbolic refutation must carry a witness that replays to a
// real bank collision on the production MAF.
TEST(MafProverMutant, AffineConflictShipsReplayableWitness) {
  const AffineReport report = prove_affine_pattern(
      Scheme::kReRo, 2, 4, AffinePattern::parse("lanes 1x8 ; i = 0 ; j = 2*v"));
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.proven, SupportLevel::kNone);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().check, CheckKind::kAffineConflict);
  EXPECT_NE(report.violations.front().message.find("[PMV007]"),
            std::string::npos);
  ASSERT_TRUE(report.counterexample.has_value());
  const AffineCounterexample& cx = *report.counterexample;
  const maf::Maf maf(Scheme::kReRo, 2, 4);
  EXPECT_FALSE(cx.elem_a.i == cx.elem_b.i && cx.elem_a.j == cx.elem_b.j);
  EXPECT_EQ(maf.bank(cx.elem_a.i, cx.elem_a.j), cx.bank);
  EXPECT_EQ(maf.bank(cx.elem_b.i, cx.elem_b.j), cx.bank);
}

// Mutant 7 (PMV008): a corrupted symbolic normal form must be caught by
// the form check before any verdict built on it can be trusted.
TEST(MafProverMutant, CorruptedSymbolicFormIsCaught) {
  const maf::Maf reo(Scheme::kReO, 2, 4);
  SymbolicMaf mutant = SymbolicMaf::of(reo);
  mutant.forms.front().ci += 1;
  const AffineReport report = prove_affine_pattern(
      reo, mutant, AffinePattern::of(PatternKind::kRect, 2, 4));
  EXPECT_FALSE(report.ok);
  bool found = false;
  for (const Violation& v : report.violations)
    if (v.check == CheckKind::kAffineForm) {
      found = true;
      EXPECT_NE(v.message.find("[PMV008]"), std::string::npos);
    }
  EXPECT_TRUE(found) << report.summary();
}

// Mutant 8 (PMV009): feeding ReRo's symbolic form for a concrete ReO
// makes the symbolic verdict (rows conflict-free) disagree with the
// brute-force sweep — the differential check must refute it.
TEST(MafProverMutant, SymbolicVsSweepDisagreementIsRefuted) {
  const maf::Maf reo(Scheme::kReO, 2, 4);
  const SymbolicMaf wrong = SymbolicMaf::of(maf::Maf(Scheme::kReRo, 2, 4));
  const auto violation = check_affine_differential(
      reo, wrong, AffinePattern::of(PatternKind::kRow, 2, 4),
      AnchorClass::kAny);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->check, CheckKind::kAffineDifferential);
  EXPECT_NE(violation->message.find("[PMV009]"), std::string::npos);
}

// Mutant 9 (PMV010): a pattern whose lane lattice touches an element
// twice can never be conflict-free and must be rejected as degenerate,
// not "refuted".
TEST(MafProverMutant, AliasingAffinePatternIsDegenerate) {
  const AffineReport report = prove_affine_pattern(
      Scheme::kReO, 2, 4, AffinePattern::parse("lanes 2x4 ; i = 0 ; j = v"));
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.proven, SupportLevel::kNone);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().check, CheckKind::kAffineDegenerate);
  EXPECT_NE(report.violations.front().message.find("[PMV010]"),
            std::string::npos);
  EXPECT_NE(report.violations.front().message.find("alias"),
            std::string::npos);
}

}  // namespace
}  // namespace polymem::verify
