// Differential validation of the symbolic affine conflict-freedom prover
// (verify/affine_prover.hpp) against the brute-force period-lattice
// sweep, plus the affine IR's parser/printer contracts.
//
// The central gate: for every scheme and a battery of >= 20 affine
// patterns per scheme (the canonical suite covering all six Table-I
// families plus strided/skewed variants, and deliberately conflicting
// specs), the symbolic verdict must be bit-identical to the exhaustive
// sweep for both anchor classes, and every refutation must ship a
// counterexample that replays to a real bank collision on the production
// Maf.
#include "verify/affine_prover.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "maf/maf.hpp"
#include "verify/affine.hpp"

namespace polymem::verify {
namespace {

using access::PatternKind;
using maf::Scheme;
using maf::SupportLevel;

// Replays a refutation witness against the production MAF: two distinct
// elements, both produced by the pattern's lane map at the witness
// anchor, really landing in the same bank.
void expect_witness_replays(const maf::Maf& maf, const AffinePattern& pattern,
                            const AffineCounterexample& cx,
                            AnchorClass anchors) {
  EXPECT_FALSE(cx.elem_a.i == cx.elem_b.i && cx.elem_a.j == cx.elem_b.j)
      << pattern.spec();
  EXPECT_EQ(maf.bank(cx.elem_a.i, cx.elem_a.j), cx.bank) << pattern.spec();
  EXPECT_EQ(maf.bank(cx.elem_b.i, cx.elem_b.j), cx.bank) << pattern.spec();
  const auto lane_elem = [&](std::int64_t lane) {
    return pattern.element(cx.anchor, lane / pattern.lanes_v,
                           lane % pattern.lanes_v);
  };
  const access::Coord a = lane_elem(cx.lane_a);
  const access::Coord b = lane_elem(cx.lane_b);
  EXPECT_TRUE(a.i == cx.elem_a.i && a.j == cx.elem_a.j) << pattern.spec();
  EXPECT_TRUE(b.i == cx.elem_b.i && b.j == cx.elem_b.j) << pattern.spec();
  if (anchors == AnchorClass::kAligned) {
    EXPECT_EQ(cx.anchor.i % maf.p(), 0) << pattern.spec();
    EXPECT_EQ(cx.anchor.j % maf.q(), 0) << pattern.spec();
  }
}

// The per-scheme pattern battery: the canonical suite (all Table-I
// families as affine specs plus strided/skewed variants) extended with
// deliberately conflicting and deliberately odd specs.
std::vector<AffinePattern> battery(unsigned p, unsigned q) {
  std::vector<AffinePattern> out = canonical_affine_suite(p, q);
  const char* extras[] = {
      "lanes 1x8 ; i = 0 ; j = 2*v",        // stride-2 row: collides
      "lanes 8x1 ; i = 2*u ; j = 0",        // stride-2 column: collides
      "lanes 1x8 ; i = 0 ; j = 4*v",        // stride-4 row: collides
      "lanes 2x4 ; i = 2*u ; j = 2*v",      // stride-2 rect: collides
      "lanes 1x8 ; i = 0 ; j = 8*v + 1",    // period-stride row: collides
      "lanes 1x8 ; i = v ; j = v",          // main diagonal
      "lanes 4x2 ; i = u ; j = v",          // transposed rectangle
      "lanes 1x8 ; i = v ; j = 3*v",        // skewed diagonal
  };
  for (const char* spec : extras) out.push_back(AffinePattern::parse(spec));
  return out;
}

TEST(AffineProver, SymbolicVerdictMatchesSweepForEveryScheme) {
  for (Scheme scheme : maf::kAllSchemes) {
    const maf::Maf maf(scheme, 2, 4);
    const SymbolicMaf sym = SymbolicMaf::of(maf);
    const std::vector<AffinePattern> patterns = battery(2, 4);
    ASSERT_GE(patterns.size(), 20u);
    for (const AffinePattern& pattern : patterns)
      for (AnchorClass anchors : {AnchorClass::kAny, AnchorClass::kAligned}) {
        const AffineVerdict symbolic =
            prove_conflict_free(sym, pattern, anchors);
        const AffineVerdict swept = sweep_conflict_free(maf, pattern, anchors);
        ASSERT_TRUE(symbolic.degenerate.empty()) << pattern.spec();
        EXPECT_EQ(symbolic.conflict_free, swept.conflict_free)
            << maf.describe() << " pattern " << pattern.spec() << " ("
            << anchor_class_name(anchors) << " anchors)";
        if (!symbolic.conflict_free) {
          ASSERT_TRUE(symbolic.counterexample.has_value()) << pattern.spec();
          expect_witness_replays(maf, pattern, *symbolic.counterexample,
                                 anchors);
        }
      }
  }
}

TEST(AffineProver, DifferentialHoldsAcrossGeometries) {
  const std::pair<unsigned, unsigned> geometries[] = {
      {2, 4}, {4, 4}, {2, 8}, {4, 8}, {8, 8}, {4, 2}};
  for (Scheme scheme : maf::kAllSchemes)
    for (const auto& [p, q] : geometries) {
      const maf::Maf maf(scheme, p, q);
      const SymbolicMaf sym = SymbolicMaf::of(maf);
      EXPECT_EQ(validate_symbolic_maf(sym, maf), "") << maf.describe();
      for (const AffinePattern& pattern : canonical_affine_suite(p, q))
        for (AnchorClass anchors :
             {AnchorClass::kAny, AnchorClass::kAligned}) {
          const AffineVerdict symbolic =
              prove_conflict_free(sym, pattern, anchors);
          const AffineVerdict swept =
              sweep_conflict_free(maf, pattern, anchors);
          EXPECT_EQ(symbolic.conflict_free, swept.conflict_free)
              << maf.describe() << " pattern " << pattern.spec() << " ("
              << anchor_class_name(anchors) << " anchors)";
          if (symbolic.counterexample)
            expect_witness_replays(maf, pattern, *symbolic.counterexample,
                                   anchors);
        }
    }
}

TEST(AffineProver, KnownReRoFactsHold) {
  const maf::Maf rero(Scheme::kReRo, 2, 4);
  const SymbolicMaf sym = SymbolicMaf::of(rero);
  // A stride-3 row is served at every anchor (3 is coprime to q = 4)...
  EXPECT_EQ(prove_affine_support(
                sym, AffinePattern::parse("lanes 1x8 ; i = 0 ; j = 3*v")),
            SupportLevel::kAny);
  // ...but a stride-2 row folds lanes 0 and 4 onto one bank.
  AffineCounterexample cx;
  EXPECT_EQ(prove_affine_support(
                sym, AffinePattern::parse("lanes 1x8 ; i = 0 ; j = 2*v"), &cx),
            SupportLevel::kNone);
  EXPECT_EQ(cx.lane_a, 0);
  EXPECT_EQ(cx.lane_b, 4);
  EXPECT_EQ(rero.bank(cx.elem_a.i, cx.elem_a.j), cx.bank);
  EXPECT_EQ(rero.bank(cx.elem_b.i, cx.elem_b.j), cx.bank);
}

TEST(AffineProver, AlignedOnlySupportShipsUnalignedWitness) {
  // RoCo serves rectangles only at p/q-aligned anchors: the prover must
  // say kAligned and hand back the unaligned anchor that rules out kAny.
  const maf::Maf roco(Scheme::kRoCo, 2, 4);
  const SymbolicMaf sym = SymbolicMaf::of(roco);
  const AffinePattern rect = AffinePattern::of(PatternKind::kRect, 2, 4);
  AffineCounterexample cx;
  EXPECT_EQ(prove_affine_support(sym, rect, &cx), SupportLevel::kAligned);
  EXPECT_TRUE(cx.anchor.i % 2 != 0 || cx.anchor.j % 4 != 0);
  EXPECT_EQ(roco.bank(cx.elem_a.i, cx.elem_a.j), cx.bank);
  EXPECT_EQ(roco.bank(cx.elem_b.i, cx.elem_b.j), cx.bank);
}

TEST(AffineProver, DegeneratePatternsAreRejectedNotRefuted) {
  const SymbolicMaf sym = SymbolicMaf::of(maf::Maf(Scheme::kReO, 2, 4));
  // Two lanes alias the same element.
  const AffineVerdict alias = prove_conflict_free(
      sym, AffinePattern::parse("lanes 2x4 ; i = 0 ; j = v"),
      AnchorClass::kAny);
  EXPECT_FALSE(alias.ok());
  EXPECT_NE(alias.degenerate.find("alias"), std::string::npos);
  // An empty lane grid can never be proven.
  AffinePattern empty;
  empty.lanes_u = 0;
  empty.lanes_v = 4;
  EXPECT_NE(empty.invalid_reason(), "");
  EXPECT_FALSE(
      prove_conflict_free(sym, empty, AnchorClass::kAny).degenerate.empty());
}

TEST(AffineProver, CanonicalSuiteCoversTableOneWithUniqueNames) {
  const std::vector<AffinePattern> suite = canonical_affine_suite(2, 4);
  EXPECT_EQ(suite.size(), 14u);
  std::set<std::string> names;
  for (const AffinePattern& pattern : suite) {
    names.insert(pattern.name);
    EXPECT_EQ(pattern.invalid_reason(), "") << pattern.name;
  }
  EXPECT_EQ(names.size(), suite.size());
  for (PatternKind kind :
       {PatternKind::kRow, PatternKind::kCol, PatternKind::kRect,
        PatternKind::kTRect, PatternKind::kMainDiag, PatternKind::kSecDiag}) {
    const AffinePattern family = AffinePattern::of(kind, 2, 4);
    bool present = false;
    for (const AffinePattern& pattern : suite)
      present = present || (pattern.lanes_u == family.lanes_u &&
                            pattern.lanes_v == family.lanes_v &&
                            pattern.i == family.i && pattern.j == family.j);
    EXPECT_TRUE(present) << access::pattern_name(kind);
  }
}

TEST(AffinePatternTest, ParseRoundTripsThroughSpec) {
  const char* specs[] = {
      "lanes 1x8 ; i = 0 ; j = 3*v",
      "lanes 2x4 ; i = u ; j = v",
      "lanes 4x2 ; i = 2*u - v + 1 ; j = -u + 3",
  };
  for (const char* text : specs) {
    const AffinePattern parsed = AffinePattern::parse(text);
    const AffinePattern again = AffinePattern::parse(parsed.spec());
    EXPECT_EQ(parsed.lanes_u, again.lanes_u);
    EXPECT_EQ(parsed.lanes_v, again.lanes_v);
    EXPECT_EQ(parsed.i, again.i);
    EXPECT_EQ(parsed.j, again.j);
  }
  // Whitespace-insensitive.
  const AffinePattern tight = AffinePattern::parse("lanes 1x8;i=0;j=3*v");
  EXPECT_EQ(tight.j, (LaneExpr{0, 3, 0}));
  EXPECT_EQ(tight.count(), 8);
}

TEST(AffinePatternTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(AffinePattern::parse(""), InvalidArgument);
  EXPECT_THROW(AffinePattern::parse("lanes 1x8 ; i = 0"), InvalidArgument);
  EXPECT_THROW(AffinePattern::parse("lanes 1x8 ; i = 0 ; j = 3*w"),
               InvalidArgument);
  EXPECT_THROW(AffinePattern::parse("lanes axb ; i = 0 ; j = v"),
               InvalidArgument);
  EXPECT_THROW(AffinePattern::parse("lanes 1x8 ; i = 0 ; j = 3**v"),
               InvalidArgument);
}

TEST(AffinePatternTest, SpecNumbersAreBounded) {
  // +-2^31 coefficients and constants parse; a number past them, a sum of
  // terms past them, or a lane grid side past 2^20 is a spec error, so no
  // lane offset or anchored element can wrap.
  const AffinePattern edge = AffinePattern::parse(
      "lanes 1x8 ; i = -2147483648*u + 2147483648 ; j = 2147483648*v");
  EXPECT_EQ(edge.i, (LaneExpr{-2147483648, 0, 2147483648}));
  EXPECT_EQ(edge.j, (LaneExpr{0, 2147483648, 0}));
  const char* refused[] = {
      "lanes 1x8 ; i = 0 ; j = 2147483649*v",
      "lanes 1x8 ; i = 0 ; j = 9223372036854775807*v",
      "lanes 1x8 ; i = 0 ; j = 2147483648*v + 1*v",
      "lanes 1x8 ; i = -2147483648 - 1 ; j = v",
      "lanes 1048577x1 ; i = u ; j = 0",
  };
  for (const char* spec : refused) {
    EXPECT_THROW(AffinePattern::parse(spec), InvalidArgument) << spec;
  }
  // A grid built in code has its lane count checked without overflow.
  AffinePattern huge;
  huge.lanes_u = huge.lanes_v = std::int64_t{1} << 32;
  EXPECT_NE(huge.invalid_reason(), "");
}

TEST(AffinePatternTest, BoundingBoxCoversLatticeCorners) {
  const AffinePattern pattern =
      AffinePattern::parse("lanes 2x4 ; i = 2*u - v ; j = 3*v + 1");
  const AffinePattern::Box box = pattern.bounding_box();
  EXPECT_EQ(box.min_i, -3);  // u = 0, v = 3
  EXPECT_EQ(box.max_i, 2);   // u = 1, v = 0
  EXPECT_EQ(box.min_j, 1);   // v = 0
  EXPECT_EQ(box.max_j, 10);  // v = 3
}

}  // namespace
}  // namespace polymem::verify
