// Machine-checked reproduction of the paper's Table I: which patterns each
// scheme serves conflict-free, exhaustively verified over one MAF period
// for each bank geometry the DSE uses (8 = 2x4, 16 = 2x8) plus extras.
#include "maf/conflict.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/polymem.hpp"
#include "maf/maf.hpp"

namespace polymem::maf {
namespace {

using access::PatternKind;

struct SupportCase {
  Scheme scheme;
  unsigned p, q;
  PatternKind pattern;
  SupportLevel expected;
};

std::string case_name(const ::testing::TestParamInfo<SupportCase>& info) {
  const auto& c = info.param;
  return std::string(scheme_name(c.scheme)) + "_" + std::to_string(c.p) + "x" +
         std::to_string(c.q) + "_" + access::pattern_name(c.pattern);
}

class SupportMatrix : public ::testing::TestWithParam<SupportCase> {};

TEST_P(SupportMatrix, ProbeMatchesExpectation) {
  const auto& c = GetParam();
  const Maf maf(c.scheme, c.p, c.q);
  EXPECT_EQ(probe_support(maf, c.pattern), c.expected);
  // A PolyMem answers from the table its plan cache filled at
  // construction; it must agree with the probe.
  core::PolyMemConfig config;
  config.scheme = c.scheme;
  config.p = c.p;
  config.q = c.q;
  config.height = 4 * c.p;
  config.width = 4 * c.q;
  const core::PolyMem mem(config);
  EXPECT_EQ(mem.supports(c.pattern), probe_support(maf, c.pattern));
}

constexpr auto kAny = SupportLevel::kAny;
constexpr auto kAligned = SupportLevel::kAligned;
constexpr auto kNone = SupportLevel::kNone;

// Expected values were derived by the exhaustive search in
// tools/maf_search.cpp and match the paper's Table I claims.
//
// The cases live in constant-initialised arrays rather than in
// ::testing::Values(...) temporaries: gtest prints a SupportCase's raw
// bytes into each test's registered name, and static storage keeps the
// struct's padding bytes zero, so the names are the same on every
// discovery run.
constexpr SupportCase kPaper8Lanes[] = {
    // ReO (2x4): rectangle only.
    SupportCase{Scheme::kReO, 2, 4, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReO, 2, 4, PatternKind::kTRect, kNone},
    SupportCase{Scheme::kReO, 2, 4, PatternKind::kRow, kNone},
    SupportCase{Scheme::kReO, 2, 4, PatternKind::kCol, kNone},
    SupportCase{Scheme::kReO, 2, 4, PatternKind::kMainDiag, kNone},
    SupportCase{Scheme::kReO, 2, 4, PatternKind::kSecDiag, kNone},
    // ReRo (2x4): rect, row, both diagonals.
    SupportCase{Scheme::kReRo, 2, 4, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReRo, 2, 4, PatternKind::kRow, kAny},
    SupportCase{Scheme::kReRo, 2, 4, PatternKind::kMainDiag, kAny},
    SupportCase{Scheme::kReRo, 2, 4, PatternKind::kSecDiag, kAny},
    SupportCase{Scheme::kReRo, 2, 4, PatternKind::kCol, kNone},
    SupportCase{Scheme::kReRo, 2, 4, PatternKind::kTRect, kNone},
    // ReCo (2x4): rect, col, both diagonals.
    SupportCase{Scheme::kReCo, 2, 4, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReCo, 2, 4, PatternKind::kCol, kAny},
    SupportCase{Scheme::kReCo, 2, 4, PatternKind::kMainDiag, kAny},
    SupportCase{Scheme::kReCo, 2, 4, PatternKind::kSecDiag, kAny},
    SupportCase{Scheme::kReCo, 2, 4, PatternKind::kRow, kNone},
    // RoCo (2x4): row, col anywhere; rectangle aligned.
    SupportCase{Scheme::kRoCo, 2, 4, PatternKind::kRow, kAny},
    SupportCase{Scheme::kRoCo, 2, 4, PatternKind::kCol, kAny},
    SupportCase{Scheme::kRoCo, 2, 4, PatternKind::kRect, kAligned},
    SupportCase{Scheme::kRoCo, 2, 4, PatternKind::kMainDiag, kNone},
    // ReTr (2x4): rect and transposed rect anywhere.
    SupportCase{Scheme::kReTr, 2, 4, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReTr, 2, 4, PatternKind::kTRect, kAny},
};

INSTANTIATE_TEST_SUITE_P(Paper8Lanes, SupportMatrix,
                         ::testing::ValuesIn(kPaper8Lanes), case_name);

constexpr SupportCase kPaper16Lanes[] = {
    SupportCase{Scheme::kReO, 2, 8, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReRo, 2, 8, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReRo, 2, 8, PatternKind::kRow, kAny},
    SupportCase{Scheme::kReRo, 2, 8, PatternKind::kMainDiag, kAny},
    SupportCase{Scheme::kReRo, 2, 8, PatternKind::kSecDiag, kAny},
    SupportCase{Scheme::kReCo, 2, 8, PatternKind::kCol, kAny},
    SupportCase{Scheme::kReCo, 2, 8, PatternKind::kMainDiag, kAny},
    SupportCase{Scheme::kRoCo, 2, 8, PatternKind::kRow, kAny},
    SupportCase{Scheme::kRoCo, 2, 8, PatternKind::kCol, kAny},
    SupportCase{Scheme::kRoCo, 2, 8, PatternKind::kRect, kAligned},
    SupportCase{Scheme::kReTr, 2, 8, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReTr, 2, 8, PatternKind::kTRect, kAny},
};

INSTANTIATE_TEST_SUITE_P(Paper16Lanes, SupportMatrix,
                         ::testing::ValuesIn(kPaper16Lanes), case_name);

constexpr SupportCase kOtherGeometries[] = {
    // Square geometry: rect == trect shape-wise, so ReO gains trect.
    SupportCase{Scheme::kReO, 4, 4, PatternKind::kTRect, kAny},
    SupportCase{Scheme::kReTr, 4, 4, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReTr, 4, 4, PatternKind::kTRect, kAny},
    // Degenerate 1xN geometry: a rect *is* a row.
    SupportCase{Scheme::kReO, 1, 8, PatternKind::kRow, kAny},
    SupportCase{Scheme::kReO, 1, 8, PatternKind::kMainDiag, kAny},
    // Diagonals degrade when a bank-grid axis collapses.
    SupportCase{Scheme::kReRo, 8, 1, PatternKind::kMainDiag, kNone},
    SupportCase{Scheme::kReCo, 1, 8, PatternKind::kMainDiag, kNone},
    // Taller-than-wide geometry.
    SupportCase{Scheme::kReRo, 4, 2, PatternKind::kRow, kAny},
    SupportCase{Scheme::kReRo, 4, 2, PatternKind::kMainDiag, kAny},
    SupportCase{Scheme::kReTr, 4, 2, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReTr, 4, 2, PatternKind::kTRect, kAny},
    SupportCase{Scheme::kReTr, 4, 8, PatternKind::kRect, kAny},
    SupportCase{Scheme::kReTr, 4, 8, PatternKind::kTRect, kAny},
};

INSTANTIATE_TEST_SUITE_P(OtherGeometries, SupportMatrix,
                         ::testing::ValuesIn(kOtherGeometries), case_name);

TEST(Conflict, AdvertisedPatternsVerifiedForAllSchemesAtPaperGeometries) {
  // Table I end-to-end: everything a scheme advertises must verify at
  // least aligned; rows/cols/diagonals advertised by multiview schemes
  // must verify at *any* anchor.
  for (Scheme s : kAllSchemes) {
    for (auto [p, q] : {std::pair<unsigned, unsigned>{2, 4}, {2, 8}}) {
      const Maf maf(s, p, q);
      for (PatternKind pattern : advertised_patterns(s)) {
        const SupportLevel level = probe_support(maf, pattern);
        EXPECT_NE(level, SupportLevel::kNone)
            << scheme_name(s) << " " << access::pattern_name(pattern);
        if (s != Scheme::kRoCo) {
          EXPECT_EQ(level, SupportLevel::kAny)
              << scheme_name(s) << " " << access::pattern_name(pattern);
        }
      }
    }
  }
}

TEST(Conflict, FindConflictsReturnsWitnesses) {
  // ReO cannot serve rows: there must be concrete colliding anchors, and
  // re-checking one of them must show a genuine bank collision.
  const Maf maf(Scheme::kReO, 2, 4);
  const auto witnesses = find_conflicts(maf, PatternKind::kRow);
  ASSERT_FALSE(witnesses.empty());
  const auto el = access::expand({PatternKind::kRow, witnesses.front()}, 2, 4);
  std::set<unsigned> banks;
  for (const auto& c : el) banks.insert(maf.bank(c));
  EXPECT_LT(banks.size(), el.size());
}

TEST(Conflict, FindConflictsEmptyForSupportedPattern) {
  const Maf maf(Scheme::kReRo, 2, 4);
  EXPECT_TRUE(find_conflicts(maf, PatternKind::kRow).empty());
}

TEST(Conflict, AccessSupportedHonoursAlignment) {
  const Maf roco(Scheme::kRoCo, 2, 4);
  EXPECT_TRUE(access_supported(roco, {PatternKind::kRect, {0, 0}}));
  EXPECT_TRUE(access_supported(roco, {PatternKind::kRect, {2, 4}}));
  EXPECT_FALSE(access_supported(roco, {PatternKind::kRect, {1, 0}}));
  EXPECT_FALSE(access_supported(roco, {PatternKind::kRect, {0, 2}}));
  // Rows are fine anywhere.
  EXPECT_TRUE(access_supported(roco, {PatternKind::kRow, {3, 5}}));
  // Unsupported patterns are rejected at any anchor.
  EXPECT_FALSE(access_supported(roco, {PatternKind::kMainDiag, {0, 0}}));
}

TEST(Conflict, SupportLevelNames) {
  EXPECT_STREQ(support_level_name(SupportLevel::kNone), "none");
  EXPECT_STREQ(support_level_name(SupportLevel::kAligned), "aligned");
  EXPECT_STREQ(support_level_name(SupportLevel::kAny), "any");
}

}  // namespace
}  // namespace polymem::maf
