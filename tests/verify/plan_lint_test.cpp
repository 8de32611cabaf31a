#include "verify/plan_lint.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "maf/maf.hpp"

namespace polymem::verify {
namespace {

using access::PatternKind;
using core::AccessBatch;
using maf::Scheme;

core::PolyMemConfig small_config(Scheme scheme = Scheme::kReRo) {
  core::PolyMemConfig config;
  config.scheme = scheme;
  config.p = 2;
  config.q = 4;
  config.height = 64;
  config.width = 64;
  return config;
}

bool has_kind(const LintReport& report, LintKind kind) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.kind == kind) return true;
  return false;
}

const Diagnostic& first_of(const LintReport& report, LintKind kind) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.kind == kind) return d;
  throw std::logic_error("diagnostic kind not found");
}

TEST(PlanLint, CodesAreStableAndDistinct) {
  const LintKind kinds[] = {
      LintKind::kBadConfig,       LintKind::kEmptyBatch,
      LintKind::kUnsupportedPattern, LintKind::kUnalignedAnchor,
      LintKind::kMisalignedStride,   LintKind::kOutOfBounds,
      LintKind::kBankConflict,       LintKind::kReadAfterWrite,
      LintKind::kTraceOutOfBounds,   LintKind::kBankImbalance,
  };
  std::set<std::string> codes;
  for (LintKind kind : kinds) {
    codes.insert(lint_code(kind));
    EXPECT_NE(std::string(lint_name(kind)), "");
  }
  EXPECT_EQ(codes.size(), 10u);
  EXPECT_STREQ(lint_code(LintKind::kBadConfig), "PML001");
  EXPECT_STREQ(lint_code(LintKind::kEmptyBatch), "PML002");
  EXPECT_STREQ(lint_code(LintKind::kUnsupportedPattern), "PML003");
  EXPECT_STREQ(lint_code(LintKind::kUnalignedAnchor), "PML004");
  EXPECT_STREQ(lint_code(LintKind::kMisalignedStride), "PML005");
  EXPECT_STREQ(lint_code(LintKind::kOutOfBounds), "PML006");
  EXPECT_STREQ(lint_code(LintKind::kBankConflict), "PML007");
  EXPECT_STREQ(lint_code(LintKind::kReadAfterWrite), "PML008");
  EXPECT_STREQ(lint_code(LintKind::kTraceOutOfBounds), "PML009");
  EXPECT_STREQ(lint_code(LintKind::kBankImbalance), "PML010");
  EXPECT_STREQ(lint_name(LintKind::kOutOfBounds), "out-of-bounds");
  EXPECT_STREQ(severity_name(Severity::kError), "error");
  EXPECT_STREQ(severity_name(Severity::kWarning), "warning");
}

TEST(PlanLint, CleanBatchProducesNoDiagnostics) {
  const auto batch =
      AccessBatch::strided(PatternKind::kRect, {0, 0}, {0, 4}, 16);
  const LintReport report = lint_batch(small_config(), batch);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.summary(), "clean");
}

TEST(PlanLint, BadConfigIsReportedNotThrown) {
  core::PolyMemConfig config = small_config();
  config.height = 63;  // not a multiple of p
  const auto batch =
      AccessBatch::strided(PatternKind::kRect, {0, 0}, {0, 4}, 4);
  const LintReport report = lint_batch(config, batch);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kBadConfig);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("[PML001]"), std::string::npos);
  EXPECT_NE(d.message.find("multiple of p"), std::string::npos);
}

TEST(PlanLint, EmptyBatchWarnsAndNegativeCountsError) {
  const auto empty =
      AccessBatch::strided(PatternKind::kRect, {0, 0}, {0, 4}, 0);
  LintReport report = lint_batch(small_config(), empty);
  EXPECT_TRUE(report.ok());  // a warning, not an error
  EXPECT_EQ(report.warnings(), 1u);
  {
    const Diagnostic& d = first_of(report, LintKind::kEmptyBatch);
    EXPECT_NE(d.message.find("[PML002]"), std::string::npos);
    EXPECT_NE(d.message.find("moves no data"), std::string::npos);
  }
  const auto negative =
      AccessBatch::strided(PatternKind::kRect, {0, 0}, {0, 4}, -3);
  report = lint_batch(small_config(), negative);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kEmptyBatch);
  EXPECT_NE(d.message.find("negative batch counts"), std::string::npos);
}

TEST(PlanLint, UnsupportedPatternCarriesBankConflictPair) {
  // ReO never serves rows: lanes 0 and 4 of a row share a bank.
  const auto batch =
      AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0}, 4);
  const LintReport report = lint_batch(small_config(Scheme::kReO), batch);
  EXPECT_FALSE(report.ok());
  const Diagnostic& unsupported =
      first_of(report, LintKind::kUnsupportedPattern);
  EXPECT_EQ(unsupported.severity, Severity::kError);
  EXPECT_NE(unsupported.message.find("[PML003]"), std::string::npos);
  EXPECT_NE(unsupported.message.find("ReO"), std::string::npos);
  EXPECT_NE(unsupported.message.find("pattern row"), std::string::npos);
  const Diagnostic& conflict = first_of(report, LintKind::kBankConflict);
  EXPECT_EQ(conflict.severity, Severity::kWarning);
  EXPECT_NE(conflict.message.find("[PML007]"), std::string::npos);
  EXPECT_NE(conflict.message.find("lanes 0 and 4"), std::string::npos);
  EXPECT_NE(conflict.message.find("serialization"), std::string::npos);
}

TEST(PlanLint, UnalignedAnchorOnAlignedOnlyPattern) {
  // RoCo serves rectangles only at p/q-aligned anchors.
  const auto batch =
      AccessBatch::strided(PatternKind::kRect, {1, 0}, {2, 0}, 4);
  const LintReport report = lint_batch(small_config(Scheme::kRoCo), batch);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kUnalignedAnchor);
  EXPECT_NE(d.message.find("[PML004]"), std::string::npos);
  EXPECT_NE(d.message.find("(1,0)"), std::string::npos);
  EXPECT_NE(d.message.find("aligned"), std::string::npos);
}

TEST(PlanLint, MisalignedStrideOnAlignedOnlyPattern) {
  AccessBatch batch =
      AccessBatch::strided(PatternKind::kRect, {0, 0}, {1, 0}, 4);
  const LintReport report = lint_batch(small_config(Scheme::kRoCo), batch);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kMisalignedStride);
  EXPECT_NE(d.message.find("[PML005]"), std::string::npos);
  EXPECT_NE(d.message.find("inner stride (1,0)"), std::string::npos);
  EXPECT_FALSE(has_kind(report, LintKind::kUnalignedAnchor));
}

TEST(PlanLint, OutOfBoundsCornerIsNamed) {
  // 16 rect rows of 4 starting at i = 56 walk out of the 64-row space.
  const auto batch =
      AccessBatch::strided(PatternKind::kRect, {56, 0}, {2, 0}, 16);
  const LintReport report = lint_batch(small_config(), batch);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kOutOfBounds);
  EXPECT_NE(d.message.find("[PML006]"), std::string::npos);
  EXPECT_NE(d.message.find("(86,0)"), std::string::npos);
  EXPECT_NE(d.message.find("64x64"), std::string::npos);
  EXPECT_EQ(d.op, 0);
}

TEST(PlanLint, ReadAfterWriteHazardAcrossOps) {
  std::vector<BatchOp> ops;
  ops.push_back({BatchOp::Dir::kWrite,
                 AccessBatch::strided(PatternKind::kRect, {0, 0}, {2, 0}, 8)});
  ops.push_back({BatchOp::Dir::kRead,
                 AccessBatch::strided(PatternKind::kRect, {8, 0}, {2, 0}, 4)});
  const LintReport report = lint_program(small_config(), ops);
  EXPECT_TRUE(report.ok());  // hazard is a warning
  const Diagnostic& d = first_of(report, LintKind::kReadAfterWrite);
  EXPECT_NE(d.message.find("[PML008]"), std::string::npos);
  EXPECT_NE(d.message.find("op 1 reads"), std::string::npos);
  EXPECT_NE(d.message.find("op 0 writes"), std::string::npos);
  EXPECT_EQ(d.op, 1);

  // Disjoint regions: no hazard.
  ops[1].batch.start = {32, 0};
  EXPECT_FALSE(
      has_kind(lint_program(small_config(), ops), LintKind::kReadAfterWrite));
  // Read before write is not a RAW hazard either.
  std::swap(ops[0].dir, ops[1].dir);
  ops[1].batch.start = {8, 0};
  EXPECT_FALSE(
      has_kind(lint_program(small_config(), ops), LintKind::kReadAfterWrite));

  // One read after three overlapping writes: one warning, naming the
  // nearest write and counting the other two.
  const AccessBatch written =
      AccessBatch::strided(PatternKind::kRect, {0, 0}, {2, 0}, 8);
  std::vector<BatchOp> raw(3, {BatchOp::Dir::kWrite, written, std::nullopt});
  raw.push_back({BatchOp::Dir::kRead,
                 AccessBatch::strided(PatternKind::kRect, {8, 0}, {2, 0}, 4),
                 std::nullopt});
  const LintReport many = lint_program(small_config(), raw);
  int hazards = 0;
  for (const Diagnostic& x : many.diagnostics) {
    hazards += x.kind == LintKind::kReadAfterWrite ? 1 : 0;
  }
  EXPECT_EQ(hazards, 1);
  const Diagnostic& last = first_of(many, LintKind::kReadAfterWrite);
  EXPECT_EQ(last.op, 3);
  EXPECT_NE(last.message.find("op 2 writes"), std::string::npos);
  EXPECT_NE(last.message.find("2 earlier write(s)"), std::string::npos);
}

TEST(PlanLint, TraceOutOfBoundsIsAnError) {
  const auto trace = sched::AccessTrace::dense_block({60, 60}, 8, 8);
  const LintReport report = lint_trace(small_config(), trace);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kTraceOutOfBounds);
  EXPECT_NE(d.message.find("[PML009]"), std::string::npos);
  EXPECT_NE(d.message.find("48 trace element(s)"), std::string::npos);
}

TEST(PlanLint, SkewedTraceReportsBankImbalance) {
  // Every element (2k, 0) lands in ReO bank 0: the schedule serializes.
  std::vector<access::Coord> elements;
  for (std::int64_t k = 0; k < 16; ++k) elements.push_back({2 * k, 0});
  const sched::AccessTrace trace(std::move(elements));
  const LintReport report = lint_trace(small_config(Scheme::kReO), trace);
  EXPECT_TRUE(report.ok());  // imbalance is a warning
  const Diagnostic& d = first_of(report, LintKind::kBankImbalance);
  EXPECT_NE(d.message.find("[PML010]"), std::string::npos);
  EXPECT_NE(d.message.find("bank 0 holds 16 of 16"), std::string::npos);
  EXPECT_NE(d.message.find("16 cycles"), std::string::npos);
}

TEST(PlanLint, BalancedTraceIsClean) {
  const auto trace = sched::AccessTrace::dense_block({0, 0}, 16, 16);
  const LintReport report = lint_trace(small_config(), trace);
  EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
}

// ---- affine-op admission through the symbolic prover ----

BatchOp affine_op(const std::string& spec, access::Coord start,
                  access::Coord stride = {0, 0}, std::int64_t count = 1,
                  BatchOp::Dir dir = BatchOp::Dir::kRead) {
  BatchOp op;
  op.dir = dir;
  op.batch =
      AccessBatch::strided(PatternKind::kRect, start, stride, count);
  op.affine = AffinePattern::parse(spec);
  return op;
}

TEST(PlanLintAffine, ProvenPatternIsAdmittedSilently) {
  // A stride-3 row is proven conflict-free for ReRo at any anchor — no
  // diagnostic at all, even at an unaligned anchor.
  const std::vector<BatchOp> ops = {
      affine_op("lanes 1x8 ; i = 0 ; j = 3*v", {3, 1}, {1, 0}, 4)};
  const LintReport report = lint_program(small_config(), ops);
  EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
}

TEST(PlanLintAffine, RefutedPatternCarriesReplayableCounterexample) {
  const std::vector<BatchOp> ops = {
      affine_op("lanes 1x8 ; i = 0 ; j = 2*v", {0, 0})};
  const LintReport report = lint_program(small_config(), ops);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kUnsupportedPattern);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("[PML003]"), std::string::npos);
  EXPECT_NE(d.message.find("cannot serve"), std::string::npos);
  ASSERT_TRUE(d.counterexample.has_value());
  // The witness replays to a real bank collision on the production MAF.
  const maf::Maf maf(Scheme::kReRo, 2, 4);
  EXPECT_EQ(maf.bank(d.counterexample->elem_a), d.counterexample->bank);
  EXPECT_EQ(maf.bank(d.counterexample->elem_b), d.counterexample->bank);
}

TEST(PlanLintAffine, AlignedOnlyProofGetsAnchorAndStrideLint) {
  // RoCo serves rectangles only at aligned anchors: the affine rect is
  // admitted, but an unaligned start is an error with the unaligned
  // witness attached.
  const std::string rect = "lanes 2x4 ; i = u ; j = v";
  LintReport report = lint_program(small_config(Scheme::kRoCo),
                                   {affine_op(rect, {1, 0})});
  EXPECT_FALSE(report.ok());
  {
    const Diagnostic& d = first_of(report, LintKind::kUnalignedAnchor);
    EXPECT_NE(d.message.find("[PML004]"), std::string::npos);
    EXPECT_NE(d.message.find("affine"), std::string::npos);
    EXPECT_TRUE(d.counterexample.has_value());
  }
  // Aligned start but a stride that leaves the aligned lattice.
  report = lint_program(small_config(Scheme::kRoCo),
                        {affine_op(rect, {0, 0}, {1, 0}, 4)});
  EXPECT_FALSE(report.ok());
  EXPECT_NE(first_of(report, LintKind::kMisalignedStride)
                .message.find("[PML005]"),
            std::string::npos);
  // Aligned anchor walk: clean.
  report = lint_program(small_config(Scheme::kRoCo),
                        {affine_op(rect, {0, 0}, {2, 0}, 4)});
  EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
}

TEST(PlanLintAffine, DegeneratePatternIsRejected) {
  // Lanes (0, v) and (1, v) alias the same elements.
  const std::vector<BatchOp> ops = {
      affine_op("lanes 2x4 ; i = 0 ; j = v", {0, 0})};
  const LintReport report = lint_program(small_config(), ops);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kEmptyBatch);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("degenerate"), std::string::npos);
}

TEST(PlanLintAffine, LaneCountMustMatchMemoryLanes) {
  const std::vector<BatchOp> ops = {
      affine_op("lanes 1x4 ; i = 0 ; j = v", {0, 0})};
  const LintReport report = lint_program(small_config(), ops);
  EXPECT_FALSE(report.ok());
  const Diagnostic& d = first_of(report, LintKind::kUnsupportedPattern);
  EXPECT_NE(d.message.find("4 lanes"), std::string::npos);
}

TEST(PlanLintAffine, OutOfBoundsCornerIsFlagged) {
  // Stride-3 row at column 48 reaches j = 48 + 21 = 69 in a 64-wide space.
  const std::vector<BatchOp> ops = {
      affine_op("lanes 1x8 ; i = 0 ; j = 3*v", {0, 48})};
  const LintReport report = lint_program(small_config(), ops);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(first_of(report, LintKind::kOutOfBounds)
                .message.find("[PML006]"),
            std::string::npos);
}

TEST(PlanLintAffine, ReadAfterWriteHazardSeesAffineExtent) {
  // The affine read's bounding box overlaps the earlier classic write, so
  // the RAW hazard must fire even though no Table-I extent is involved.
  std::vector<BatchOp> ops;
  ops.push_back({BatchOp::Dir::kWrite,
                 AccessBatch::strided(PatternKind::kRect, {0, 0}, {2, 0}, 8),
                 std::nullopt});
  ops.push_back(affine_op("lanes 1x8 ; i = 0 ; j = 3*v", {8, 0}));
  const LintReport report = lint_program(small_config(), ops);
  EXPECT_TRUE(report.ok());  // hazard is a warning
  const Diagnostic& d = first_of(report, LintKind::kReadAfterWrite);
  EXPECT_NE(d.message.find("[PML008]"), std::string::npos);
  EXPECT_EQ(d.op, 1);
  // Move the read clear of the write: no hazard.
  ops[1].batch.start = {32, 0};
  EXPECT_FALSE(
      has_kind(lint_program(small_config(), ops), LintKind::kReadAfterWrite));
}

// ---- PML010 threshold boundary ----

TEST(PlanLint, BankImbalanceFiresExactlyAtTwiceIdeal) {
  // ReO 2x4: bank(i, j) = (i mod 2)*4 + (j mod 4). 16 elements over 8
  // banks gives ideal = 2, so the warning threshold is worst >= 4.
  std::vector<access::Coord> below;
  for (std::int64_t k = 0; k < 3; ++k) below.push_back({0, 4 * k});  // bank 0
  for (std::int64_t j = 1; j <= 3; ++j) {  // banks 1..3, two each
    below.push_back({0, j});
    below.push_back({0, j + 4});
  }
  for (std::int64_t j = 0; j <= 2; ++j) {  // banks 4..6, two each
    below.push_back({1, j});
    below.push_back({1, j + 4});
  }
  below.push_back({1, 3});  // bank 7
  ASSERT_EQ(below.size(), 16u);
  // worst = 3 < 2*ideal = 4: no warning.
  EXPECT_FALSE(has_kind(
      lint_trace(small_config(Scheme::kReO), sched::AccessTrace(
                                                 std::vector(below))),
      LintKind::kBankImbalance));

  // Push bank 0 to exactly worst = 4 (swap the bank-7 element): fires.
  std::vector<access::Coord> at = below;
  at.back() = {0, 12};  // bank 0
  const LintReport report =
      lint_trace(small_config(Scheme::kReO), sched::AccessTrace(std::move(at)));
  EXPECT_TRUE(report.ok());  // still a warning, not an error
  const Diagnostic& d = first_of(report, LintKind::kBankImbalance);
  EXPECT_NE(d.message.find("[PML010]"), std::string::npos);
  EXPECT_NE(d.message.find("holds 4 of 16"), std::string::npos);
  EXPECT_NE(d.message.find("balanced would be 2"), std::string::npos);
}

TEST(PlanLint, SummaryCountsErrorsAndWarnings) {
  std::vector<BatchOp> ops;
  ops.push_back({BatchOp::Dir::kRead,
                 AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0}, 4)});
  const LintReport report = lint_program(small_config(Scheme::kReO), ops);
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("1 error(s), 1 warning(s)"), std::string::npos);
  EXPECT_NE(summary.find("error [PML003]"), std::string::npos);
}

}  // namespace
}  // namespace polymem::verify
