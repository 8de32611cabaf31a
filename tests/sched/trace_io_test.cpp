// Trace serialization: print/parse round trips, recorder coalescing,
// the canonical-data host oracle, provenance, and malformed-input
// handling (typed parse errors, never a crash).
#include "sched/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/access_batch.hpp"

namespace polymem::sched {
namespace {

using access::Coord;
using access::ParallelAccess;
using access::PatternKind;

RecordedTrace sample_trace() {
  RecordedTrace trace;
  trace.p = 2;
  trace.q = 4;
  trace.height = 16;
  trace.width = 16;
  trace.seed = 7;
  trace.ops = {
      {TraceOp::Dir::kRead, PatternKind::kRow, {0, 0}, {1, 0}, 16, {}},
      {TraceOp::Dir::kWrite, PatternKind::kRect, {4, 8}, {0, 0}, 1, {}},
      {TraceOp::Dir::kRead, PatternKind::kMainDiag, {0, 0}, {8, 8}, 2, {}},
  };
  return trace;
}

TEST(TraceIo, PrintParseRoundTrip) {
  RecordedTrace trace = sample_trace();
  annotate_checksums(trace);
  const std::string text = trace_to_string(trace);
  const RecordedTrace parsed = parse_trace_text(text);
  EXPECT_EQ(parsed, trace);
  // Idempotent: the second print is byte-identical.
  EXPECT_EQ(trace_to_string(parsed), text);
}

TEST(TraceIo, RoundTripPreservesEveryPatternAndNegativeStride) {
  RecordedTrace trace;
  trace.height = 64;
  trace.width = 64;
  trace.seed = 3;
  std::int64_t i = 0;
  for (PatternKind kind : access::kAllPatterns) {
    trace.ops.push_back({TraceOp::Dir::kRead, kind, {8 + i, 32}, {0, -2}, 3,
                         {}});
    ++i;
  }
  annotate_checksums(trace);
  EXPECT_EQ(parse_trace_text(trace_to_string(trace)), trace);
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  const RecordedTrace parsed = parse_trace_text(
      "# leading comment\n"
      "\n"
      "polymem-trace v1\n"
      "geometry 2x4 space 8x8 seed 1   # inline comment\n"
      "\n"
      "R rect @ 0,0   # another\n");
  EXPECT_EQ(parsed.ops.size(), 1u);
  EXPECT_EQ(parsed.ops[0].count, 1);
  EXPECT_EQ(parsed.height, 8);
}

TEST(TraceIo, RecorderCoalescesConstantStrideRuns) {
  TraceRecorder recorder(2, 4, 32, 32, 9);
  for (std::int64_t t = 0; t < 5; ++t)
    recorder.read({PatternKind::kRect, {0, 4 * t}});
  recorder.write({PatternKind::kRect, {8, 0}});   // direction break
  recorder.read({PatternKind::kRow, {16, 0}});    // pattern break
  recorder.read({PatternKind::kRow, {16, 8}});
  recorder.read({PatternKind::kRow, {16, 24}});   // stride break
  const RecordedTrace trace = recorder.finish();

  ASSERT_EQ(trace.ops.size(), 4u);
  EXPECT_EQ(trace.ops[0].count, 5);
  EXPECT_EQ(trace.ops[0].stride, (Coord{0, 4}));
  EXPECT_EQ(trace.ops[1].dir, TraceOp::Dir::kWrite);
  EXPECT_EQ(trace.ops[1].count, 1);
  EXPECT_EQ(trace.ops[1].stride, (Coord{0, 0}));
  EXPECT_EQ(trace.ops[2].count, 2);
  EXPECT_EQ(trace.ops[3].count, 1);
  EXPECT_EQ(trace.ops[3].anchor, (Coord{16, 24}));
  // Every op got a canonical checksum.
  for (const TraceOp& op : trace.ops) EXPECT_TRUE(op.checksum.has_value());
}

TEST(TraceIo, RecorderFlattens2dBatches) {
  TraceRecorder recorder(2, 4, 32, 32);
  recorder.read_batch({PatternKind::kRect, {0, 0}, {0, 4}, 8, {2, 0}, 4});
  EXPECT_EQ(recorder.ops_recorded(), 4);  // one run per outer row
  const RecordedTrace trace = recorder.finish();
  ASSERT_EQ(trace.ops.size(), 4u);
  for (std::int64_t o = 0; o < 4; ++o) {
    EXPECT_EQ(trace.ops[static_cast<std::size_t>(o)].anchor,
              (Coord{2 * o, 0}));
    EXPECT_EQ(trace.ops[static_cast<std::size_t>(o)].count, 8);
  }
}

TEST(TraceIo, RecorderIsReusableAfterFinish) {
  TraceRecorder recorder(2, 4, 16, 16);
  recorder.read({PatternKind::kRect, {0, 0}});
  const RecordedTrace first = recorder.finish();
  EXPECT_EQ(first.ops.size(), 1u);
  EXPECT_EQ(recorder.ops_recorded(), 0);
  recorder.write({PatternKind::kRect, {2, 4}});
  const RecordedTrace second = recorder.finish();
  ASSERT_EQ(second.ops.size(), 1u);
  EXPECT_EQ(second.ops[0].dir, TraceOp::Dir::kWrite);
  EXPECT_EQ(second.height, first.height);
}

TEST(TraceIo, HostReplayChecksumsAreSerializationInvariant) {
  RecordedTrace trace = sample_trace();
  annotate_checksums(trace);
  // Re-deriving checksums from the parsed text reproduces them exactly.
  const RecordedTrace parsed = parse_trace_text(trace_to_string(trace));
  const HostReplay host = host_replay(parsed);
  ASSERT_EQ(host.checksums.size(), parsed.ops.size());
  for (std::size_t k = 0; k < parsed.ops.size(); ++k)
    EXPECT_EQ(host.checksums[k], *parsed.ops[k].checksum) << "op " << k;
}

TEST(TraceIo, HostReplayReadsSeeEarlierWrites) {
  RecordedTrace trace;
  trace.height = 8;
  trace.width = 8;
  trace.seed = 5;
  trace.ops = {
      {TraceOp::Dir::kWrite, PatternKind::kRect, {2, 4}, {0, 0}, 1, {}},
      {TraceOp::Dir::kRead, PatternKind::kRect, {2, 4}, {0, 0}, 1, {}},
  };
  const HostReplay host = host_replay(trace);
  // The read checksum covers exactly the written payload.
  std::vector<std::uint64_t> payload;
  for (std::int64_t w = 0; w < 8; ++w)
    payload.push_back(canonical_write_word(trace.seed, 0, w));
  EXPECT_EQ(host.checksums[1], fnv1a(payload.data(), payload.size()));
  EXPECT_EQ(host.checksums[0], host.checksums[1]);
  // And the final image holds it at (2..3, 4..7).
  EXPECT_EQ(host.memory[2 * 8 + 4], canonical_write_word(trace.seed, 0, 0));
}

TEST(TraceIo, HostReplayRejectsOutOfBoundsOps) {
  RecordedTrace trace;
  trace.height = 4;
  trace.width = 4;
  trace.ops = {
      {TraceOp::Dir::kRead, PatternKind::kRect, {3, 3}, {0, 0}, 1, {}}};
  EXPECT_THROW(host_replay(trace), Error);
}

TEST(TraceIo, AccessTraceCarriesProvenance) {
  RecordedTrace trace;
  trace.height = 16;
  trace.width = 16;
  trace.ops = {
      {TraceOp::Dir::kRead, PatternKind::kRect, {0, 0}, {2, 0}, 3, {}},
      {TraceOp::Dir::kWrite, PatternKind::kMainDiag, {1, 3}, {0, 0}, 1, {}},
  };
  const AccessTrace flat = trace.access_trace();
  ASSERT_TRUE(flat.has_origins());
  ASSERT_EQ(flat.origins().size(), 4u);
  EXPECT_EQ(flat.origin_p(), 2u);
  EXPECT_EQ(flat.origin_q(), 4u);
  EXPECT_EQ(flat.origins()[1].access.anchor, (Coord{2, 0}));
  EXPECT_TRUE(flat.origins()[0].aligned);
  EXPECT_FALSE(flat.origins()[3].aligned);  // (1, 3) off-lattice
  EXPECT_FALSE(flat.origins_aligned());
  // Elements are the dedup'd union: 24 rect elements (rows 0..5 x cols
  // 0..3) plus 8 diagonal elements, of which only (1,3) overlaps.
  EXPECT_EQ(flat.size(), 24 + 8 - 1);
}

TEST(TraceIo, FromAccessesRecordsAlignment) {
  const std::vector<ParallelAccess> accesses = {
      {PatternKind::kRect, {0, 0}},
      {PatternKind::kRect, {2, 4}},
      {PatternKind::kRect, {1, 4}},
  };
  const AccessTrace trace = AccessTrace::from_accesses(accesses, 2, 4);
  ASSERT_EQ(trace.origins().size(), 3u);
  EXPECT_TRUE(trace.origins()[0].aligned);
  EXPECT_TRUE(trace.origins()[1].aligned);
  EXPECT_FALSE(trace.origins()[2].aligned);

  const AccessTrace aligned_only = AccessTrace::from_accesses(
      std::span(accesses.data(), 2), 2, 4);
  EXPECT_TRUE(aligned_only.origins_aligned());
}

TEST(TraceIo, GeneratorTracesHaveNoOrigins) {
  const AccessTrace trace = AccessTrace::dense_block({0, 0}, 4, 4);
  EXPECT_FALSE(trace.has_origins());
  EXPECT_EQ(trace.origin_p(), 0u);
}

// ---- malformed input: typed errors with line numbers, never a crash ----

struct BadCase {
  const char* label;
  const char* text;
  int line;
};

// Print the label: gtest's default would dump the struct's bytes, whose
// two string pointers move with the load address, so the registered test
// names would change on every build.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.label; }

class TraceIoMalformed : public ::testing::TestWithParam<BadCase> {};

TEST_P(TraceIoMalformed, ThrowsTypedParseError) {
  const BadCase& c = GetParam();
  try {
    parse_trace_text(c.text);
    FAIL() << c.label << ": expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), c.line) << c.label << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, TraceIoMalformed,
    ::testing::Values(
        BadCase{"empty", "", 1},
        BadCase{"wrong magic", "polymem-trace v2\n", 1},
        BadCase{"missing geometry", "polymem-trace v1\n", 2},
        BadCase{"bad geometry pair",
                "polymem-trace v1\ngeometry 2,4 space 8x8 seed 1\n", 2},
        BadCase{"zero geometry",
                "polymem-trace v1\ngeometry 0x4 space 8x8 seed 1\n", 2},
        BadCase{"garbled header",
                "polymem-trace v1\ngeometry 2x4 spice 8x8 seed 1\n", 2},
        BadCase{"bad seed",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed pi\n", 2},
        BadCase{"unknown direction",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "X rect @ 0,0\n",
                3},
        BadCase{"unknown pattern",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R blob @ 0,0\n",
                3},
        BadCase{"missing at",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect 0,0\n",
                3},
        BadCase{"bad anchor",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect @ 0;0\n",
                3},
        BadCase{"half anchor",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect @ 0,\n",
                3},
        BadCase{"zero count",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect @ 0,0 x0\n",
                3},
        BadCase{"dangling step",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect @ 0,0 x2 step\n",
                3},
        BadCase{"short checksum",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect @ 0,0 sum abcd\n",
                3},
        BadCase{"non-hex checksum",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect @ 0,0 sum zzzzzzzzzzzzzzzz\n",
                3},
        BadCase{"trailing junk",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect @ 0,0 x2 step 0,4 whee\n",
                3},
        BadCase{"second op bad",
                "polymem-trace v1\ngeometry 2x4 space 8x8 seed 1\n"
                "R rect @ 0,0\nW row @\n",
                4},
        BadCase{"oversized space",
                "polymem-trace v1\ngeometry 2x4 space 65536x65536 seed 1\n",
                2},
        BadCase{"oversized count",
                "polymem-trace v1\ngeometry 2x4 space 16x16 seed 1\n"
                "R row @ 0,0 x4000000000 step 0,0\n",
                3},
        BadCase{"oversized geometry",
                "polymem-trace v1\ngeometry 4294967298x4 space 8x8 seed 1\n",
                2},
        BadCase{"huge anchor",
                "polymem-trace v1\ngeometry 2x4 space 16x16 seed 1\n"
                "R col @ 9223372036854775807,0\n",
                3},
        BadCase{"huge stride",
                "polymem-trace v1\ngeometry 2x4 space 16x16 seed 1\n"
                "R row @ 0,0\nR row @ 0,0 x3 step 0,-2147483649\n",
                4}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      std::string name = info.param.label;
      for (char& ch : name)
        if (ch == ' ' || ch == '-') ch = '_';
      return name;
    });

TEST(TraceIo, ParseFileRejectsMissingFile) {
  EXPECT_THROW(parse_trace_file("/nonexistent/nope.trace"), Error);
}

}  // namespace
}  // namespace polymem::sched
