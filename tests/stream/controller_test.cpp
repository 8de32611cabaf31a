#include "stream/controller.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "stream/design.hpp"

namespace polymem::stream {
namespace {

// A small design for fast controller-level tests: vectors of 64 elements
// in a 32-wide space, 8 lanes, latency 14 (the paper's).
StreamDesignConfig small_cfg() {
  StreamDesignConfig cfg;
  cfg.vector_capacity = 64;
  cfg.width = 32;
  cfg.stream_depth = 64;
  return cfg;
}

// Loads vector `v` through the functional backdoor (not the streams).
void backdoor_fill(StreamController& ctl, Vector v,
                   const std::vector<double>& data) {
  const auto band = ctl.band(v);
  auto& mem = ctl.polymem().functional();
  for (std::size_t k = 0; k < data.size(); ++k)
    mem.store(band.coord(static_cast<std::int64_t>(k)),
              core::pack_double(data[k]));
}

std::vector<double> backdoor_dump(StreamController& ctl, Vector v,
                                  std::int64_t n) {
  const auto band = ctl.band(v);
  auto& mem = ctl.polymem().functional();
  std::vector<double> out(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k)
    out[static_cast<std::size_t>(k)] =
        core::unpack_double(mem.load(band.coord(k)));
  return out;
}

std::vector<double> iota_doubles(int n, double base) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) v[static_cast<std::size_t>(k)] = base + k;
  return v;
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : design_(small_cfg()), ctl_(design_.controller()) {}

  void run_stage(std::uint64_t max_cycles = 100000) {
    while (!ctl_.done()) {
      POLYMEM_REQUIRE(max_cycles-- > 0, "stage hung");
      ctl_.tick();
    }
  }

  StreamDesign design_;
  StreamController& ctl_;
};

TEST_F(ControllerTest, CopyMovesAIntoC) {
  const auto a = iota_doubles(64, 1.0);
  backdoor_fill(ctl_, Vector::kA, a);
  ctl_.start(Mode::kCopy, 64);
  EXPECT_FALSE(ctl_.done());
  run_stage();
  EXPECT_EQ(backdoor_dump(ctl_, Vector::kC, 64), a);
}

TEST_F(ControllerTest, CopyCycleCountIsGroupsPlusLatency) {
  backdoor_fill(ctl_, Vector::kA, iota_doubles(64, 0.0));
  ctl_.start(Mode::kCopy, 64);
  const auto start = ctl_.polymem().cycles();
  run_stage();
  const auto cycles = ctl_.polymem().cycles() - start;
  // 8 groups of 8 lanes, plus the 14-cycle read latency, plus the final
  // write cycle.
  EXPECT_EQ(cycles, 64 / 8 + 14 + 1);
}

TEST_F(ControllerTest, ScaleMultipliesBIntoA) {
  backdoor_fill(ctl_, Vector::kB, iota_doubles(64, 1.0));
  ctl_.start(Mode::kScale, 64, 2.5);
  run_stage();
  const auto a = backdoor_dump(ctl_, Vector::kA, 64);
  for (int k = 0; k < 64; ++k) EXPECT_DOUBLE_EQ(a[k], 2.5 * (1.0 + k));
}

TEST_F(ControllerTest, SumAddsBAndCIntoA) {
  backdoor_fill(ctl_, Vector::kB, iota_doubles(64, 10.0));
  backdoor_fill(ctl_, Vector::kC, iota_doubles(64, 100.0));
  ctl_.start(Mode::kSum, 64);
  run_stage();
  const auto a = backdoor_dump(ctl_, Vector::kA, 64);
  for (int k = 0; k < 64; ++k)
    EXPECT_DOUBLE_EQ(a[k], (10.0 + k) + (100.0 + k));
}

TEST_F(ControllerTest, TriadComputesBPlusQTimesC) {
  backdoor_fill(ctl_, Vector::kB, iota_doubles(64, 5.0));
  backdoor_fill(ctl_, Vector::kC, iota_doubles(64, 1.0));
  ctl_.start(Mode::kTriad, 64, 3.0);
  run_stage();
  const auto a = backdoor_dump(ctl_, Vector::kA, 64);
  for (int k = 0; k < 64; ++k)
    EXPECT_DOUBLE_EQ(a[k], (5.0 + k) + 3.0 * (1.0 + k));
}

TEST_F(ControllerTest, PartialLengthRuns) {
  backdoor_fill(ctl_, Vector::kA, iota_doubles(64, 7.0));
  backdoor_fill(ctl_, Vector::kC, std::vector<double>(64, -1.0));
  ctl_.start(Mode::kCopy, 32);  // only the first half
  run_stage();
  const auto c = backdoor_dump(ctl_, Vector::kC, 64);
  for (int k = 0; k < 32; ++k) EXPECT_DOUBLE_EQ(c[k], 7.0 + k);
  for (int k = 32; k < 64; ++k) EXPECT_DOUBLE_EQ(c[k], -1.0);
}

TEST_F(ControllerTest, LoadStageConsumesStream) {
  auto& a_in = design_.manager().stream(StreamDesign::kAIn);
  for (int k = 0; k < 64; ++k) a_in.push(core::pack_double(0.5 * k));
  ctl_.start(Mode::kLoadA, 64);
  run_stage();
  const auto a = backdoor_dump(ctl_, Vector::kA, 64);
  for (int k = 0; k < 64; ++k) EXPECT_DOUBLE_EQ(a[k], 0.5 * k);
}

TEST_F(ControllerTest, LoadStallsOnEmptyStreamThenResumes) {
  auto& a_in = design_.manager().stream(StreamDesign::kAIn);
  ctl_.start(Mode::kLoadA, 16);
  for (int c = 0; c < 20; ++c) ctl_.tick();  // starved: nothing to do
  EXPECT_FALSE(ctl_.done());
  for (int k = 0; k < 16; ++k) a_in.push(core::pack_double(k));
  run_stage();
  EXPECT_TRUE(ctl_.done());
  EXPECT_EQ(backdoor_dump(ctl_, Vector::kA, 16), iota_doubles(16, 0.0));
}

TEST_F(ControllerTest, OffloadPushesVectorToOutStream) {
  backdoor_fill(ctl_, Vector::kC, iota_doubles(64, 3.0));
  ctl_.start(Mode::kOffloadC, 64);
  auto& out = design_.manager().stream(StreamDesign::kOut);
  std::vector<double> got;
  std::uint64_t guard = 100000;
  while (!ctl_.done() || !out.empty()) {
    POLYMEM_REQUIRE(guard-- > 0, "offload hung");
    ctl_.tick();
    while (auto w = out.pop()) got.push_back(core::unpack_double(*w));
  }
  EXPECT_EQ(got, iota_doubles(64, 3.0));
}

TEST_F(ControllerTest, OffloadRespectsOutBackPressure) {
  // An output FIFO smaller than the in-flight window forces read gating;
  // the data must still come out complete and in order.
  StreamDesignConfig cfg = small_cfg();
  cfg.stream_depth = 16;  // two groups
  StreamDesign design(cfg);
  auto& ctl = design.controller();
  backdoor_fill(ctl, Vector::kA, iota_doubles(64, 9.0));
  ctl.start(Mode::kOffloadA, 64);
  auto& out = design.manager().stream(StreamDesign::kOut);
  std::vector<double> got;
  std::uint64_t guard = 100000;
  while (!ctl.done() || !out.empty()) {
    POLYMEM_REQUIRE(guard-- > 0, "offload hung");
    ctl.tick();
    // Host drains slowly: at most 3 words per cycle.
    for (int k = 0; k < 3; ++k)
      if (auto w = out.pop()) got.push_back(core::unpack_double(*w));
  }
  EXPECT_EQ(got, iota_doubles(64, 9.0));
}

TEST_F(ControllerTest, StartValidation) {
  EXPECT_THROW(ctl_.start(Mode::kIdle, 8), InvalidArgument);
  EXPECT_THROW(ctl_.start(Mode::kCopy, 0), InvalidArgument);
  EXPECT_THROW(ctl_.start(Mode::kCopy, 65), InvalidArgument);   // > capacity
  EXPECT_THROW(ctl_.start(Mode::kCopy, 12), InvalidArgument);   // % lanes
}

TEST_F(ControllerTest, SumNeedsTwoReadPorts) {
  StreamDesignConfig cfg = small_cfg();
  cfg.read_ports = 1;
  StreamDesign design(cfg);
  EXPECT_THROW(design.controller().start(Mode::kSum, 64), Unsupported);
  EXPECT_NO_THROW(design.controller().start(Mode::kCopy, 64));
}

TEST_F(ControllerTest, ModeNamesDistinct) {
  EXPECT_STREQ(mode_name(Mode::kCopy), "Copy");
  EXPECT_STREQ(mode_name(Mode::kTriad), "Triad");
  EXPECT_STREQ(mode_name(Mode::kOffloadB), "OffloadB");
}

TEST_F(ControllerTest, BulkTransfersRoundTrip) {
  const auto a = iota_doubles(64, 0.5);
  ctl_.preload(Vector::kA, a);
  EXPECT_EQ(backdoor_dump(ctl_, Vector::kA, 64), a);
  std::vector<double> back(64);
  ctl_.offload_bulk(Vector::kA, back);
  EXPECT_EQ(back, a);
}

TEST_F(ControllerTest, BackToBackStagesReuseTheController) {
  backdoor_fill(ctl_, Vector::kA, iota_doubles(64, 1.0));
  ctl_.start(Mode::kCopy, 64);
  run_stage();
  // Now scale the copied C? No — Scale reads B; fill B from C first.
  backdoor_fill(ctl_, Vector::kB, backdoor_dump(ctl_, Vector::kC, 64));
  ctl_.start(Mode::kScale, 64, 10.0);
  run_stage();
  const auto a = backdoor_dump(ctl_, Vector::kA, 64);
  for (int k = 0; k < 64; ++k) EXPECT_DOUBLE_EQ(a[k], 10.0 * (1.0 + k));
}

}  // namespace
}  // namespace polymem::stream
