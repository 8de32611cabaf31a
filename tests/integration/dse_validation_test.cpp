// The paper's DSE validation cycle, executed against the simulator for a
// representative sample of the grid:
//
//   "We validate each design with a simple read/write cycle: the host
//    fills MAX-PolyMem with unique numerical values, and then reads them
//    back using parallel accesses." (Sec. IV-A)
#include <gtest/gtest.h>

#include "core/polymem.hpp"
#include "synth/fmax_model.hpp"

namespace polymem {
namespace {

struct ValidationCase {
  maf::Scheme scheme;
  unsigned size_kb, lanes, ports;
};

std::string label(const ValidationCase& c) {
  return std::string(maf::scheme_name(c.scheme)) + "_" +
         std::to_string(c.size_kb) + "KB_" + std::to_string(c.lanes) + "L_" +
         std::to_string(c.ports) + "P";
}

std::string case_name(const ::testing::TestParamInfo<ValidationCase>& info) {
  return label(info.param);
}

// gtest puts the printed param into every discovered test name; without a
// printer it dumps the struct's raw bytes, padding included.
void PrintTo(const ValidationCase& c, std::ostream* os) { *os << label(c); }

class DseValidation : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(DseValidation, HostFillThenParallelReadback) {
  const auto& c = GetParam();
  const auto cfg = synth::FmaxModel::make_config(
      synth::DsePoint{c.scheme, c.size_kb, c.lanes, c.ports});
  core::PolyMem mem(cfg);

  // The host fills PolyMem with unique values (sampled grid to keep the
  // suite fast on multi-MB configurations).
  const std::int64_t istep = std::max<std::int64_t>(1, cfg.height / 64);
  auto value = [](std::int64_t i, std::int64_t j) {
    return static_cast<core::Word>((i << 24) ^ j);
  };
  for (std::int64_t i = 0; i < cfg.height; i += istep)
    for (std::int64_t j = 0; j < cfg.width; ++j) mem.store({i, j}, value(i, j));

  // Read back on every port, with a pattern the scheme serves anywhere:
  // rows for the row-capable schemes, rectangles for the rest.
  const bool rows = (c.scheme == maf::Scheme::kReRo ||
                     c.scheme == maf::Scheme::kRoCo);
  const access::PatternKind kind =
      rows ? access::PatternKind::kRow : access::PatternKind::kRect;
  for (std::int64_t i = 0; i + cfg.p <= cfg.height; i += istep) {
    const access::ParallelAccess acc{kind, {i, 0}};
    for (unsigned port = 0; port < cfg.read_ports; ++port) {
      const auto data = mem.read(acc, port);
      const auto coords = access::expand(acc, cfg.p, cfg.q);
      for (unsigned k = 0; k < data.size(); ++k) {
        // Only rows we filled are checked (rect spans p rows; with istep
        // sampling the second row may be unfilled — skip those lanes).
        if (coords[k].i % istep == 0)
          EXPECT_EQ(data[k], value(coords[k].i, coords[k].j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridSample, DseValidation,
    ::testing::Values(
        ValidationCase{maf::Scheme::kReO, 512, 8, 1},
        ValidationCase{maf::Scheme::kReRo, 512, 16, 2},
        ValidationCase{maf::Scheme::kReCo, 1024, 8, 4},
        ValidationCase{maf::Scheme::kRoCo, 2048, 8, 2},
        ValidationCase{maf::Scheme::kReTr, 1024, 16, 1},
        ValidationCase{maf::Scheme::kReRo, 4096, 8, 1}),
    case_name);

}  // namespace
}  // namespace polymem
