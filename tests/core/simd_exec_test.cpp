// Differential gate of the compiled execution engine (the batch lowering
// in core/polymem.cpp + core/simd/): for every scheme x geometry x
// supported pattern, the compiled path — its gather/scatter kernels run
// by the single-access and batch executors — must be bit-identical to
// the AGU reference for read_batch and write_batch, and for the single
// accesses read_into and write, on every read port. Batches whose starts
// move by whole MAF periods, batches that visit more residue classes
// than a row's period, and rows walked backwards are held to the same
// reference. Unsupported, unaligned and out-of-bounds single accesses
// must throw what the reference throws and change nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/polymem.hpp"
#include "core/simd/dispatch.hpp"

namespace polymem::core {
namespace {

using access::Coord;
using access::PatternKind;
using maf::Scheme;
using maf::SupportLevel;

struct Geometry {
  unsigned p, q;
};

constexpr Geometry kGeometries[] = {{2, 2}, {2, 4}, {4, 4}};

PolyMemConfig make_config(Scheme scheme, Geometry g, unsigned ports = 1) {
  return PolyMemConfig::with_capacity(16 * KiB, scheme, g.p, g.q, ports);
}

// Read ports of the sweeps: enough that a wrong replica offset in a gather
// table shows, and that a write must land on more than one replica.
constexpr unsigned kPorts = 3;

std::string where(Scheme scheme, Geometry g, PatternKind kind) {
  std::ostringstream os;
  os << maf::scheme_name(scheme) << " " << g.p << "x" << g.q << " "
     << access::pattern_name(kind);
  return os.str();
}

void fill_deterministic(PolyMem& mem) {
  const auto& cfg = mem.config();
  std::vector<Word> values(static_cast<std::size_t>(cfg.height) * cfg.width);
  for (std::size_t k = 0; k < values.size(); ++k)
    values[k] = 0xD1B54A32D192ED03ull * (k + 1);
  mem.fill_rect({0, 0}, cfg.height, cfg.width, values);
}

// A batch of every in-bounds anchor of `kind` (p/q-aligned when the
// scheme only serves aligned anchors) — covers every residue class, so
// both the uniform and the multi-table kernel paths run.
AccessBatch full_sweep(const PolyMemConfig& cfg, const PolyMem& mem,
                       PatternKind kind, SupportLevel level) {
  const auto ext =
      access::pattern_extent(kind, cfg.p, cfg.q);
  const std::int64_t step_i =
      level == SupportLevel::kAligned ? cfg.p : 1;
  const std::int64_t step_j =
      level == SupportLevel::kAligned ? cfg.q : 1;
  const std::int64_t rows = (cfg.height - ext.rows) / step_i + 1;
  const std::int64_t min_j = -ext.col_offset;
  const std::int64_t max_j = cfg.width - ext.cols - ext.col_offset;
  std::int64_t start_j = min_j;
  if (level == SupportLevel::kAligned && start_j % cfg.q != 0)
    start_j += cfg.q - start_j % cfg.q;
  const std::int64_t cols = (max_j - start_j) / step_j + 1;
  (void)mem;
  return {kind, {0, start_j}, {0, step_j}, cols, {step_i, 0}, rows};
}

TEST(SimdExec, ReadBatchBitIdenticalAcrossLevels) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g, kPorts);
      PolyMem compiled(cfg);
      PolyMem interpreted(cfg);
      interpreted.set_plan_cache_enabled(false);
      fill_deterministic(compiled);
      fill_deterministic(interpreted);
      for (PatternKind kind : access::kAllPatterns) {
        const SupportLevel level = compiled.supports(kind);
        if (level == SupportLevel::kNone) continue;
        const AccessBatch batch = full_sweep(cfg, compiled, kind, level);
        std::vector<Word> want(
            static_cast<std::size_t>(batch.count()) * cfg.lanes());
        std::vector<Word> got(want.size());
        for (unsigned port = 0; port < kPorts; ++port) {
          interpreted.read_batch(batch, port, want);
          got.assign(got.size(), 0);
          compiled.read_batch(batch, port, got);
          ASSERT_EQ(got, want) << where(scheme, g, kind) << " port " << port;
        }
      }
    }
  }
}

TEST(SimdExec, WriteBatchBitIdenticalAcrossLevels) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g, kPorts);
      for (PatternKind kind : access::kAllPatterns) {
        // Fresh, identically-seeded instances per pattern: sweeps that do
        // not cover every cell must still match on the untouched ones.
        PolyMem interpreted(cfg);
        interpreted.set_plan_cache_enabled(false);
        fill_deterministic(interpreted);
        const SupportLevel level = interpreted.supports(kind);
        if (level == SupportLevel::kNone) continue;
        const AccessBatch batch = full_sweep(cfg, interpreted, kind, level);
        std::vector<Word> data(
            static_cast<std::size_t>(batch.count()) * cfg.lanes());
        for (std::size_t k = 0; k < data.size(); ++k)
          data[k] = 0x9E3779B97F4A7C15ull * (k + 7);
        const std::size_t cells =
            static_cast<std::size_t>(cfg.height) * cfg.width;
        std::vector<Word> want(cells), got(cells);
        interpreted.write_batch(batch, data);
        interpreted.dump_rect({0, 0}, cfg.height, cfg.width, want);
        // The sweep's footprint read back on every port: each replica
        // must hold the written image.
        std::vector<Word> want_back(data.size()), got_back(data.size());
        PolyMem compiled(cfg);
        fill_deterministic(compiled);
        compiled.write_batch(batch, data);
        compiled.dump_rect({0, 0}, cfg.height, cfg.width, got);
        ASSERT_EQ(got, want) << where(scheme, g, kind);
        for (unsigned port = 0; port < kPorts; ++port) {
          interpreted.read_batch(batch, port, want_back);
          compiled.read_batch(batch, port, got_back);
          ASSERT_EQ(got_back, want_back)
              << where(scheme, g, kind) << " port " << port;
        }
      }
    }
  }
}

// Write-then-read round trip through the compiled engine, against a
// host-side mirror — catches a scatter/gather pair that is
// self-consistently wrong.
TEST(SimdExec, RoundTripMatchesHostMirror) {
  const PolyMemConfig cfg = make_config(Scheme::kRoCo, {4, 4});
  const AccessBatch batch{PatternKind::kRect, {0, 0},
                          {0, 4}, cfg.width / 4, {4, 0}, cfg.height / 4};
  std::vector<Word> data(
      static_cast<std::size_t>(batch.count()) * cfg.lanes());
  for (std::size_t k = 0; k < data.size(); ++k)
    data[k] = 0xA24BAED4963EE407ull ^ (k * 0x9FB21C651E98DF25ull);
  PolyMem mem(cfg);
  mem.write_batch(batch, data);
  std::vector<Word> got(data.size(), 0);
  mem.read_batch(batch, 0, got);
  ASSERT_EQ(got, data);
}

TEST(SimdExec, SingleReadsBitIdenticalAcrossLevelsAndPorts) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g, kPorts);
      PolyMem compiled(cfg);
      PolyMem reference(cfg);
      reference.set_plan_cache_enabled(false);
      fill_deterministic(compiled);
      fill_deterministic(reference);
      const unsigned lanes = cfg.lanes();
      for (PatternKind kind : access::kAllPatterns) {
        const SupportLevel level = compiled.supports(kind);
        if (level == SupportLevel::kNone) continue;
        const AccessBatch batch = full_sweep(cfg, compiled, kind, level);
        std::vector<Word> want(static_cast<std::size_t>(batch.count()) *
                               lanes);
        std::vector<Word> got(want.size());
        for (unsigned port = 0; port < kPorts; ++port) {
          // With the plan cache off, read_batch is a loop of reference
          // read_into calls.
          reference.read_batch(batch, port, want);
          got.assign(got.size(), 0);
          for (std::int64_t t = 0; t < batch.count(); ++t)
            compiled.read_into(
                batch.access(t), port,
                std::span<Word>(got).subspan(
                    static_cast<std::size_t>(t) * lanes, lanes));
          ASSERT_EQ(got, want) << where(scheme, g, kind) << " port " << port;
        }
      }
    }
  }
}

// Single writes over every anchor, then a read-back of every anchor on
// every port. Returns every word read followed by the final image.
std::vector<Word> drive_single_writes(PolyMem& mem, const AccessBatch& batch) {
  const auto& cfg = mem.config();
  const unsigned lanes = cfg.lanes();
  const std::int64_t n = batch.count();
  std::vector<Word> data(lanes), out(lanes), log;
  for (std::int64_t t = 0; t < n; ++t) {
    for (unsigned k = 0; k < lanes; ++k)
      data[k] = 0x9E3779B97F4A7C15ull * static_cast<Word>(t * lanes + k + 7);
    mem.write(batch.access(t), data);
  }
  for (unsigned port = 0; port < cfg.read_ports; ++port) {
    for (std::int64_t t = 0; t < n; ++t) {
      mem.read_into(batch.access(t), port, out);
      log.insert(log.end(), out.begin(), out.end());
    }
  }
  std::vector<Word> image(static_cast<std::size_t>(cfg.height) * cfg.width);
  mem.dump_rect({0, 0}, cfg.height, cfg.width, image);
  log.insert(log.end(), image.begin(), image.end());
  return log;
}

TEST(SimdExec, SingleWritesBitIdenticalAcrossLevels) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g, kPorts);
      for (PatternKind kind : access::kAllPatterns) {
        PolyMem reference(cfg);
        reference.set_plan_cache_enabled(false);
        fill_deterministic(reference);
        const SupportLevel level = reference.supports(kind);
        if (level == SupportLevel::kNone) continue;
        const AccessBatch batch = full_sweep(cfg, reference, kind, level);
        const std::vector<Word> want = drive_single_writes(reference, batch);
        PolyMem compiled(cfg);
        fill_deterministic(compiled);
        ASSERT_EQ(drive_single_writes(compiled, batch), want)
            << where(scheme, g, kind);
        EXPECT_GT(compiled.plan_cache().hits(), 0u);
      }
    }
  }
}

enum class Thrown { kNothing, kUnsupported, kInvalidArgument, kOtherError };

template <typename Fn>
Thrown thrown_by(Fn&& fn) {
  try {
    fn();
  } catch (const Unsupported&) {
    return Thrown::kUnsupported;
  } catch (const InvalidArgument&) {
    return Thrown::kInvalidArgument;
  } catch (const Error&) {
    return Thrown::kOtherError;
  }
  return Thrown::kNothing;
}

struct BadAccess {
  access::ParallelAccess acc;
  Thrown expected;
};

// One access per failure mode the geometry has: an unsupported pattern,
// an unaligned anchor of an aligned-only pattern, and anchors past the
// bottom, the right edge and the top-left corner.
std::vector<BadAccess> bad_accesses(const PolyMem& mem) {
  const auto& cfg = mem.config();
  std::vector<BadAccess> bad;
  for (PatternKind kind : access::kAllPatterns) {
    switch (mem.supports(kind)) {
      case SupportLevel::kNone:
        bad.push_back({{kind, {0, 0}}, Thrown::kUnsupported});
        break;
      case SupportLevel::kAligned:
        bad.push_back({{kind, {1, 1}}, Thrown::kUnsupported});
        [[fallthrough]];
      case SupportLevel::kAny:
        bad.push_back({{kind, {cfg.height, 0}}, Thrown::kInvalidArgument});
        bad.push_back({{kind, {0, cfg.width}}, Thrown::kInvalidArgument});
        bad.push_back(
            {{kind, {-static_cast<std::int64_t>(cfg.p), 0}},
             Thrown::kInvalidArgument});
        break;
    }
  }
  return bad;
}

// Runs `fn` on `mem` and checks it threw `expected` without reading,
// writing or counting anything: counters, image and `out` unchanged.
template <typename Fn>
void expect_rejected(PolyMem& mem, Thrown expected, std::vector<Word>& out,
                     Fn&& fn, const std::string& what) {
  const auto& cfg = mem.config();
  std::vector<Word> image(static_cast<std::size_t>(cfg.height) * cfg.width);
  std::vector<Word> after(image.size());
  mem.dump_rect({0, 0}, cfg.height, cfg.width, image);
  const std::uint64_t reads = mem.parallel_reads();
  const std::uint64_t writes = mem.parallel_writes();
  out.assign(out.size(), 0x5E57'1AE1ull);
  EXPECT_EQ(thrown_by(fn), expected) << what;
  EXPECT_EQ(mem.parallel_reads(), reads) << what;
  EXPECT_EQ(mem.parallel_writes(), writes) << what;
  EXPECT_EQ(out, std::vector<Word>(out.size(), 0x5E57'1AE1ull)) << what;
  mem.dump_rect({0, 0}, cfg.height, cfg.width, after);
  EXPECT_EQ(after, image) << what;
}

TEST(SimdExec, SingleAccessErrorsMatchReferenceAndChangeNothing) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g, kPorts);
      PolyMem compiled(cfg);
      PolyMem reference(cfg);
      reference.set_plan_cache_enabled(false);
      fill_deterministic(compiled);
      fill_deterministic(reference);
      const unsigned lanes = cfg.lanes();
      std::vector<Word> out(lanes), data(lanes, 7);
      for (const BadAccess& b : bad_accesses(reference)) {
        std::ostringstream os;
        os << maf::scheme_name(scheme) << " " << g.p << "x" << g.q << " "
           << access::pattern_name(b.acc.kind) << " at " << b.acc.anchor;
        for (PolyMem* mem : {&reference, &compiled}) {
          const std::string what =
              os.str() + (mem == &compiled ? " compiled" : " reference");
          expect_rejected(*mem, b.expected, out,
                          [&] { mem->read_into(b.acc, kPorts - 1, out); },
                          what + " read_into");
          expect_rejected(*mem, b.expected, out,
                          [&] { mem->write(b.acc, data); }, what + " write");
        }
      }
    }
  }
}

// True when every anchor of `batch` is in bounds. Anchors are affine in
// the index box, so the four corners decide.
bool batch_fits(const PolyMemConfig& cfg, const AccessBatch& batch) {
  const std::int64_t last = batch.count() - 1;
  for (std::int64_t t : {std::int64_t{0}, batch.inner_count - 1,
                         last - batch.inner_count + 1, last})
    if (!access::fits(batch.access(t), cfg.p, cfg.q, cfg.height, cfg.width))
      return false;
  return true;
}

// The 1D and 2D batch shapes of the period-shift sweeps, anchored at the
// first in-bounds (and, for aligned-only patterns, aligned) anchor. Every
// stride is a multiple of p/q where the pattern needs it.
std::vector<AccessBatch> shift_shapes(const PolyMemConfig& cfg,
                                      PatternKind kind, SupportLevel level) {
  const bool aligned = level == SupportLevel::kAligned;
  const std::int64_t si = aligned ? cfg.p : 1;
  const std::int64_t sj = aligned ? cfg.q : 1;
  std::int64_t j0 = -access::pattern_extent(kind, cfg.p, cfg.q).col_offset;
  if (aligned && j0 % cfg.q != 0) j0 += cfg.q - j0 % cfg.q;
  const access::Coord start{0, j0};
  return {
      AccessBatch::strided(kind, start, {0, cfg.q}, 3),
      AccessBatch::strided(kind, start, {si, sj}, 4),
      {kind, start, {0, sj}, 3, {cfg.p, 0}, 2},
  };
}

// One shape's starts alternate between moves by whole MAF periods (up,
// down and diagonal: every access keeps its residue class) and other
// offsets (new classes). Every read and the final image must match the
// AGU reference.
TEST(SimdExec, PeriodShiftedBatchesMatchReference) {
  std::uint64_t rebased = 0, fresh = 0;
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg =
          PolyMemConfig::with_capacity(64 * KiB, scheme, g.p, g.q);
      const unsigned lanes = cfg.lanes();
      const std::size_t cells =
          static_cast<std::size_t>(cfg.height) * cfg.width;
      for (PatternKind kind : access::kAllPatterns) {
        PolyMem probe(cfg);
        const SupportLevel level = probe.supports(kind);
        if (level == SupportLevel::kNone) continue;
        const std::int64_t pi = probe.plan_cache().period_i();
        const std::int64_t pj = probe.plan_cache().period_j();
        const std::int64_t si = level == SupportLevel::kAligned ? g.p : 1;
        const std::int64_t sj = level == SupportLevel::kAligned ? g.q : 1;
        const access::Coord moves[] = {
            {0, 0},   {pi, 0},          {pi, pj},         {0, pj},
            {0, 0},   {2 * pi, pj},     {si, sj},         {si + pi, sj},
            {si, sj + pj},              {0, 0},           {si, 0},
            {si + 2 * pi, 0},           {0, sj},          {pi, sj + 2 * pj},
            {0, 0}};
        for (const AccessBatch& shape : shift_shapes(cfg, kind, level)) {
          PolyMem compiled(cfg);
          PolyMem reference(cfg);
          reference.set_plan_cache_enabled(false);
          fill_deterministic(compiled);
          fill_deterministic(reference);
          std::vector<Word> want(
              static_cast<std::size_t>(shape.count()) * lanes);
          std::vector<Word> got(want.size()), data(want.size());
          std::optional<access::Coord> prev;
          Word salt = 1;
          for (const access::Coord move : moves) {
            AccessBatch b = shape;
            b.start = {shape.start.i + move.i, shape.start.j + move.j};
            if (!batch_fits(cfg, b)) continue;
            std::ostringstream what;
            what << where(scheme, g, kind) << " shape "
                 << shape.inner_count << 'x' << shape.outer_count
                 << " start " << b.start;
            const bool shifted =
                prev && (b.start.i - prev->i) % pi == 0 &&
                (b.start.j - prev->j) % pj == 0;
            reference.read_batch(b, 0, want);
            compiled.read_batch(b, 0, got);
            ASSERT_EQ(got, want) << what.str();
            for (std::size_t k = 0; k < data.size(); ++k)
              data[k] = (0x9E3779B97F4A7C15ull * (k + 1)) ^ (salt << 40);
            ++salt;
            reference.write_batch(b, data);
            compiled.write_batch(b, data);
            if (shifted) {
              ++rebased;
            } else {
              ++fresh;
            }
            prev = b.start;
          }
          std::vector<Word> image_want(cells), image_got(cells);
          reference.dump_rect({0, 0}, cfg.height, cfg.width, image_want);
          compiled.dump_rect({0, 0}, cfg.height, cfg.width, image_got);
          ASSERT_EQ(image_got, image_want)
              << where(scheme, g, kind) << " shape "
              << shape.inner_count << 'x' << shape.outer_count;
        }
      }
    }
  }
  EXPECT_GT(rebased, 0u);
  EXPECT_GT(fresh, 0u);
}

// Reads, then writes, `batches` on a compiled memory and on the AGU
// reference, each starting from the same image: every read and the final
// image must match. Returns the residue classes the compiled memory built.
std::uint64_t expect_batches_match_reference(
    const PolyMemConfig& cfg, const std::vector<AccessBatch>& batches,
    const std::string& what) {
  PolyMem compiled(cfg);
  PolyMem reference(cfg);
  reference.set_plan_cache_enabled(false);
  fill_deterministic(compiled);
  fill_deterministic(reference);
  Word salt = 1;
  for (const AccessBatch& b : batches) {
    std::vector<Word> want(static_cast<std::size_t>(b.count()) * cfg.lanes());
    std::vector<Word> got(want.size());
    for (unsigned port = 0; port < cfg.read_ports; ++port) {
      reference.read_batch(b, port, want);
      compiled.read_batch(b, port, got);
      EXPECT_EQ(got, want) << what << " start " << b.start << " port "
                           << port;
    }
    for (std::size_t k = 0; k < got.size(); ++k)
      got[k] = (0xD1B54A32D192ED03ull * (k + 3)) ^ (salt << 48);
    ++salt;
    reference.write_batch(b, got);
    compiled.write_batch(b, got);
  }
  const std::size_t cells = static_cast<std::size_t>(cfg.height) * cfg.width;
  std::vector<Word> image_want(cells), image_got(cells);
  reference.dump_rect({0, 0}, cfg.height, cfg.width, image_want);
  compiled.dump_rect({0, 0}, cfg.height, cfg.width, image_got);
  EXPECT_EQ(image_got, image_want) << what;
  return compiled.plan_cache().builds();
}

// ReTr 4x8 has 32 x 128 residue classes; a rect batch over every
// in-bounds anchor visits far more than 64 of them, in rows that meet
// each class at most once.
TEST(SimdExec, BatchOverMoreThan64ClassesMatchesReference) {
  const PolyMemConfig cfg =
      PolyMemConfig::with_capacity(64 * KiB, Scheme::kReTr, 4, 8, 2);
  PolyMem probe(cfg);
  ASSERT_EQ(probe.supports(PatternKind::kRect), SupportLevel::kAny);
  const std::int64_t rows = cfg.height - 3, cols = cfg.width - 7;
  const AccessBatch by_row{PatternKind::kRect, {0, 0}, {0, 1}, cols, {1, 0},
                           rows};
  // The same anchors with columns as the inner walk.
  const AccessBatch by_col{PatternKind::kRect, {0, 0}, {1, 0}, rows, {0, 1},
                           cols};
  EXPECT_GT(
      expect_batches_match_reference(cfg, {by_row, by_col}, "ReTr 4x8"),
      64u);
}

// Multi-row batches walked right to left and bottom to top, with inner
// and outer strides negative on one or both axes, on every scheme's
// patterns at 2x4.
TEST(SimdExec, NegativeStridesMatchReference) {
  for (Scheme scheme : maf::kAllSchemes) {
    const PolyMemConfig cfg =
        PolyMemConfig::with_capacity(16 * KiB, scheme, 2, 4, 2);
    for (PatternKind kind : access::kAllPatterns) {
      PolyMem probe(cfg);
      const SupportLevel level = probe.supports(kind);
      if (level == SupportLevel::kNone) continue;
      const AccessBatch sweep = full_sweep(cfg, probe, kind, level);
      const std::int64_t si = sweep.outer_stride.i, sj = sweep.inner_stride.j;
      const access::Coord last{
          sweep.start.i + (sweep.outer_count - 1) * si,
          sweep.start.j + (sweep.inner_count - 1) * sj};
      const std::int64_t rows = std::min<std::int64_t>(sweep.outer_count, 5);
      const std::int64_t cols = std::min<std::int64_t>(sweep.inner_count, 11);
      const std::vector<AccessBatch> batches = {
          // Right to left, top to bottom.
          {kind, {sweep.start.i, last.j}, {0, -sj}, cols, {si, 0}, rows},
          // Left to right, bottom to top.
          {kind, {last.i, sweep.start.j}, {0, sj}, cols, {-si, 0}, rows},
          // Both backwards, rows skewed left as they rise.
          {kind, last, {0, -sj}, cols - 1, {-si, -sj},
           std::min(rows, cols - 1)},
          // The inner walk up a column, rows stepping left.
          {kind, last, {-si, 0}, rows, {0, -sj}, cols},
      };
      expect_batches_match_reference(cfg, batches,
                                     where(scheme, {2, 4}, kind));
    }
  }
}

TEST(SimdExec, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
}

}  // namespace
}  // namespace polymem::core
