#include "replay/replay.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "adapt/adaptive_matrix.hpp"
#include "common/error.hpp"
#include "core/polymem.hpp"
#include "maxsim/lmem.hpp"

namespace polymem::replay {

using access::Coord;
using access::ParallelAccess;
using access::PatternKind;
using sched::RecordedTrace;
using sched::TraceOp;

namespace {

std::int64_t pad_to(std::int64_t x, std::int64_t m) {
  return (x + m - 1) / m * m;
}

core::PolyMemConfig direct_config(const RecordedTrace& trace,
                                  const ReplayOptions& opts) {
  core::PolyMemConfig cfg;
  cfg.scheme = opts.scheme;
  cfg.p = trace.p;
  cfg.q = trace.q;
  cfg.read_ports = std::max(1u, opts.read_ports);
  cfg.height = pad_to(trace.height, trace.p);
  cfg.width = pad_to(trace.width, trace.q);
  cfg.validate();
  return cfg;
}

/// The host-memory mirror: exact trace-space array under the canonical
/// data model, advanced op by op alongside the memory under test.
class Mirror {
 public:
  explicit Mirror(const RecordedTrace& trace) : trace_(trace) {
    cells_.resize(static_cast<std::size_t>(trace.height * trace.width));
    for (std::int64_t i = 0; i < trace.height; ++i)
      for (std::int64_t j = 0; j < trace.width; ++j)
        at({i, j}) = sched::canonical_cell(trace.seed, trace.width, {i, j});
  }

  std::uint64_t& at(Coord c) {
    return cells_[static_cast<std::size_t>(c.i * trace_.width + c.j)];
  }

  /// Expands op access t and bounds-checks it against the trace space.
  void expand(const TraceOp& op, std::int64_t t, std::int64_t op_index) {
    const ParallelAccess a{op.kind,
                           {op.anchor.i + t * op.stride.i,
                            op.anchor.j + t * op.stride.j}};
    access::expand_into(a, trace_.p, trace_.q, coords_);
    for (const Coord c : coords_)
      POLYMEM_REQUIRE(c.i >= 0 && c.i < trace_.height && c.j >= 0 &&
                          c.j < trace_.width,
                      "trace op " + std::to_string(op_index) +
                          " leaves the address space");
  }
  const std::vector<Coord>& coords() const { return coords_; }

  const std::vector<std::uint64_t>& cells() const { return cells_; }

 private:
  const RecordedTrace& trace_;
  std::vector<std::uint64_t> cells_;
  std::vector<Coord> coords_;
};

/// Per-op scratch shared by both backends: canonical write payloads and
/// the words actually moved (checksummed afterwards).
struct OpData {
  std::vector<std::uint64_t> words;

  void fill_write(const RecordedTrace& trace, const TraceOp& op,
                  std::int64_t op_index) {
    const auto lanes = static_cast<std::int64_t>(trace.p) * trace.q;
    words.resize(static_cast<std::size_t>(op.count * lanes));
    for (std::int64_t w = 0; w < op.count * lanes; ++w)
      words[static_cast<std::size_t>(w)] =
          sched::canonical_write_word(trace.seed, op_index, w);
  }
};

void check_read(const std::vector<std::uint64_t>& got, Mirror& mirror,
                const TraceOp& op, std::int64_t op_index,
                ReplayReport& report) {
  const auto lanes = static_cast<std::size_t>(got.size()) /
                     static_cast<std::size_t>(op.count);
  for (std::int64_t t = 0; t < op.count; ++t) {
    mirror.expand(op, t, op_index);
    for (std::size_t l = 0; l < lanes; ++l)
      if (got[static_cast<std::size_t>(t) * lanes + l] !=
          mirror.at(mirror.coords()[l]))
        ++report.data_mismatches;
  }
}

void apply_write(const std::vector<std::uint64_t>& words, Mirror& mirror,
                 const TraceOp& op, std::int64_t op_index) {
  const auto lanes = static_cast<std::size_t>(words.size()) /
                     static_cast<std::size_t>(op.count);
  for (std::int64_t t = 0; t < op.count; ++t) {
    mirror.expand(op, t, op_index);
    for (std::size_t l = 0; l < lanes; ++l)
      mirror.at(mirror.coords()[l]) =
          words[static_cast<std::size_t>(t) * lanes + l];
  }
}

void check_checksum(const std::vector<std::uint64_t>& words,
                    const TraceOp& op, const ReplayOptions& opts,
                    ReplayReport& report) {
  if (!opts.verify_checksums || !op.checksum) return;
  ++report.checksums_checked;
  if (sched::fnv1a(words.data(), words.size()) != *op.checksum)
    ++report.checksum_mismatches;
}

ReplayReport replay_direct(const RecordedTrace& trace,
                           const ReplayOptions& opts) {
  const core::PolyMemConfig cfg = direct_config(trace, opts);
  core::PolyMem mem(cfg);

  // Canonical fill over the padded space (padding cells stay zero and
  // are unreachable from in-bounds trace ops).
  {
    std::vector<std::uint64_t> init(
        static_cast<std::size_t>(cfg.height * cfg.width), 0);
    for (std::int64_t i = 0; i < trace.height; ++i)
      for (std::int64_t j = 0; j < trace.width; ++j)
        init[static_cast<std::size_t>(i * cfg.width + j)] =
            sched::canonical_cell(trace.seed, trace.width, {i, j});
    mem.fill_rect({0, 0}, cfg.height, cfg.width, init);
  }

  Mirror mirror(trace);
  ReplayReport report;
  report.scheme = opts.scheme;
  OpData data;
  const auto lanes = static_cast<std::int64_t>(trace.p) * trace.q;

  for (std::size_t k = 0; k < trace.ops.size(); ++k) {
    const TraceOp& op = trace.ops[k];
    const auto op_index = static_cast<std::int64_t>(k);
    const core::AccessBatch batch = op.batch();
    const bool batched = mem.serves(batch);
    ++report.ops;
    (op.dir == TraceOp::Dir::kRead ? report.reads : report.writes) +=
        op.count;
    (batched ? report.batched_accesses : report.fallback_accesses) +=
        op.count;

    // The host backdoor checks the padded space only: bounds-check an
    // unserved op against the unpadded trace space before it runs.
    if (!batched)
      for (std::int64_t t = 0; t < op.count; ++t)
        mirror.expand(op, t, op_index);
    if (op.dir == TraceOp::Dir::kRead) {
      data.words.resize(static_cast<std::size_t>(op.count * lanes));
      if (batched) {
        const unsigned port =
            static_cast<unsigned>(k) % std::max(1u, opts.read_ports);
        mem.read_batch(batch, port, data.words);
      } else {
        mem.load_batch(batch, data.words);
      }
      check_read(data.words, mirror, op, op_index, report);
    } else {
      data.fill_write(trace, op, op_index);
      if (batched) {
        mem.write_batch(batch, data.words);
      } else {
        mem.store_batch(batch, data.words);
      }
      apply_write(data.words, mirror, op, op_index);
    }
    check_checksum(data.words, op, opts, report);
  }

  // End-state differential: the full trace-space image must match the
  // mirror bit for bit, whatever mix of engines served the ops.
  std::vector<std::uint64_t> image(
      static_cast<std::size_t>(trace.height * trace.width));
  for (std::int64_t i = 0; i < trace.height; ++i)
    mem.dump_rect({i, 0}, 1, trace.width,
                  std::span<std::uint64_t>(image).subspan(
                      static_cast<std::size_t>(i * trace.width),
                      static_cast<std::size_t>(trace.width)));
  report.final_image_ok = image == mirror.cells();
  return report;
}

ReplayReport replay_adaptive(const RecordedTrace& trace,
                             const ReplayOptions& opts) {
  const core::PolyMemConfig cfg = direct_config(trace, opts);

  adapt::AdaptiveOptions aopts;
  aopts.verify_migrations = true;
  aopts.profiler.window =
      opts.adaptive_window > 0
          ? opts.adaptive_window
          : std::clamp<std::int64_t>(trace.accesses() / 6, 64, 4096);
  adapt::AdaptiveMatrix mat(cfg, aopts);

  {
    std::vector<std::uint64_t> init(
        static_cast<std::size_t>(cfg.height * cfg.width), 0);
    for (std::int64_t i = 0; i < trace.height; ++i)
      for (std::int64_t j = 0; j < trace.width; ++j)
        init[static_cast<std::size_t>(i * cfg.width + j)] =
            sched::canonical_cell(trace.seed, trace.width, {i, j});
    mat.fill_rect({0, 0}, cfg.height, cfg.width, init);
  }

  Mirror mirror(trace);
  ReplayReport report;
  report.scheme = opts.scheme;
  report.adaptive = true;
  OpData data;
  const auto lanes = static_cast<std::int64_t>(trace.p) * trace.q;

  for (std::size_t k = 0; k < trace.ops.size(); ++k) {
    const TraceOp& op = trace.ops[k];
    const auto op_index = static_cast<std::int64_t>(k);
    ++report.ops;
    (op.dir == TraceOp::Dir::kRead ? report.reads : report.writes) +=
        op.count;

    // Bounds-check against the unpadded trace space before the engine
    // sees the op (the engine's own checks run on the padded space).
    for (std::int64_t t = 0; t < op.count; ++t) mirror.expand(op, t, op_index);

    // The adaptive engine decides batched vs fallback internally, per its
    // *current* scheme; both paths produce canonical lane order.
    data.words.resize(static_cast<std::size_t>(op.count * lanes));
    if (op.dir == TraceOp::Dir::kRead) {
      mat.read_batch(op.batch(), data.words);
      check_read(data.words, mirror, op, op_index, report);
    } else {
      data.fill_write(trace, op, op_index);
      mat.write_batch(op.batch(), data.words);
      apply_write(data.words, mirror, op, op_index);
    }
    check_checksum(data.words, op, opts, report);
  }

  const adapt::AdaptiveStats astats = mat.stats();
  report.batched_accesses = static_cast<std::int64_t>(astats.batched_accesses);
  report.fallback_accesses =
      static_cast<std::int64_t>(astats.fallback_accesses);
  report.final_scheme = astats.scheme;
  report.migrations = static_cast<std::int64_t>(astats.migrations_completed);
  report.migrations_aborted =
      static_cast<std::int64_t>(astats.migrations_aborted);
  report.migration_mismatches =
      static_cast<std::int64_t>(astats.mismatched_words);

  std::vector<std::uint64_t> image(
      static_cast<std::size_t>(trace.height * trace.width));
  for (std::int64_t i = 0; i < trace.height; ++i)
    mat.dump_rect({i, 0}, 1, trace.width,
                  std::span<std::uint64_t>(image).subspan(
                      static_cast<std::size_t>(i * trace.width),
                      static_cast<std::size_t>(trace.width)));
  report.final_image_ok = image == mirror.cells();
  return report;
}

ReplayReport replay_cached(const RecordedTrace& trace,
                           const ReplayOptions& opts) {
  // The on-chip memory is deliberately smaller than the trace space
  // (that is the point of the cache path): four full-width row-panel
  // frames over a modest scheme-typed PolyMem.
  core::PolyMemConfig cfg;
  cfg.scheme = opts.scheme;
  cfg.p = trace.p;
  cfg.q = trace.q;
  cfg.height = 8 * trace.p;
  cfg.width = pad_to(std::min<std::int64_t>(trace.width, 64), trace.q);
  cfg.validate();
  core::PolyMem mem(cfg);

  const std::uint64_t bytes = static_cast<std::uint64_t>(trace.height) *
                              static_cast<std::uint64_t>(trace.width) * 8;
  maxsim::LMem lmem(std::max<std::uint64_t>(bytes, 1u << 20));
  const maxsim::LMemMatrix matrix{0, trace.height, trace.width,
                                  trace.width};
  {
    std::vector<std::uint64_t> row(static_cast<std::size_t>(trace.width));
    for (std::int64_t i = 0; i < trace.height; ++i) {
      for (std::int64_t j = 0; j < trace.width; ++j)
        row[static_cast<std::size_t>(j)] =
            sched::canonical_cell(trace.seed, trace.width, {i, j});
      lmem.write(matrix.word_addr(i, 0), row);
    }
  }
  cache::CachedMatrix cached(
      lmem, mem, matrix,
      core::FramePool::whole_space(cfg, 2 * trace.p, cfg.width),
      {.write_policy = opts.write_policy});

  Mirror mirror(trace);
  ReplayReport report;
  report.scheme = opts.scheme;
  report.through_cache = true;
  OpData data;
  const auto lanes = static_cast<std::int64_t>(trace.p) * trace.q;

  for (std::size_t k = 0; k < trace.ops.size(); ++k) {
    const TraceOp& op = trace.ops[k];
    const auto op_index = static_cast<std::int64_t>(k);
    const access::PatternExtent ext =
        access::pattern_extent(op.kind, trace.p, trace.q);
    const bool block_shape = op.kind == PatternKind::kRow ||
                             op.kind == PatternKind::kCol ||
                             op.kind == PatternKind::kRect ||
                             op.kind == PatternKind::kTRect;
    ++report.ops;
    (op.dir == TraceOp::Dir::kRead ? report.reads : report.writes) +=
        op.count;
    // Only full-lane rows can ride the cache's batched row path; every
    // other shape is served element-by-element inside CachedMatrix.
    (op.kind == PatternKind::kRow ? report.batched_accesses
                                  : report.fallback_accesses) += op.count;

    data.words.resize(static_cast<std::size_t>(op.count * lanes));
    if (op.dir == TraceOp::Dir::kWrite)
      data.fill_write(trace, op, op_index);
    for (std::int64_t t = 0; t < op.count; ++t) {
      mirror.expand(op, t, op_index);  // bounds check before touching
      const Coord a{op.anchor.i + t * op.stride.i,
                    op.anchor.j + t * op.stride.j};
      const auto span = std::span<std::uint64_t>(data.words)
                            .subspan(static_cast<std::size_t>(t * lanes),
                                     static_cast<std::size_t>(lanes));
      if (op.dir == TraceOp::Dir::kRead) {
        if (block_shape)
          cached.read_block(a.i, a.j + ext.col_offset, ext.rows, ext.cols,
                            span);
        else
          for (std::int64_t l = 0; l < lanes; ++l)
            span[static_cast<std::size_t>(l)] =
                cached.read(mirror.coords()[static_cast<std::size_t>(l)].i,
                            mirror.coords()[static_cast<std::size_t>(l)].j);
      } else {
        if (block_shape)
          cached.write_block(a.i, a.j + ext.col_offset, ext.rows, ext.cols,
                             span);
        else
          for (std::int64_t l = 0; l < lanes; ++l)
            cached.write(mirror.coords()[static_cast<std::size_t>(l)].i,
                         mirror.coords()[static_cast<std::size_t>(l)].j,
                         span[static_cast<std::size_t>(l)]);
      }
    }
    if (op.dir == TraceOp::Dir::kRead)
      check_read(data.words, mirror, op, op_index, report);
    else
      apply_write(data.words, mirror, op, op_index);
    check_checksum(data.words, op, opts, report);
  }

  cached.flush();
  report.cache_stats = cached.stats();

  std::vector<std::uint64_t> image(
      static_cast<std::size_t>(trace.height * trace.width));
  for (std::int64_t i = 0; i < trace.height; ++i)
    lmem.read(matrix.word_addr(i, 0),
              std::span<std::uint64_t>(image).subspan(
                  static_cast<std::size_t>(i * trace.width),
                  static_cast<std::size_t>(trace.width)));
  report.final_image_ok = image == mirror.cells();
  return report;
}

}  // namespace

std::string ReplayReport::summary() const {
  std::ostringstream out;
  out << maf::scheme_name(scheme)
      << (adaptive ? " adaptive" : (through_cache ? " cached" : " direct"))
      << ": " << ops << " ops (" << reads << "R/" << writes << "W), "
      << batched_accesses + fallback_accesses << " accesses ("
      << batched_accesses << " batched, " << fallback_accesses
      << " fallback), ";
  if (adaptive)
    out << migrations << " migrations (" << migrations_aborted
        << " aborted) -> " << maf::scheme_name(final_scheme) << ", ";
  out << "checksums " << checksums_checked - checksum_mismatches << "/"
      << checksums_checked << " ok, " << data_mismatches
      << " data mismatches, image " << (final_image_ok ? "ok" : "DIVERGED");
  return out.str();
}

ReplayReport replay(const RecordedTrace& trace, const ReplayOptions& opts) {
  POLYMEM_REQUIRE(trace.height >= 1 && trace.width >= 1,
                  "trace has an empty address space");
  POLYMEM_REQUIRE(!(opts.adaptive && opts.through_cache),
                  "adaptive replay does not route through the cache");
  if (opts.adaptive) return replay_adaptive(trace, opts);
  return opts.through_cache ? replay_cached(trace, opts)
                            : replay_direct(trace, opts);
}

verify::LintReport relint(const RecordedTrace& trace, maf::Scheme scheme) {
  core::PolyMemConfig cfg;
  cfg.scheme = scheme;
  cfg.p = trace.p;
  cfg.q = trace.q;
  cfg.height = pad_to(trace.height, trace.p);
  cfg.width = pad_to(trace.width, trace.q);

  std::vector<verify::BatchOp> ops;
  ops.reserve(trace.ops.size());
  for (const TraceOp& op : trace.ops)
    ops.push_back({op.dir == TraceOp::Dir::kRead
                       ? verify::BatchOp::Dir::kRead
                       : verify::BatchOp::Dir::kWrite,
                   op.batch(),
                   std::nullopt});
  verify::LintReport report = verify::lint_program(cfg, ops);
  if (!trace.ops.empty()) {
    const verify::LintReport elems =
        verify::lint_trace(cfg, trace.access_trace());
    report.diagnostics.insert(report.diagnostics.end(),
                              elems.diagnostics.begin(),
                              elems.diagnostics.end());
  }
  return report;
}

}  // namespace polymem::replay
