#include "replay/replay.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <type_traits>
#include <vector>

#include "adapt/adaptive_matrix.hpp"
#include "common/error.hpp"
#include "core/polymem.hpp"
#include "maxsim/lmem.hpp"

namespace polymem::replay {

using access::PatternKind;
using core::Word;
using sched::RecordedTrace;
using sched::TraceOp;

namespace {

std::int64_t pad_to(std::int64_t x, std::int64_t m) {
  return (x + m - 1) / m * m;
}

/// The trace's geometry over its space padded to whole p x q tiles.
core::PolyMemConfig padded_config(const RecordedTrace& trace,
                                  maf::Scheme scheme, unsigned read_ports) {
  core::PolyMemConfig cfg;
  cfg.scheme = scheme;
  cfg.p = trace.p;
  cfg.q = trace.q;
  cfg.read_ports = std::max(1u, read_ports);
  cfg.height = pad_to(trace.height, trace.p);
  cfg.width = pad_to(trace.width, trace.q);
  return cfg;
}

/// A resident PolyMem: the batched engine where the scheme serves the
/// op, the batch host backdoor where it does not.
class DirectBackend final : public Backend {
 public:
  DirectBackend(const RecordedTrace& trace, const ReplayOptions& opts)
      : mem_(padded_config(trace, opts.scheme, opts.read_ports)),
        height_(trace.height),
        width_(trace.width) {
    mem_.fill_rect({0, 0}, height_, width_, sched::canonical_image(trace));
  }

  void read(const TraceOp& op, std::size_t k, std::span<Word> out) override {
    const core::AccessBatch batch = op.batch();
    if (served(batch))
      mem_.read_batch(batch, static_cast<unsigned>(k % ports()), out);
    else
      mem_.load_batch(batch, out);
  }

  void write(const TraceOp& op, std::span<const Word> data) override {
    const core::AccessBatch batch = op.batch();
    if (served(batch))
      mem_.write_batch(batch, data);
    else
      mem_.store_batch(batch, data);
  }

  void finish(std::span<Word> image, ReplayReport& report) override {
    mem_.dump_rect({0, 0}, height_, width_, image);
    report.batched_accesses += batched_;
    report.fallback_accesses += fallback_;
  }

 private:
  std::size_t ports() const { return mem_.config().read_ports; }
  /// PolyMem::serves, counting the batch's accesses as batched or not.
  bool served(const core::AccessBatch& batch) {
    const bool yes = mem_.serves(batch);
    (yes ? batched_ : fallback_) += batch.count();
    return yes;
  }

  core::PolyMem mem_;
  std::int64_t height_, width_;
  std::int64_t batched_ = 0, fallback_ = 0;
};

/// An AdaptiveMatrix, which picks batched or fallback per its current
/// scheme and migrates inside the op that triggers it.
class AdaptiveBackend final : public Backend {
 public:
  AdaptiveBackend(const RecordedTrace& trace, const ReplayOptions& opts)
      : mat_(padded_config(trace, opts.scheme, opts.read_ports),
             options(trace, opts.adaptive_window)),
        height_(trace.height),
        width_(trace.width) {
    mat_.fill_rect({0, 0}, height_, width_, sched::canonical_image(trace));
  }

  void read(const TraceOp& op, std::size_t, std::span<Word> out) override {
    mat_.read_batch(op.batch(), out);
  }

  void write(const TraceOp& op, std::span<const Word> data) override {
    mat_.write_batch(op.batch(), data);
  }

  void finish(std::span<Word> image, ReplayReport& report) override {
    mat_.dump_rect({0, 0}, height_, width_, image);
    const adapt::AdaptiveStats s = mat_.stats();
    report.adaptive = true;
    report.batched_accesses += static_cast<std::int64_t>(s.batched_accesses);
    report.fallback_accesses +=
        static_cast<std::int64_t>(s.fallback_accesses);
    report.final_scheme = s.scheme;
    report.migrations = static_cast<std::int64_t>(s.migrations_completed);
    report.migrations_aborted =
        static_cast<std::int64_t>(s.migrations_aborted);
    report.migration_mismatches =
        static_cast<std::int64_t>(s.mismatched_words);
  }

 private:
  static adapt::AdaptiveOptions options(const RecordedTrace& trace,
                                        std::int64_t window) {
    adapt::AdaptiveOptions aopts;
    aopts.profiler.window =
        window > 0 ? window
                   : std::clamp<std::int64_t>(trace.accesses() / 6, 64, 4096);
    return aopts;
  }

  adapt::AdaptiveMatrix mat_;
  std::int64_t height_, width_;
};

/// A CachedMatrix over LMem (the out-of-core path). The on-chip memory is
/// deliberately smaller than the trace space — that is the point of the
/// cache path: four full-width row-panel frames over a modest
/// scheme-typed PolyMem.
class CachedBackend final : public Backend {
 public:
  CachedBackend(const RecordedTrace& trace, const ReplayOptions& opts)
      : trace_(trace),
        mem_(on_chip_config(trace, opts.scheme)),
        lmem_(std::max<std::uint64_t>(
            static_cast<std::uint64_t>(trace.height * trace.width) * 8,
            1u << 20)),
        // The trace-space matrix lies row-major from LMem word 0.
        cached_(lmem_, mem_, {0, trace.height, trace.width, trace.width},
                core::FramePool::whole_space(mem_.config(), 2 * trace.p,
                                             mem_.config().width),
                {.write_policy = opts.write_policy}) {
    lmem_.write(0, sched::canonical_image(trace));
  }

  void read(const TraceOp& op, std::size_t, std::span<Word> out) override {
    serve(op, out);
  }

  void write(const TraceOp& op, std::span<const Word> data) override {
    serve(op, data);
  }

  void finish(std::span<Word> image, ReplayReport& report) override {
    cached_.flush();
    lmem_.read(0, image);
    report.through_cache = true;
    report.batched_accesses += batched_;
    report.fallback_accesses += fallback_;
    report.cache_stats = cached_.stats();
  }

 private:
  static core::PolyMemConfig on_chip_config(const RecordedTrace& trace,
                                            maf::Scheme scheme) {
    core::PolyMemConfig cfg = padded_config(trace, scheme, 1);
    cfg.height = 8 * trace.p;
    cfg.width = pad_to(std::min<std::int64_t>(trace.width, 64), trace.q);
    return cfg;
  }

  /// Reads into `words` (W = Word) or writes them (W = const Word):
  /// row, column and rectangle accesses as blocks, the rest element by
  /// element.
  template <typename W>
  void serve(const TraceOp& op, std::span<W> words) {
    constexpr bool kWrite = std::is_const_v<W>;
    const access::PatternExtent ext =
        access::pattern_extent(op.kind, trace_.p, trace_.q);
    const bool block = op.kind == PatternKind::kRow ||
                       op.kind == PatternKind::kCol ||
                       op.kind == PatternKind::kRect ||
                       op.kind == PatternKind::kTRect;
    // Only full-lane rows can ride the cache's batched row path; every
    // other shape is served element by element inside CachedMatrix.
    (op.kind == PatternKind::kRow ? batched_ : fallback_) += op.count;
    const auto lanes = static_cast<std::size_t>(trace_.p) * trace_.q;
    const core::AccessBatch batch = op.batch();
    for (std::int64_t t = 0; t < op.count; ++t) {
      const access::ParallelAccess a = batch.access(t);
      const std::span<W> lane =
          words.subspan(static_cast<std::size_t>(t) * lanes, lanes);
      const std::int64_t j = a.anchor.j + ext.col_offset;
      if (!block) {
        access::expand_into(a, trace_.p, trace_.q, coords_);
        for (std::size_t l = 0; l < lanes; ++l) {
          if constexpr (kWrite)
            cached_.write(coords_[l].i, coords_[l].j, lane[l]);
          else
            lane[l] = cached_.read(coords_[l].i, coords_[l].j);
        }
      } else if constexpr (kWrite) {
        cached_.write_block(a.anchor.i, j, ext.rows, ext.cols, lane);
      } else {
        cached_.read_block(a.anchor.i, j, ext.rows, ext.cols, lane);
      }
    }
  }

  const RecordedTrace& trace_;  // the caller's; outlives this backend
  core::PolyMem mem_;
  maxsim::LMem lmem_;
  cache::CachedMatrix cached_;
  std::vector<access::Coord> coords_;
  std::int64_t batched_ = 0, fallback_ = 0;
};

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
  std::unique_ptr<Backend> backend;
  if (opts.adaptive)
    backend = std::make_unique<AdaptiveBackend>(trace, opts);
  else if (opts.through_cache)
    backend = std::make_unique<CachedBackend>(trace, opts);
  else
    backend = std::make_unique<DirectBackend>(trace, opts);
  return replay(trace, *backend, opts);
}

ReplayReport replay(const RecordedTrace& trace, Backend& backend,
                    const ReplayOptions& opts) {
  ReplayReport report;
  report.scheme = opts.scheme;
  const auto check_checksum = [&](const TraceOp& op,
                                  std::span<const Word> words) {
    if (!opts.verify_checksums || !op.checksum) return;
    ++report.checksums_checked;
    if (sched::fnv1a(words.data(), words.size()) != *op.checksum)
      ++report.checksum_mismatches;
  };
  std::vector<Word> got;
  const sched::HostReplay host = sched::host_replay(
      trace, [&](std::size_t k, std::span<const Word> words) {
        const TraceOp& op = trace.ops[k];
        ++report.ops;
        if (op.dir == TraceOp::Dir::kWrite) {
          report.writes += op.count;
          backend.write(op, words);
          check_checksum(op, words);
          return;
        }
        report.reads += op.count;
        got.resize(words.size());
        backend.read(op, k, got);
        for (std::size_t w = 0; w < got.size(); ++w)
          report.data_mismatches += got[w] != words[w] ? 1 : 0;
        check_checksum(op, got);
      });

  // End-state differential: the full trace-space image must match the
  // host's bit for bit, whatever mix of engines served the ops.
  std::vector<Word> image(host.memory.size());
  backend.finish(image, report);
  report.final_image_ok = image == host.memory;
  return report;
}

verify::LintReport relint(const RecordedTrace& trace, maf::Scheme scheme) {
  const core::PolyMemConfig cfg = padded_config(trace, scheme, 1);
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
