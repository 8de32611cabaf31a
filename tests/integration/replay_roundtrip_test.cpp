// End-to-end record -> serialize -> parse -> replay round trips: every
// application records its access trace, the text format round-trips it,
// and the replay harness reproduces the canonical checksums bit for bit
// on ALL five schemes (batched where supported, scalar fallback where
// not) and through the software cache. This is the tentpole oracle: one
// recording, every polymorphic configuration, zero divergence. The
// ServiceReplay suite drives the same replay loop over a ServiceEngine.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/fft_twiddle_app.hpp"
#include "apps/histogram_app.hpp"
#include "apps/matvec_app.hpp"
#include "apps/stencil_app.hpp"
#include "apps/tiled_gemm_app.hpp"
#include "apps/transpose_app.hpp"
#include "replay/replay.hpp"
#include "service/engine.hpp"

namespace polymem {
namespace {

struct Recording {
  std::string app;
  sched::RecordedTrace trace;
};

// Runs every app at a small size with a recorder attached; each returned
// trace is verified app-side before it gets here.
std::vector<Recording> record_all_apps() {
  std::vector<Recording> out;

  {
    apps::TiledGemmApp app(8);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    std::vector<double> a(64), b(64);
    for (std::size_t k = 0; k < 64; ++k) {
      a[k] = 0.5 * static_cast<double>(k % 7);
      b[k] = 1.0 - 0.25 * static_cast<double>(k % 5);
    }
    app.load(a, b);
    EXPECT_TRUE(app.run().verified);
    out.push_back({"tiled_gemm", rec.finish()});
  }
  {
    apps::StencilApp app(16);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    std::vector<double> grid(256);
    for (std::size_t k = 0; k < grid.size(); ++k)
      grid[k] = 0.01 * static_cast<double>(k);
    app.load_grid(grid);
    EXPECT_TRUE(app.run().verified);
    out.push_back({"stencil", rec.finish()});
  }
  {
    apps::TransposeApp app(8);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    std::vector<hw::Word> src(64);
    std::iota(src.begin(), src.end(), 0u);
    app.load_source(src);
    EXPECT_TRUE(app.run().verified);
    out.push_back({"transpose", rec.finish()});
  }
  {
    apps::FftTwiddleApp app(8);
    auto data_rec = app.make_data_recorder();
    auto rom_rec = app.make_rom_recorder();
    app.set_recorders(&data_rec, &rom_rec);
    std::vector<double> src(64);
    for (std::size_t k = 0; k < src.size(); ++k)
      src[k] = 0.3 * static_cast<double>(k) - 9.0;
    app.load(src);
    EXPECT_TRUE(app.run().verified);
    out.push_back({"fft_twiddle_data", data_rec.finish()});
    out.push_back({"fft_twiddle_rom", rom_rec.finish()});
  }
  {
    apps::HistogramScatterApp app(16, 4);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    EXPECT_TRUE(app.run(64, 11).verified);
    out.push_back({"histogram", rec.finish()});
  }
  {
    apps::MatVecApp app(16);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    std::vector<double> a(256, 0.25);
    app.load_matrix(a);
    std::vector<double> x(16, 2.0), y(16);
    EXPECT_TRUE(app.run(x, y).verified);
    out.push_back({"matvec", rec.finish()});
  }
  return out;
}

TEST(ReplayRoundTrip, EveryAppOnEverySchemeBitIdentical) {
  for (const Recording& r : record_all_apps()) {
    ASSERT_FALSE(r.trace.ops.empty()) << r.app;
    // Serialize -> parse: the text format carries the whole recording.
    const sched::RecordedTrace parsed =
        sched::parse_trace_text(sched::trace_to_string(r.trace));
    ASSERT_EQ(parsed, r.trace) << r.app;

    for (maf::Scheme scheme : maf::kAllSchemes) {
      replay::ReplayOptions options;
      options.scheme = scheme;
      const replay::ReplayReport report = replay::replay(parsed, options);
      EXPECT_TRUE(report.verified())
          << r.app << " on " << maf::scheme_name(scheme) << ": "
          << report.summary();
      EXPECT_EQ(report.checksums_checked,
                static_cast<std::int64_t>(parsed.ops.size()))
          << r.app;
      EXPECT_EQ(report.checksum_mismatches, 0) << r.app;
      EXPECT_EQ(report.data_mismatches, 0) << r.app;
    }
  }
}

TEST(ReplayRoundTrip, EveryAppThroughTheSoftwareCache) {
  for (const Recording& r : record_all_apps()) {
    replay::ReplayOptions options;
    options.scheme = maf::Scheme::kReRo;
    options.through_cache = true;
    const replay::ReplayReport report = replay::replay(r.trace, options);
    EXPECT_TRUE(report.verified()) << r.app << ": " << report.summary();
    EXPECT_GT(report.cache_stats.kernel_accesses, 0u) << r.app;

    replay::ReplayOptions through;
    through.scheme = maf::Scheme::kReRo;
    through.through_cache = true;
    through.write_policy = cache::WritePolicy::kWriteThrough;
    EXPECT_TRUE(replay::replay(r.trace, through).verified())
        << r.app << " (write-through)";
  }
}

TEST(ReplayRoundTrip, MultiPortReplayStaysVerified) {
  for (const Recording& r : record_all_apps()) {
    replay::ReplayOptions options;
    options.scheme = maf::Scheme::kReTr;
    options.read_ports = 2;
    EXPECT_TRUE(replay::replay(r.trace, options).verified()) << r.app;
  }
}

TEST(ReplayRoundTrip, CorruptedChecksumIsCaughtNotCrashed) {
  apps::TiledGemmApp app(8);
  auto rec = app.make_recorder();
  app.set_recorder(&rec);
  std::vector<double> a(64, 1.0), b(64, 2.0);
  app.load(a, b);
  ASSERT_TRUE(app.run().verified);
  sched::RecordedTrace trace = rec.finish();
  *trace.ops.front().checksum ^= 1;  // flip one recorded bit

  replay::ReplayOptions options;
  options.scheme = maf::Scheme::kReRo;
  const replay::ReplayReport report = replay::replay(trace, options);
  EXPECT_FALSE(report.verified());
  EXPECT_EQ(report.checksum_mismatches, 1);
  EXPECT_EQ(report.data_mismatches, 0);  // the data itself was fine
}

TEST(ReplayRoundTrip, RelintRecoversDiagnosticsFromTheTraceAlone) {
  // The histogram's recorded column trace, re-linted with no access to
  // the app: unsupported on ReRo, clean (errors-wise) on RoCo.
  apps::HistogramScatterApp app(16, 4);
  auto rec = app.make_recorder();
  app.set_recorder(&rec);
  ASSERT_TRUE(app.run(64, 11).verified);
  const sched::RecordedTrace trace = rec.finish();

  const auto on_rero = replay::relint(trace, maf::Scheme::kReRo);
  EXPECT_GT(on_rero.errors(), 0u);
  const auto on_roco = replay::relint(trace, maf::Scheme::kRoCo);
  EXPECT_EQ(on_roco.errors(), 0u);
}

// ---- ServiceEngine under the replay loop ----------------------------------

/// The submit a ServiceBackend could not get accepted: op, access, status.
struct Refused {
  std::size_t op = 0;
  std::int64_t access = 0;
  service::Status status = service::Status::kAccepted;
};

/// A replay backend over one PolyMem and a manually pumped ServiceEngine:
/// one request per access, read data copied out of each completion by
/// tag, and each op pumped to idle before the next, so the engine serves
/// the trace in order. Throws Refused at the first submit it cannot get
/// accepted (a full queue is pumped and retried).
class ServiceBackend final : public replay::Backend,
                             public service::CompletionListener {
 public:
  ServiceBackend(const sched::RecordedTrace& trace, maf::Scheme scheme)
      : mem_(config(trace, scheme)),
        engine_(mem_),
        height_(trace.height),
        width_(trace.width) {
    mem_.fill_rect({0, 0}, height_, width_, sched::canonical_image(trace));
  }

  /// The first access (op, index in the op) of `trace` the scheme does not
  /// serve, or nullopt when PolyMem::serves accepts every op.
  std::optional<std::pair<std::size_t, std::int64_t>> first_unserved(
      const sched::RecordedTrace& trace) const {
    for (std::size_t k = 0; k < trace.ops.size(); ++k) {
      const core::AccessBatch batch = trace.ops[k].batch();
      if (mem_.serves(batch)) continue;
      for (std::int64_t t = 0; t < batch.count(); ++t) {
        const access::ParallelAccess a = batch.access(t);
        if (!mem_.serves(core::AccessBatch::strided(a.kind, a.anchor, {}, 1)))
          return std::make_pair(k, t);
      }
    }
    return std::nullopt;
  }

  void read(const sched::TraceOp& op, std::size_t k,
            std::span<hw::Word> out) override {
    EXPECT_EQ(k, op_);
    out_ = out;
    serve(op, service::Op::kRead, {});
  }

  void write(const sched::TraceOp& op,
             std::span<const hw::Word> data) override {
    serve(op, service::Op::kWrite, data);
  }

  void finish(std::span<hw::Word> image,
              replay::ReplayReport& report) override {
    mem_.dump_rect({0, 0}, height_, width_, image);
    const service::EngineStats stats = engine_.stats();
    report.batched_accesses += static_cast<std::int64_t>(
        stats.compiled_requests);
    report.fallback_accesses += static_cast<std::int64_t>(
        stats.fallback_accesses);
  }

  void on_complete(const service::Completion& c) override {
    EXPECT_EQ(c.status, service::Status::kOk);
    ++completed_;
    if (c.op == service::Op::kRead)
      std::copy(c.data.begin(), c.data.end(),
                out_.begin() + static_cast<std::ptrdiff_t>(c.tag * lanes()));
  }

 private:
  static core::PolyMemConfig config(const sched::RecordedTrace& trace,
                                    maf::Scheme scheme) {
    core::PolyMemConfig cfg;
    cfg.scheme = scheme;
    cfg.p = trace.p;
    cfg.q = trace.q;
    cfg.height = (trace.height + trace.p - 1) / trace.p * trace.p;
    cfg.width = (trace.width + trace.q - 1) / trace.q * trace.q;
    return cfg;
  }

  std::size_t lanes() const { return mem_.lanes(); }

  void serve(const sched::TraceOp& op, service::Op dir,
             std::span<const hw::Word> data) {
    const core::AccessBatch batch = op.batch();
    for (std::int64_t t = 0; t < op.count; ++t) {
      service::Request request{0, dir, batch.access(t),
                               static_cast<std::uint64_t>(t), this, {}};
      if (dir == service::Op::kWrite) {
        const auto lane_words = data.subspan(
            static_cast<std::size_t>(t) * lanes(), lanes());
        request.payload.assign(lane_words.begin(), lane_words.end());
      }
      service::Status status;
      // A full queue hands the request back intact: drain, then retry.
      while ((status = engine_.submit(0, std::move(request))) ==
             service::Status::kOverloaded)
        engine_.run_until_idle();
      ++submitted_;
      if (status != service::Status::kAccepted) {
        engine_.run_until_idle();
        throw Refused{op_, t, status};
      }
    }
    engine_.run_until_idle();
    EXPECT_EQ(completed_, submitted_);
    ++op_;
  }

  core::PolyMem mem_;
  service::ServiceEngine engine_;
  std::int64_t height_, width_;
  std::span<hw::Word> out_;
  std::size_t op_ = 0;
  std::int64_t submitted_ = 0, completed_ = 0;
};

/// Replays `trace` through a ServiceBackend on every scheme: bit-identical
/// where the scheme serves every op, refused with kRejected at the first
/// unserved access elsewhere. Returns the schemes that verified.
std::set<maf::Scheme> replay_through_service(
    const std::string& name, const sched::RecordedTrace& trace) {
  std::set<maf::Scheme> verified;
  for (maf::Scheme scheme : maf::kAllSchemes) {
    ServiceBackend backend(trace, scheme);
    const auto unserved = backend.first_unserved(trace);
    replay::ReplayOptions options;
    options.scheme = scheme;
    const std::string where = name + " on " + maf::scheme_name(scheme);
    if (!unserved) {
      const replay::ReplayReport report =
          replay::replay(trace, backend, options);
      EXPECT_TRUE(report.verified()) << where << ": " << report.summary();
      EXPECT_EQ(report.checksums_checked,
                static_cast<std::int64_t>(trace.ops.size()))
          << where;
      EXPECT_EQ(report.batched_accesses + report.fallback_accesses,
                trace.accesses())
          << where;
      if (report.verified()) verified.insert(scheme);
      continue;
    }
    try {
      replay::replay(trace, backend, options);
      ADD_FAILURE() << where << ": replayed past an unserved access";
    } catch (const Refused& refused) {
      EXPECT_EQ(refused.op, unserved->first) << where;
      EXPECT_EQ(refused.access, unserved->second) << where;
      EXPECT_EQ(refused.status, service::Status::kRejected) << where;
    }
  }
  return verified;
}

TEST(ServiceReplay, CommittedTracesVerifyWhereEveryOpIsServed) {
  using maf::Scheme;
  const std::pair<const char*, std::set<Scheme>> expected[] = {
      {"histogram_16bins", {Scheme::kReCo, Scheme::kRoCo}},
      {"padded_15x10", {}},
      {"phase_change_64x64", {}},
      {"transpose_8x8", {Scheme::kReTr}},
  };
  for (const auto& [name, schemes] : expected) {
    const sched::RecordedTrace trace = sched::parse_trace_file(
        std::string(POLYMEM_TEST_DATA_DIR) + "/" + name + ".trace");
    EXPECT_EQ(replay_through_service(name, trace), schemes) << name;
  }
}

/// Serves through `inner` but flips bit 0 of the first word op `k` moves
/// (ops counted in the order the loop hands them over).
class FlipOneWord final : public replay::Backend {
 public:
  FlipOneWord(replay::Backend& inner, std::size_t k) : inner_(inner), k_(k) {}

  void read(const sched::TraceOp& op, std::size_t k,
            std::span<hw::Word> out) override {
    inner_.read(op, k, out);
    if (op_++ == k_) out[0] ^= 1;
  }

  void write(const sched::TraceOp& op,
             std::span<const hw::Word> data) override {
    std::vector<hw::Word> words(data.begin(), data.end());
    if (op_++ == k_) words[0] ^= 1;
    inner_.write(op, words);
  }

  void finish(std::span<hw::Word> image,
              replay::ReplayReport& report) override {
    inner_.finish(image, report);
  }

 private:
  replay::Backend& inner_;
  std::size_t k_;
  std::size_t op_ = 0;
};

TEST(ServiceReplay, TheLoopCountsEveryDivergence) {
  const sched::RecordedTrace trace = sched::parse_trace_file(
      std::string(POLYMEM_TEST_DATA_DIR) + "/transpose_8x8.trace");
  replay::ReplayOptions options;
  options.scheme = maf::Scheme::kReTr;
  const auto op_index = [&](sched::TraceOp::Dir dir) {
    return static_cast<std::size_t>(
        std::find_if(trace.ops.begin(), trace.ops.end(),
                     [&](const sched::TraceOp& op) { return op.dir == dir; }) -
        trace.ops.begin());
  };

  // A wrong read word: one data and one checksum mismatch, image intact.
  ServiceBackend read_service(trace, options.scheme);
  FlipOneWord bad_read(read_service, op_index(sched::TraceOp::Dir::kRead));
  const replay::ReplayReport read =
      replay::replay(trace, bad_read, options);
  EXPECT_EQ(read.data_mismatches, 1);
  EXPECT_EQ(read.checksum_mismatches, 1);
  EXPECT_TRUE(read.final_image_ok);
  EXPECT_FALSE(read.verified());

  // A wrong stored word: the final image diverges from the host's.
  ServiceBackend write_service(trace, options.scheme);
  FlipOneWord bad_write(write_service, op_index(sched::TraceOp::Dir::kWrite));
  const replay::ReplayReport write =
      replay::replay(trace, bad_write, options);
  EXPECT_FALSE(write.final_image_ok);
  EXPECT_FALSE(write.verified());
}

TEST(ServiceReplay, EveryAppRecordingVerifiesWhereEveryOpIsServed) {
  for (const Recording& r : record_all_apps()) {
    const std::set<maf::Scheme> verified =
        replay_through_service(r.app, r.trace);
    // Aligned 2x4/4x2 rectangles are conflict-free on all five schemes.
    if (r.app == "tiled_gemm") {
      EXPECT_EQ(verified.size(), 5u);
    }
  }
}

}  // namespace
}  // namespace polymem
