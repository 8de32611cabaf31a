// Application-suite benchmark runner; emits BENCH_apps.json (committed
// at the repo root).
//
// EXTENSION: application kernels on the PolyMem engines — the
// "proof-of-concept, systematic use of MAX-PolyMem for more complex
// applications" the paper's conclusion announces as future work. Six
// kernels span the Table-I pattern families: transpose (ReTr
// rect/trect), 9-point stencil (ReO unaligned rects), matvec (ReRo
// rows), tiled GEMM (aligned rects, scheme-agnostic), FFT
// transpose-and-twiddle (ReTr multiview + a diagonally skewed ReRo
// twiddle ROM) and histogram scatter-add (the deliberate conflict
// provoker on the software cache's scalar-fallback path).
//
// Every row is doubly differential: the kernel verifies its output
// against a host reference during the run, AND its recorded access
// trace is replayed through src/replay against the canonical host
// oracle (record -> replay -> bit-identical checksums). Any divergence
// exits nonzero so CI can gate on the smoke invocation (--tiny).
//
// Usage: bench_apps [--tiny] [output.json]   (default BENCH_apps.json)
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "apps/fft_twiddle_app.hpp"
#include "apps/histogram_app.hpp"
#include "apps/matvec_app.hpp"
#include "apps/stencil_app.hpp"
#include "apps/tiled_gemm_app.hpp"
#include "apps/transpose_app.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "replay/replay.hpp"

namespace {

using namespace polymem;

struct Row {
  std::string kernel;
  std::string problem;
  std::string scheme;
  apps::AppReport app;
  std::vector<replay::ReplayReport> replays;  // recorded traces, replayed
  std::int64_t lint_errors = -1;              // >= 0: provoked diagnostics
  std::int64_t lint_warnings = -1;

  bool ok() const {
    if (!app.verified) return false;
    for (const auto& r : replays)
      if (!r.verified()) return false;
    return true;
  }
};

replay::ReplayReport replay_native(sched::TraceRecorder& recorder,
                                   maf::Scheme scheme) {
  replay::ReplayOptions options;
  options.scheme = scheme;
  return replay::replay(recorder.finish(), options);
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  std::string out_path = "BENCH_apps.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny")
      tiny = true;
    else
      out_path = arg;
  }

  std::vector<Row> rows;

  {  // Tiled GEMM: aligned rectangles, runs on every scheme unchanged.
    const std::int64_t n = tiny ? 8 : 32;
    apps::TiledGemmApp app(n, maf::Scheme::kReO);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    std::vector<double> a(static_cast<std::size_t>(n * n)),
        b(static_cast<std::size_t>(n * n));
    for (std::size_t k = 0; k < a.size(); ++k) {
      a[k] = 0.25 * static_cast<double>(k % 17) - 1.0;
      b[k] = 0.125 * static_cast<double>(k % 13) + 0.5;
    }
    app.load(a, b);
    Row row{"tiled-gemm", std::to_string(n) + "x" + std::to_string(n), "ReO",
            app.run(), {}};
    row.replays.push_back(replay_native(rec, maf::Scheme::kReO));
    rows.push_back(std::move(row));
  }
  {  // Stencil: unaligned rectangles, gather redundancy visible.
    const std::int64_t n = tiny ? 16 : 64;
    apps::StencilApp app(n);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    std::vector<double> grid(static_cast<std::size_t>(n * n));
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < n; ++j)
        grid[static_cast<std::size_t>(i * n + j)] = 0.1 * i + 0.2 * j;
    app.load_grid(grid);
    Row row{"stencil-9pt", std::to_string(n) + "x" + std::to_string(n), "ReO",
            app.run(), {}};
    row.replays.push_back(replay_native(rec, maf::Scheme::kReO));
    rows.push_back(std::move(row));
  }
  {  // Transpose: the ReTr showcase, read+write concurrent.
    const std::int64_t n = tiny ? 16 : 64;
    apps::TransposeApp app(n);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    std::vector<hw::Word> src(static_cast<std::size_t>(n * n));
    std::iota(src.begin(), src.end(), 0u);
    app.load_source(src);
    Row row{"transpose", std::to_string(n) + "x" + std::to_string(n), "ReTr",
            app.run(), {}};
    row.replays.push_back(replay_native(rec, maf::Scheme::kReTr));
    rows.push_back(std::move(row));
  }
  {  // FFT transpose-and-twiddle: rect/trect multiview + skewed ROM.
    const std::int64_t n = tiny ? 8 : 32;
    apps::FftTwiddleApp app(n);
    auto data_rec = app.make_data_recorder();
    auto rom_rec = app.make_rom_recorder();
    app.set_recorders(&data_rec, &rom_rec);
    std::vector<double> src(static_cast<std::size_t>(n * n));
    for (std::size_t k = 0; k < src.size(); ++k)
      src[k] = 0.01 * static_cast<double>(k) - 2.0;
    app.load(src);
    Row row{"fft-twiddle", std::to_string(n) + "x" + std::to_string(n),
            "ReTr+ReRo", app.run(), {}};
    row.replays.push_back(replay_native(data_rec, maf::Scheme::kReTr));
    row.replays.push_back(replay_native(rom_rec, maf::Scheme::kReRo));
    rows.push_back(std::move(row));
  }
  {  // Histogram scatter-add: the conflict provoker (scalar fallback).
    const std::int64_t bins = tiny ? 32 : 256;
    const std::int64_t samples = tiny ? 256 : 4096;
    apps::HistogramScatterApp app(bins, 8);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    Row row{"histogram",
            std::to_string(bins) + " bins, " + std::to_string(samples) +
                " samples",
            "ReRo", app.run(samples), {}};
    row.replays.push_back(replay_native(rec, maf::Scheme::kReRo));
    row.lint_errors = static_cast<std::int64_t>(app.lint_report().errors());
    row.lint_warnings =
        static_cast<std::int64_t>(app.lint_report().warnings());
    rows.push_back(std::move(row));
  }
  {  // MatVec: the pure-bandwidth kernel.
    const std::int64_t n = tiny ? 16 : 64;
    apps::MatVecApp app(n);
    auto rec = app.make_recorder();
    app.set_recorder(&rec);
    std::vector<double> a(static_cast<std::size_t>(n * n), 0.5);
    app.load_matrix(a);
    std::vector<double> x(static_cast<std::size_t>(n), 2.0);
    std::vector<double> y(static_cast<std::size_t>(n));
    Row row{"matvec", std::to_string(n) + "x" + std::to_string(n), "ReRo",
            app.run(x, y), {}};
    row.replays.push_back(replay_native(rec, maf::Scheme::kReRo));
    rows.push_back(std::move(row));
  }

  bool all_ok = true;
  TextTable table("Application kernels on MAX-PolyMem (8 lanes)");
  table.set_header({"kernel", "problem", "scheme", "cycles", "reads",
                    "writes", "elem/cycle", "replay", "verified"});
  for (const Row& row : rows) {
    all_ok = all_ok && row.ok();
    std::int64_t replay_batched = 0, replay_fallback = 0;
    bool replay_ok = true;
    for (const auto& r : row.replays) {
      replay_batched += r.batched_accesses;
      replay_fallback += r.fallback_accesses;
      replay_ok = replay_ok && r.verified();
    }
    table.add_row(
        {row.kernel, row.problem, row.scheme, TextTable::num(row.app.cycles),
         TextTable::num(row.app.parallel_reads),
         TextTable::num(row.app.parallel_writes),
         TextTable::num(row.app.elements_per_cycle(), 2),
         (replay_ok ? "ok" : "FAIL") + std::string(" (") +
             std::to_string(replay_batched) + "b+" +
             std::to_string(replay_fallback) + "s)",
         row.ok() ? "yes" : "NO"});
  }

  std::ofstream out(out_path);
  json::Writer w(out);
  w.begin_object().field("benchmark", "polymem_app_suite");
  w.field("tiny", tiny).begin_array("rows");
  for (const Row& row : rows) {
    const apps::AppReport& app = row.app;
    w.begin_object().field("kernel", row.kernel);
    w.field("problem", row.problem).field("scheme", row.scheme);
    w.field("cycles", app.cycles).field("parallel_reads", app.parallel_reads);
    w.field("parallel_writes", app.parallel_writes);
    w.field("elements_touched", app.elements_touched);
    w.field("elements_per_cycle", json::Fixed{app.elements_per_cycle(), 3});
    w.field("verified", app.verified).begin_array("replays");
    for (const auto& rep : row.replays) {
      w.begin_object().field("scheme", maf::scheme_name(rep.scheme));
      w.field("ops", rep.ops).field("batched", rep.batched_accesses);
      w.field("fallback", rep.fallback_accesses);
      w.field("checksums", rep.checksums_checked);
      w.field("verified", rep.verified()).end();
    }
    w.end();
    if (row.lint_errors >= 0) {
      w.begin_object("provoked_lint").field("errors", row.lint_errors);
      w.field("warnings", row.lint_warnings).end();
    }
    w.end();
  }
  w.end().end();
  out.close();

  std::cout << table << "  replay column: record -> replay accesses served "
            << "batched (b) vs scalar fallback (s),\n  each run verified "
            << "against the canonical host oracle.\n"
            << "wrote " << out_path << "\n";
  return all_ok ? 0 : 1;
}
