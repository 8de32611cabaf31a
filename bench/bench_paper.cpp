// Regenerates the paper's evaluation: its tables and figures in paper
// order (the DSE's Table III, Table IV and Figs. 4-8, then STREAM-Copy on
// the cycle-accurate simulator, Fig. 10), then the design ablations of
// Sec. III (scheduler, modularity, port replication, shuffle network) and
// three extensions (32-lane scaling, the full STREAM suite, Fig. 10
// sensitivity). Model columns print next to the paper's published values.
//
// Usage: bench_paper [csv-output-dir]
// With a directory argument, also writes every DSE table/figure as CSV.
//
// Exits nonzero when Table III does not have 18 valid columns, or when
// STREAM-Copy or any full-STREAM kernel stays at or below 99% of peak.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "dse/report.hpp"
#include "hw/benes.hpp"
#include "hw/crossbar.hpp"
#include "maf/conflict.hpp"
#include "sched/execute.hpp"
#include "sched/scheduler.hpp"
#include "stream/host.hpp"
#include "stream/modular.hpp"
#include "synth/fmax_model.hpp"
#include "synth/resource_model.hpp"

namespace {

using namespace polymem;

void section(const char* title) {
  std::cout << "\n######## " << title << " ########\n\n";
}

// Table III: the grid, its validity rule, every valid point's derived
// characteristics and the Pareto frontier. True at the paper's 18 columns.
bool table3_dse_grid(const dse::DseExplorer& explorer) {
  section("Table III: DSE grid");
  std::cout << "Table III: DSE parameters\n"
            << "  Total size [KB]      : 512, 1024, 2048, 4096\n"
            << "  Number of lanes (pxq): 8 (2x4), 16 (2x8)\n"
            << "  Number of read ports : 1, 2, 3, 4\n"
            << "  validity             : size x ports <= 4MB of BRAM;\n"
            << "                         16-lane designs route <= 2 ports\n\n";

  TextTable table("Valid design points (18 columns x 5 schemes = 90)");
  table.set_header({"Size", "Lanes", "Ports", "phys. data", "banks",
                    "words/bank", "space HxW", "model MHz (ReRo)"});
  int valid = 0, invalid = 0;
  for (unsigned size : {512u, 1024u, 2048u, 4096u}) {
    for (unsigned lanes : {8u, 16u}) {
      for (unsigned ports = 1; ports <= 4; ++ports) {
        if (!synth::dse_point_valid(size, lanes, ports)) {
          ++invalid;
          continue;
        }
        ++valid;
        const synth::DsePoint point{maf::Scheme::kReRo, size, lanes, ports};
        const auto cfg = synth::FmaxModel::make_config(point);
        const auto r = explorer.evaluate(point);
        table.add_row(
            {format_capacity(size * KiB),
             TextTable::num(static_cast<int>(lanes)),
             TextTable::num(static_cast<int>(ports)),
             format_capacity(cfg.physical_bytes()),
             TextTable::num(static_cast<int>(cfg.lanes())),
             TextTable::num(static_cast<std::uint64_t>(cfg.words_per_bank())),
             std::to_string(cfg.height) + "x" + std::to_string(cfg.width),
             TextTable::num(r.fmax_mhz, 0)});
      }
    }
  }
  std::cout << table << "\n";
  std::cout << "valid (size, lanes, ports) columns: " << valid
            << "  rejected: " << invalid << "\n\n";

  TextTable pareto("Pareto frontier: read bandwidth vs BRAM blocks (model)");
  pareto.set_header({"Size", "Lanes", "Ports", "Scheme", "read GB/s",
                     "BRAM36", "BRAM %"});
  for (const auto& r : explorer.pareto_read_bw_vs_bram()) {
    pareto.add_row({format_capacity(r.point.size_kb * KiB),
                    TextTable::num(static_cast<int>(r.point.lanes)),
                    TextTable::num(static_cast<int>(r.point.ports)),
                    maf::scheme_name(r.point.scheme),
                    TextTable::num(r.read_bw_bytes_per_s / GB, 2),
                    TextTable::num(r.resources.bram36),
                    TextTable::num(r.resources.bram_pct, 1)});
  }
  std::cout << pareto << "\n";
  return valid == 18;
}

// Table IV: Fmax of the 90 design points, model vs paper, with errors.
void table4_fmax(const dse::DseExplorer& explorer,
                 const std::vector<dse::DseResult>& results) {
  section("Table IV: maximum clock frequencies");
  std::cout << dse::table4_model(results) << "\n";
  std::cout << dse::table4_paper() << "\n";
  std::cout << dse::table4_error(results) << "\n";
  std::cout << "Paper headline checks:\n"
            << "  highest frequency (paper): 202 MHz, 512KB 8-lane 1-port ReO\n"
            << "  model for that point     : "
            << TextTable::num(
                   explorer.evaluate({maf::Scheme::kReO, 512, 8, 1}).fmax_mhz,
                   0)
            << " MHz\n";
}

// A bandwidth figure's model series, then the paper-derived reference
// (Table IV frequency x lanes x 8 bytes).
void print_bandwidth(const TextTable& model,
                     const std::vector<dse::DseResult>& results,
                     const std::string& title,
                     std::optional<double> dse::DseResult::*paper_bw) {
  auto paper = [&](const dse::DseResult& r) { return *(r.*paper_bw) / GB; };
  std::cout << model << "\n"
            << dse::figure_series(results, title, paper) << "\n";
}

// Fig. 4: write bandwidth per port and its peak.
void fig4_write_bw(const dse::DseExplorer& explorer,
                   const std::vector<dse::DseResult>& results) {
  section("Fig. 4: write bandwidth per port");
  print_bandwidth(dse::fig4_write_bandwidth(results), results,
                  "Fig. 4 reference (paper Table IV frequencies)",
                  &dse::DseResult::write_bw_paper);

  const auto best = explorer.best_write_bandwidth();
  std::cout << "Peak write bandwidth (model): "
            << format_bandwidth(best.write_bw_bytes_per_s, true) << " at "
            << best.point.size_kb << "KB, " << best.point.lanes << " lanes, "
            << maf::scheme_name(best.point.scheme) << "\n"
            << "Paper: 'peak write bandwidth ... exceeds 22GB/s for the "
               "512KB, 16-lane, ReO configuration'\n";
}

// Fig. 5: aggregated read bandwidth, its peak and the port scaling of
// Sec. IV-B (1->2 scales well, 3-4 show diminishing returns).
void fig5_read_bw(const dse::DseExplorer& explorer,
                  const std::vector<dse::DseResult>& results) {
  section("Fig. 5: aggregated read bandwidth");
  print_bandwidth(dse::fig5_read_bandwidth(results), results,
                  "Fig. 5 reference (paper Table IV frequencies)",
                  &dse::DseResult::read_bw_paper);

  const auto best = explorer.best_read_bandwidth();
  std::cout << "Peak aggregated read bandwidth (model): "
            << format_bandwidth(best.read_bw_bytes_per_s, true) << " at "
            << best.point.size_kb << "KB, " << best.point.lanes << " lanes, "
            << best.point.ports << " ports, "
            << maf::scheme_name(best.point.scheme) << "\n"
            << "Paper: 'The peak bandwidth is 32GB/s achieved by the 512KB, "
               "8-lane, 4-port ReTr scheme.'\n\n";

  std::cout << "Port scaling, 512KB 8-lane ReRo (paper-derived):\n";
  double prev = 0;
  for (unsigned ports = 1; ports <= 4; ++ports) {
    const auto r = explorer.evaluate({maf::Scheme::kReRo, 512, 8, ports});
    std::cout << "  " << ports << " port(s): "
              << format_bandwidth(*r.read_bw_paper, true);
    if (prev > 0)
      std::cout << "  (x" << TextTable::num(*r.read_bw_paper / prev, 2)
                << " vs previous)";
    prev = *r.read_bw_paper;
    std::cout << "\n";
  }
}

// Fig. 6: logic utilisation, plus the Sec. IV-C text anchors.
void fig6_logic(const dse::DseExplorer& explorer,
                const std::vector<dse::DseResult>& results) {
  section("Fig. 6: logic utilisation");
  std::cout << dse::fig6_logic_utilisation(results) << "\n";

  auto logic = [&](maf::Scheme s, unsigned kb, unsigned l, unsigned p) {
    return TextTable::num(explorer.evaluate({s, kb, l, p}).resources.logic_pct,
                          2);
  };
  std::cout << "Sec. IV-C anchors (paper -> model):\n"
            << "  512KB ReO  8L 1P : 10.58% -> "
            << logic(maf::Scheme::kReO, 512, 8, 1) << "%\n"
            << "  4MB  RoCo  8L 1P : 13.05% -> "
            << logic(maf::Scheme::kRoCo, 4096, 8, 1) << "%\n"
            << "  512KB ReRo 8L 1P : 10.78% -> "
            << logic(maf::Scheme::kReRo, 512, 8, 1) << "%\n"
            << "  512KB ReRo 8L 4P : 22.34% -> "
            << logic(maf::Scheme::kReRo, 512, 8, 4) << "%\n"
            << "  512KB ReRo 16L 1P: 23.73% -> "
            << logic(maf::Scheme::kReRo, 512, 16, 1)
            << "%  (supra-linear in lanes)\n";
}

// Fig. 7: LUT utilisation and its range (paper: 7% to 28%).
void fig7_luts(const std::vector<dse::DseResult>& results) {
  section("Fig. 7: LUT utilisation");
  std::cout << dse::fig7_lut_utilisation(results) << "\n";

  double lo = 100, hi = 0;
  for (const auto& r : results) {
    lo = std::min(lo, r.resources.lut_pct);
    hi = std::max(hi, r.resources.lut_pct);
  }
  std::cout << "LUT utilisation range (model): " << TextTable::num(lo, 1)
            << "% .. " << TextTable::num(hi, 1) << "%   (paper: 7% .. 28%)\n";
}

// Fig. 8: BRAM utilisation, with the Sec. IV-C anchors and the
// scheme-independence observation.
void fig8_bram(const dse::DseExplorer& explorer,
               const std::vector<dse::DseResult>& results) {
  section("Fig. 8: BRAM utilisation");
  std::cout << dse::fig8_bram_utilisation(results) << "\n";

  auto bram = [&](unsigned kb, unsigned l, unsigned p) {
    return TextTable::num(
        explorer.evaluate({maf::Scheme::kReRo, kb, l, p}).resources.bram_pct,
        2);
  };
  std::cout << "Sec. IV-C anchors (paper -> model):\n"
            << "  512KB  8L 1P: 16.07% -> " << bram(512, 8, 1) << "%\n"
            << "  512KB 16L 1P: 19.31% -> " << bram(512, 16, 1) << "%\n"
            << "  512KB  8L 2P: 29.04% -> " << bram(512, 8, 2) << "%\n"
            << "  2MB   16L 2P: 97.00% -> " << bram(2048, 16, 2) << "%\n";

  // "the memory scheme has no influence on the amount of BRAMs used".
  bool scheme_independent = true;
  for (const auto& col : synth::table4_columns()) {
    const auto ref =
        explorer.evaluate({maf::Scheme::kReO, col.size_kb, col.lanes, col.ports})
            .resources.bram36;
    for (maf::Scheme s : maf::kAllSchemes)
      scheme_independent =
          scheme_independent &&
          explorer.evaluate({s, col.size_kb, col.lanes, col.ports})
                  .resources.bram36 == ref;
  }
  std::cout << "BRAM count independent of scheme: "
            << (scheme_independent ? "yes" : "NO") << " (paper: yes)\n";
}

// Fig. 10: STREAM-Copy read+write bandwidth vs copied size on the
// cycle-accurate simulator; the paper measured at most 15301 MB/s, > 99%
// of the 15360 MB/s peak. True when the simulation also exceeds 99%.
bool fig10_stream_copy() {
  section("Fig. 10: STREAM-Copy bandwidth vs copied size");
  stream::StreamHost host;  // the paper's full-size design
  const std::int64_t capacity = host.design().config().vector_capacity;

  std::vector<double> init(static_cast<std::size_t>(capacity), 1.0);
  host.load(init, init, init);

  TextTable table("Fig. 10: STREAM-Copy bandwidth vs copied data size");
  table.set_header({"Copied KB", "cycles/run", "time/run us", "MB/s",
                    "% of peak"});
  const double peak = host.theoretical_peak_bytes_per_s(stream::Mode::kCopy);

  // The figure's x-axis (0..700 KB), denser where the overhead dominates.
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 8; n < 2048; n *= 2) sizes.push_back(n);
  for (std::int64_t n = 2048; n <= capacity; n += 8192)
    sizes.push_back(std::min(n, capacity));
  if (sizes.back() != capacity) sizes.push_back(capacity);

  double max_rate = 0;
  for (std::int64_t n : sizes) {
    const auto r = host.run(stream::Mode::kCopy, n, /*runs=*/3);
    const double rate = r.best_rate_bytes_per_s();
    max_rate = std::max(max_rate, rate);
    table.add_row({TextTable::num(n * 8.0 / 1024, 1),
                   TextTable::num(r.cycles_per_run),
                   TextTable::num(r.seconds.min() * 1e6, 3),
                   TextTable::num(rate / 1e6, 1),
                   TextTable::num(100 * rate / peak, 2)});
  }
  std::cout << table << "\n";

  std::printf("theoretical peak: %.0f MB/s (2 ports x 8 lanes x 8B x 120MHz)\n",
              peak / 1e6);
  std::printf("maximum measured: %.0f MB/s = %.2f%% of peak\n", max_rate / 1e6,
              100 * max_rate / peak);
  std::printf("paper:            15301 MB/s = 99.6%% of peak\n");
  return max_rate / peak > 0.99;
}

// Sec. III-A: exact (ILP-equivalent) vs greedy set covering, predicted vs
// simulated speedup, and the per-scheme configuration ranking.
void scheduler() {
  section("Sec. III-A: scheduler");
  struct Workload {
    const char* name;
    sched::AccessTrace trace;
  };
  const std::vector<Workload> workloads = {
      {"dense 8x16 aligned", sched::AccessTrace::dense_block({0, 0}, 8, 16)},
      {"dense 6x10 unaligned", sched::AccessTrace::dense_block({1, 3}, 6, 10)},
      {"5pt stencil 4x8",
       sched::AccessTrace::stencil({2, 2}, 4, 8,
                                   {{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}})},
      {"diag band 16 halo 1", sched::AccessTrace::diagonal_band({0, 2}, 16, 1)},
      {"sparse 10x14 @35%",
       sched::AccessTrace::random_sparse({0, 0}, 10, 14, 0.35, 5)},
  };

  TextTable table("Scheduler ablation: exact vs greedy (ReRo 2x4)");
  table.set_header({"workload", "elements", "exact len", "greedy len",
                    "greedy overhead"});
  const sched::Scheduler sched_rero(maf::Scheme::kReRo, 2, 4);
  for (const auto& w : workloads) {
    const auto exact = sched_rero.schedule(w.trace, sched::SolverKind::kExact);
    const auto greedy =
        sched_rero.schedule(w.trace, sched::SolverKind::kGreedy);
    table.add_row(
        {w.name, TextTable::num(w.trace.size()),
         TextTable::num(exact.length()), TextTable::num(greedy.length()),
         TextTable::num(100.0 * (greedy.length() - exact.length()) /
                            std::max<std::int64_t>(1, exact.length()),
                        1) +
             "%"});
  }
  std::cout << table << "\n";

  // Each exact schedule runs on the cycle-accurate memory (14-cycle read
  // latency) against the scheduler's steady-state prediction.
  TextTable sim("Predicted vs cycle-accurate simulated speedup (ReRo 2x4)");
  sim.set_header({"workload", "schedule", "predicted", "simulated",
                  "sim cycles"});
  for (const auto& w : workloads) {
    auto cfg = core::PolyMemConfig::with_capacity(32 * KiB,
                                                  maf::Scheme::kReRo, 2, 4);
    core::CyclePolyMem mem(cfg);
    for (std::int64_t i = 0; i < cfg.height; ++i)
      for (std::int64_t j = 0; j < cfg.width; ++j)
        mem.functional().store({i, j},
                               static_cast<core::Word>(i * 1000 + j));
    sched::Scheduler bounded(maf::Scheme::kReRo, 2, 4);
    bounded.set_bounds(cfg.height, cfg.width);
    const auto schedule = bounded.schedule(w.trace, sched::SolverKind::kExact);
    const auto metrics = bounded.evaluate(w.trace, schedule);
    const auto result = sched::execute_schedule(
        w.trace, schedule, mem, [](access::Coord c) {
          return static_cast<core::Word>(c.i * 1000 + c.j);
        });
    sim.add_row({w.name, TextTable::num(schedule.length()),
                 TextTable::num(metrics.speedup, 2) + "x",
                 TextTable::num(result.measured_speedup, 2) + "x",
                 TextTable::num(result.polymem_cycles)});
  }
  std::cout << sim << "\n";

  // Configuration ranking for the diagonal workload: the multiview win.
  const auto& diag = workloads[3].trace;
  TextTable rank("Configuration ranking, diagonal-band workload");
  rank.set_header({"scheme", "schedule", "speedup", "efficiency"});
  const std::vector<std::tuple<maf::Scheme, unsigned, unsigned>> configs = {
      {maf::Scheme::kReO, 2, 4},  {maf::Scheme::kReRo, 2, 4},
      {maf::Scheme::kReCo, 2, 4}, {maf::Scheme::kRoCo, 2, 4},
      {maf::Scheme::kReTr, 2, 4}};
  for (const auto& choice : sched::rank_configurations(diag, configs)) {
    rank.add_row({maf::scheme_name(choice.scheme),
                  TextTable::num(choice.metrics.schedule_length),
                  TextTable::num(choice.metrics.speedup, 2),
                  TextTable::num(choice.metrics.efficiency, 3)});
  }
  std::cout << rank;
}

// Design-choice ablations (DESIGN.md): modular vs fused kernels (Sec.
// III-C: modular "consumes twice as many resources"), read-port
// replication vs time-multiplexing one port, and full crossbar vs Benes
// shuffle (n^2 vs n log2(n) crosspoints).
void ablations(const dse::DseExplorer& explorer) {
  section("Sec. III-C: design ablations");
  const synth::ResourceModel resources;

  // 1. Resources from the model; cycles from running both designs
  // (stream/design.hpp fused, stream/modular.hpp) on the same Copy.
  TextTable t1("Ablation 1: fused vs modular kernel design");
  t1.set_header({"config", "fused logic", "modular logic", "fused cycles",
                 "modular cycles"});
  {
    stream::StreamDesignConfig scfg;
    scfg.vector_capacity = 4096;
    scfg.width = 512;
    const auto cfg = scfg.polymem_config();
    const auto fused_est = resources.estimate(cfg);
    const auto modular_est = resources.estimate_modular(cfg);

    stream::StreamDesign fused(scfg);
    fused.controller().start(stream::Mode::kCopy, 4096);
    std::uint64_t fused_cycles = 0;
    while (!fused.controller().done()) {
      fused.controller().tick();
      ++fused_cycles;
    }
    stream::ModularCopyDesign modular(scfg);
    modular.start(stream::Mode::kCopy, 4096);
    const std::uint64_t modular_cycles = modular.run();

    t1.add_row({"Copy 4096 doubles, 8L",
                TextTable::num(fused_est.logic_pct, 2) + "%",
                TextTable::num(modular_est.logic_pct, 2) + "%",
                TextTable::num(fused_cycles),
                TextTable::num(modular_cycles)});
  }
  std::cout << t1
            << "  -> modularity costs area (2x, Sec. III-C), not "
               "throughput: the cycle\n     counts differ only by the "
               "inter-kernel pipeline depth.\n\n";

  // 2. Port replication vs time multiplexing.
  TextTable t2(
      "Ablation 2: read-port replication vs time-multiplexed single port");
  t2.set_header({"ports", "replicated BW", "replicated BRAM%",
                 "multiplexed BW", "multiplexed BRAM%"});
  for (unsigned ports = 1; ports <= 4; ++ports) {
    const auto rep = explorer.evaluate({maf::Scheme::kReRo, 512, 8, ports});
    // Multiplexed: 1-port BRAM cost, one port shared by `ports` consumers.
    const auto single = explorer.evaluate({maf::Scheme::kReRo, 512, 8, 1});
    const double mux_bw = single.read_bw_bytes_per_s;  // shared, not scaled
    t2.add_row({TextTable::num(static_cast<int>(ports)),
                format_bandwidth(rep.read_bw_bytes_per_s, true),
                TextTable::num(rep.resources.bram_pct, 1) + "%",
                format_bandwidth(mux_bw, true),
                TextTable::num(single.resources.bram_pct, 1) + "%"});
  }
  std::cout << t2
            << "  -> replication buys aggregated bandwidth with BRAM, the\n"
               "     paper's trade (Sec. IV-C); multiplexing caps at 1-port"
               " bandwidth.\n\n";

  // 3. Both networks are implemented in src/hw (the Benes routing is
  // property-tested against the crossbar): real switch counts.
  TextTable t3("Ablation 3: shuffle network cost (implemented, not modelled)");
  t3.set_header({"lanes", "crossbar crosspoints", "Benes stages",
                 "Benes 2x2 switches", "crossbar/Benes area"});
  for (unsigned lanes : {4u, 8u, 16u, 32u, 64u}) {
    const auto full = hw::crossbar_crosspoints(lanes);
    const auto benes = 4 * hw::benes_switches(lanes);  // 4 xpoints / switch
    t3.add_row({TextTable::num(static_cast<int>(lanes)),
                TextTable::num(full),
                TextTable::num(static_cast<int>(hw::benes_stages(lanes))),
                TextTable::num(hw::benes_switches(lanes)),
                TextTable::num(static_cast<double>(full) / benes, 2) + "x"});
  }
  std::cout << t3
            << "  -> the paper's full crossbars explain the supra-linear\n"
               "     logic growth; the Benes network (hw/benes.hpp) scales\n"
               "     n*log(n) but its looping route computation is a\n"
               "     sequential algorithm — impractical combinationally in\n"
               "     one cycle, which is why MAX-PolyMem pays for crossbars.\n";
}

// Extension: the contributions claim scaling "up to 32" lanes, Tables
// III/IV synthesise 8 and 16. Predicts 32 lanes (2x16 and 4x8 grids) from
// the calibrated models and contrasts the two grids' pattern support.
void ext_scaling() {
  section("Extension: 32-lane scaling");
  const auto& fmax = synth::FmaxModel::paper_calibrated();
  const synth::ResourceModel resources;

  TextTable table("Extension: lane scaling prediction (ReRo, 1 read port)");
  table.set_header({"Size", "Geometry", "Lanes", "model MHz", "write GB/s",
                    "logic %", "LUT %", "BRAM %", "fits"});
  for (unsigned size_kb : {512u, 1024u, 2048u, 4096u}) {
    for (auto [p, q] : {std::pair<unsigned, unsigned>{2, 4}, {2, 8}, {2, 16},
                        {4, 8}}) {
      const auto cfg = core::PolyMemConfig::with_capacity(
          static_cast<std::uint64_t>(size_kb) * KiB, maf::Scheme::kReRo, p,
          q);
      const double mhz = fmax.fmax_mhz(cfg);
      const auto est = resources.estimate(cfg);
      table.add_row(
          {format_capacity(size_kb * KiB),
           std::to_string(p) + "x" + std::to_string(q),
           TextTable::num(static_cast<int>(p * q)), TextTable::num(mhz, 0),
           TextTable::num(bandwidth_bytes_per_s(p * q, 64, mhz * 1e6) / GB,
                          2),
           TextTable::num(est.logic_pct, 1), TextTable::num(est.lut_pct, 1),
           TextTable::num(est.bram_pct, 1), est.fits() ? "yes" : "NO"});
    }
  }
  std::cout << table << "\n";

  TextTable support("32-lane geometry ablation: machine-checked support");
  support.set_header({"Scheme", "Pattern", "2x16", "4x8"});
  for (maf::Scheme scheme : maf::kAllSchemes) {
    const maf::Maf wide(scheme, 2, 16);
    const maf::Maf square(scheme, 4, 8);
    for (access::PatternKind kind : access::kAllPatterns) {
      const auto a = maf::probe_support(wide, kind);
      const auto b = maf::probe_support(square, kind);
      if (a == maf::SupportLevel::kNone && b == maf::SupportLevel::kNone)
        continue;
      support.add_row({maf::scheme_name(scheme), access::pattern_name(kind),
                       maf::support_level_name(a),
                       maf::support_level_name(b)});
    }
  }
  std::cout << support
            << "  (identical families here; the shapes differ: a 2x16 rect "
               "is 2 rows of 16,\n   a 4x8 rect is 4 rows of 8 — the "
               "application's tile shape picks the grid)\n";
}

// Extension: the full STREAM suite, which Sec. VII defers to future work.
// Sum and Triad use both read ports and the write port, lifting the
// ceiling from 15 360 to 23 040 MB/s. True when every kernel sustains
// > 99% of its port-limited peak.
bool ext_stream_full() {
  section("Extension: full STREAM");
  stream::StreamHost host;  // the paper's full-size design
  const std::int64_t cap = host.design().config().vector_capacity;
  std::vector<double> v(static_cast<std::size_t>(cap), 1.0);
  host.load(v, v, v);

  TextTable table("Extension: full STREAM on MAX-PolyMem (120MHz, 8 lanes)");
  table.set_header({"Function", "words/elem", "peak MB/s", "n=8K MB/s",
                    "n=max MB/s", "% of peak"});
  const std::vector<std::pair<stream::Mode, int>> kernels = {
      {stream::Mode::kCopy, 2},
      {stream::Mode::kScale, 2},
      {stream::Mode::kSum, 3},
      {stream::Mode::kTriad, 3},
  };
  bool all_above_99 = true;
  for (const auto& [mode, words] : kernels) {
    const double peak = host.theoretical_peak_bytes_per_s(mode);
    const auto small = host.run(mode, 8192, 2);
    const auto large = host.run(mode, cap, 2);
    const double ratio = large.best_rate_bytes_per_s() / peak;
    all_above_99 = all_above_99 && ratio > 0.99;
    table.add_row({stream::mode_name(mode), TextTable::num(words),
                   TextTable::num(peak / 1e6, 0),
                   TextTable::num(small.best_rate_bytes_per_s() / 1e6, 0),
                   TextTable::num(large.best_rate_bytes_per_s() / 1e6, 0),
                   TextTable::num(100 * ratio, 2)});
  }
  std::cout << table
            << "  Copy/Scale: 1 read + 1 write port. Sum/Triad: 2 read + 1 "
               "write port.\n"
            << "  every kernel sustains > 99% of its port-limited peak: "
            << (all_above_99 ? "yes" : "NO") << "\n";
  return all_above_99;
}

// Extension: the Fig. 10 curve's sensitivity to the host-call overhead
// (~300ns) and the read latency (14 cycles): overhead moves the half-peak
// knee, latency adds a constant, and neither moves the plateau.
void ext_sensitivity() {
  section("Extension: Fig. 10 sensitivity");
  TextTable table(
      "Extension: Fig. 10 sensitivity to overhead and read latency");
  table.set_header({"overhead ns", "latency cyc", "half-peak at KB",
                    "max rate MB/s"});
  for (double overhead : {100.0, 300.0, 1000.0}) {
    for (unsigned latency : {7u, 14u, 28u}) {
      stream::StreamDesignConfig cfg;
      cfg.vector_capacity = 32768;
      cfg.width = 512;
      cfg.read_latency = latency;
      stream::StreamHost host(cfg);
      host.dfe().pcie() = maxsim::PcieLink(2.0e9, overhead);
      std::vector<double> v(32768, 1.0);
      host.load(v, v, v);
      const double peak =
          host.theoretical_peak_bytes_per_s(stream::Mode::kCopy);
      double half_peak_kb = -1, max_rate_mbs = 0;
      for (std::int64_t n = 8; n <= 32768; n *= 2) {
        const double rate =
            host.run(stream::Mode::kCopy, n, 1).best_rate_bytes_per_s();
        max_rate_mbs = std::max(max_rate_mbs, rate / 1e6);
        if (half_peak_kb < 0 && rate > 0.5 * peak)
          half_peak_kb = n * 8.0 / 1024;
      }
      table.add_row({TextTable::num(overhead, 0),
                     TextTable::num(static_cast<int>(latency)),
                     TextTable::num(half_peak_kb, 2),
                     TextTable::num(max_rate_mbs, 0)});
    }
  }
  std::cout << table
            << "  -> the knee scales with the call overhead (the paper's\n"
               "     300ns explains its Fig. 10 ramp); latency only adds a\n"
               "     constant; the plateau is overhead- and latency-"
               "independent.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const dse::DseExplorer explorer;
  const auto results = explorer.explore();
  if (argc > 1) {
    const auto written = dse::write_all_csv(argv[1], results);
    std::cout << "wrote " << written.size() << " CSV artefacts to " << argv[1]
              << "\n";
  }

  bool ok = table3_dse_grid(explorer);
  table4_fmax(explorer, results);
  fig4_write_bw(explorer, results);
  fig5_read_bw(explorer, results);
  fig6_logic(explorer, results);
  fig7_luts(results);
  fig8_bram(explorer, results);
  ok = fig10_stream_copy() && ok;
  scheduler();
  ablations(explorer);
  ext_scaling();
  ok = ext_stream_full() && ok;
  ext_sensitivity();
  return ok ? 0 : 1;
}
