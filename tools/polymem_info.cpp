// polymem_info: the single-configuration explorer.
//
// Reads a PolyMem configuration from a key=value file (the same style the
// paper's design used: "a simple configuration file sets ... the required
// DSE parameters", Sec. IV-A) and prints everything the library knows
// about it: geometry, machine-checked pattern support, synthesis
// estimates, and bandwidths.
//
// Usage:   polymem_info <config-file>
//          polymem_info --example        (prints a template and exits)
//
// Config keys: capacity_kb (512), scheme (ReRo), p (2), q (4),
//              read_ports (1), clock_mhz (optional override).
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "adapt/policy.hpp"
#include "adapt/profiler.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/frame_pool.hpp"
#include "dse/explorer.hpp"
#include "hw/clock.hpp"
#include "maf/conflict.hpp"
#include "service/engine.hpp"
#include "synth/fmax_model.hpp"
#include "synth/resource_model.hpp"
#include "verify/maf_prover.hpp"

namespace {

constexpr const char* kExample =
    "# PolyMem configuration (paper Table III parameters)\n"
    "capacity_kb = 512\n"
    "scheme = ReRo        # ReO | ReRo | ReCo | RoCo | ReTr\n"
    "p = 2\n"
    "q = 4\n"
    "read_ports = 1\n"
    "# clock_mhz = 120        # optional: override the model's estimate\n"
    "# cache_tile_rows = 16   # optional: software-cache tile geometry\n"
    "# cache_tile_cols = 64   #   (defaults to row panels, up to 4 frames)\n"
    "# service_ports = 2      # optional: request-engine submit queues\n"
    "# service_queue_bound = 256   # per-port admission bound\n"
    "# service_shards = 2     # multi-tenant shard count\n"
    "# service_max_coalesce = 64   # longest run one drain serves\n"
    "# adapt_window = 4096    # adaptive profiler window (accesses)\n";

/// The integer key `key` (default `fallback`) as a whole decimal integer,
/// so 010 is ten and 0x400 is refused.
std::int64_t decimal_key(const polymem::ConfigFile& file,
                         const std::string& key, std::int64_t fallback) {
  if (!file.has(key)) return fallback;
  const std::string text = file.get_string(key);
  const auto value = polymem::parse_decimal(text);
  POLYMEM_REQUIRE(value.has_value(),
                  key + " must be a decimal integer, got '" + text + "'");
  return *value;
}

/// decimal_key, refused unless it is in [1, max], checked before any
/// narrowing so p = 4294967298 is not read as 2. ServiceEngine, PortQueue
/// and ShardedService each throw on a 0 service_* count.
std::int64_t count_key(const polymem::ConfigFile& file, const std::string& key,
                       std::int64_t fallback, std::int64_t max) {
  const std::int64_t value = decimal_key(file, key, fallback);
  POLYMEM_REQUIRE(value >= 1 && value <= max,
                  key + " must be in [1, " + std::to_string(max) + "]");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace polymem;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <config-file> | --example\n", argv[0]);
    return 2;
  }
  if (std::string(argv[1]) == "--example") {
    std::fputs(kExample, stdout);
    return 0;
  }

  try {
    constexpr std::int64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
    constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
    // capacity_kb * KiB must fit in 64 bits.
    constexpr std::int64_t kMaxCapacityKb = std::int64_t{1} << 53;
    const auto file = ConfigFile::load(argv[1]);
    const auto capacity_kb = static_cast<std::uint64_t>(
        count_key(file, "capacity_kb", 512, kMaxCapacityKb));
    const auto scheme =
        maf::scheme_from_name(file.get_string_or("scheme", "ReRo"));
    const auto p = static_cast<unsigned>(count_key(file, "p", 2, kMaxUnsigned));
    const auto q = static_cast<unsigned>(count_key(file, "q", 4, kMaxUnsigned));
    const auto ports =
        static_cast<unsigned>(count_key(file, "read_ports", 1, kMaxUnsigned));

    const auto cfg = core::PolyMemConfig::with_capacity(
        capacity_kb * KiB, scheme, p, q, ports);
    const auto& fmax_model = synth::FmaxModel::paper_calibrated();
    const synth::ResourceModel resources;
    const double mhz =
        file.has("clock_mhz") ? file.get_double("clock_mhz")
                              : fmax_model.fmax_mhz(cfg);
    const auto est = resources.estimate(cfg);
    // Everything a key can make invalid is built or checked before any
    // output, so a refused value prints no half report: the clock domain,
    // the profiler and the frame pool check their own values.
    const hw::ClockDomain clock(mhz * 1e6);
    adapt::ProfilerOptions prof;
    prof.window = decimal_key(file, "adapt_window", prof.window);
    const adapt::AccessProfiler profiler(cfg.p, cfg.q, prof);
    // Out-of-core operation: how the space partitions into cache frames
    // (src/cache). Geometry is overridable for tuning experiments.
    const core::FramePool frames =
        file.has("cache_tile_rows") || file.has("cache_tile_cols")
            ? core::FramePool::whole_space(
                  cfg,
                  decimal_key(file, "cache_tile_rows", cfg.height),
                  decimal_key(file, "cache_tile_cols", cfg.width))
            : core::FramePool::default_tiling(cfg);
    // Service layer (src/service): the request-engine geometry this
    // configuration would be served through, defaults from
    // EngineOptions unless the config overrides them.
    const service::EngineOptions engine_defaults;
    const auto svc_ports = static_cast<unsigned>(count_key(
        file, "service_ports", engine_defaults.ports, kMaxUnsigned));
    const auto svc_bound = static_cast<std::uint64_t>(count_key(
        file, "service_queue_bound",
        static_cast<std::int64_t>(engine_defaults.queue_bound), kMaxInt));
    const auto svc_shards = static_cast<unsigned>(
        count_key(file, "service_shards", 2, kMaxUnsigned));
    const auto svc_coalesce = static_cast<std::uint64_t>(count_key(
        file, "service_max_coalesce",
        static_cast<std::int64_t>(engine_defaults.max_coalesce), kMaxInt));

    std::printf("configuration : %s\n", cfg.describe().c_str());
    std::printf("address space : %lld x %lld elements (%u-bit)\n",
                static_cast<long long>(cfg.height),
                static_cast<long long>(cfg.width), cfg.data_width_bits);
    std::printf("banks         : %u x %u, %lld words each, x%u replicas\n",
                cfg.p, cfg.q, static_cast<long long>(cfg.words_per_bank()),
                cfg.read_ports);
    std::printf("physical data : %s\n",
                format_capacity(cfg.physical_bytes()).c_str());

    std::printf("\npattern support (machine-checked):\n");
    const maf::Maf maf(scheme, p, q);
    for (access::PatternKind kind : access::kAllPatterns)
      std::printf("  %-6s: %s\n", access::pattern_name(kind),
                  maf::support_level_name(maf::probe_support(maf, kind)));
    std::printf("  MAF periods: i=%lld, j=%lld (%lld anchor residue "
                "classes)\n",
                static_cast<long long>(maf.period_i()),
                static_cast<long long>(maf.period_j()),
                static_cast<long long>(maf.period_i() * maf.period_j()));

    // DSE users compare schemes at a fixed geometry; show which of the
    // five are statically proven (verify/maf_prover) at this p x q.
    std::printf("\nstatic prover (%ux%u, all schemes):\n", p, q);
    for (maf::Scheme s : maf::kAllSchemes) {
      const auto proof = verify::prove(s, p, q);
      std::printf("  %-4s: periods i=%-4lld j=%-4lld %s\n", maf::scheme_name(s),
                  static_cast<long long>(proof.period_i),
                  static_cast<long long>(proof.period_j),
                  proof.ok ? "PROVEN" : "REFUTED");
      if (!proof.ok)
        for (const auto& v : proof.violations)
          std::printf("        %s\n", v.message.c_str());
    }

    std::printf("\nsynthesis estimate (Virtex-6 SX475T):\n");
    std::printf("  clock      : %.0f MHz%s\n", mhz,
                file.has("clock_mhz") ? " (user override)" : " (model)");
    std::printf("  BRAM       : %llu RAMB36 = %.1f%%\n",
                static_cast<unsigned long long>(est.bram36), est.bram_pct);
    std::printf("  logic      : %.1f%%   LUTs: %.1f%%\n", est.logic_pct,
                est.lut_pct);
    std::printf("  fits       : %s\n", est.fits() ? "yes" : "NO");

    std::printf("\nsoftware cache (src/cache, default frame pool):\n");
    std::printf("  frames     : %d (%lld x %lld grid)\n", frames.frames(),
                static_cast<long long>(frames.frames_i()),
                static_cast<long long>(frames.frames_j()));
    std::printf("  tile       : %lld x %lld elements = %s each\n",
                static_cast<long long>(frames.tile_rows()),
                static_cast<long long>(frames.tile_cols()),
                format_capacity(frames.frame_bytes()).c_str());
    std::printf("  out-of-core: matrices up to board DRAM; %d-deep "
                "residency, LRU/FIFO eviction, async prefetch\n",
                frames.frames());

    std::printf("\nservice layer (src/service, request engine):\n");
    std::printf("  submit ports   : %u bounded queues, %llu requests each\n",
                svc_ports, static_cast<unsigned long long>(svc_bound));
    std::printf("  coalesce window: up to %llu requests per compiled run\n",
                static_cast<unsigned long long>(svc_coalesce));
    std::printf("  multi-tenant   : %u shards (tile-hash routed; each a "
                "replica of this configuration over shared LMem)\n",
                svc_shards);
    std::printf("  admission      : typed shedding (kOverloaded) beyond "
                "%llu queued; in-flight retires in cycle order\n",
                static_cast<unsigned long long>(svc_bound));

    // Adaptive layout engine (src/adapt): how this geometry would
    // profile and migrate at runtime, plus every scheme's projected
    // cost for a uniform pattern mix — the policy's view when the
    // workload gives it no preference.
    {
      const std::int64_t window = profiler.options().window;
      const std::int64_t cells = cfg.height * cfg.width;
      const adapt::MigrationPolicy policy(cfg.p, cfg.q, cells);
      std::printf("\nadaptive layout engine (src/adapt):\n");
      std::printf("  profiler window: %lld parallel accesses\n",
                  static_cast<long long>(window));
      std::printf("  migration cost : %.0f access slots (one full copy, "
                  "2*cells/lanes)\n",
                  policy.migration_cost_accesses());
      adapt::WindowProfile uniform;
      const std::int64_t per_kind = window / std::ssize(access::kAllPatterns);
      for (access::PatternKind kind : access::kAllPatterns) {
        uniform.kinds[static_cast<std::size_t>(kind)].reads = per_kind;
        uniform.accesses += per_kind;
        uniform.reads += per_kind;
      }
      std::printf("  uniform-mix scheme costs (%lld accesses, "
                  "lower is better):\n",
                  static_cast<long long>(uniform.accesses));
      for (const adapt::SchemeScore& s : policy.score(uniform)) {
        if (!s.available) {
          std::printf("    %-4s: no MAF at %ux%u\n",
                      maf::scheme_name(s.scheme), p, q);
          continue;
        }
        std::printf("    %-4s: cost %-9.0f affine %u/%u%s\n",
                    maf::scheme_name(s.scheme), s.cost, s.affine_served,
                    s.affine_any,
                    s.scheme == scheme ? "   <- configured" : "");
      }
    }

    const double port_bw =
        bandwidth_bytes_per_s(cfg.lanes(), 64, clock.frequency_hz());
    std::printf("\nbandwidth at %.0f MHz:\n", mhz);
    std::printf("  write (per port)   : %s\n",
                format_bandwidth(port_bw, true).c_str());
    std::printf("  read (aggregated)  : %s\n",
                format_bandwidth(ports * port_bw, true).c_str());
    std::printf("  read+write ceiling : %s\n",
                format_bandwidth((ports + 1) * port_bw, true).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
