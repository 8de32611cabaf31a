// polymem_replay: replays a recorded access trace against any scheme x
// cache x port configuration and verifies it bit-for-bit against the
// canonical host-memory oracle (src/replay). The trace carries only
// addresses — the harness supplies the memory, so one recording checks
// every polymorphic configuration.
//
// Usage:   polymem_replay [options] <trace-file>
//          polymem_replay --example       (prints a sample trace)
//
// Options:
//   --scheme <S|all>   scheme to replay under (ReO|ReRo|ReCo|RoCo|ReTr,
//                      default ReRo; `all` replays every scheme)
//   --ports <N>        read ports to round-robin batched reads over (1-16)
//   --cache            route through the CachedMatrix/LMem software cache
//   --adaptive         route through the adaptive layout engine: --scheme
//                      is the initial scheme only; the engine migrates
//                      live as the pattern mix shifts, and the same host
//                      oracle diffs the migrating run (not with --cache)
//   --window <N>       adaptive profiler window (default 0: derived)
//   --write-through    write-through instead of write-back (with --cache)
//   --no-checksums     skip recorded-checksum comparison
//   --lint             additionally re-lint the trace (support, bounds,
//                      conflicts, RAW hazards, bank imbalance); lint
//                      ERRORS fail the run, warnings do not
//   --format=text|json output format (default text)
//
// Exit status: 0 verified, 1 divergence or lint errors, 2 usage/parse
// errors or an op that leaves the trace's address space.
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "replay/replay.hpp"

namespace {

using polymem::maf::Scheme;
using polymem::replay::ReplayOptions;
using polymem::replay::ReplayReport;
using polymem::sched::RecordedTrace;

constexpr const char* kExample =
    "# polymem_replay sample trace: 2x4 lanes over a 16x16 space.\n"
    "# One tuple per line: dir pattern @ anchor [xCOUNT] [step di,dj]\n"
    "#                     [sum <16 hex digits>]\n"
    "polymem-trace v1\n"
    "geometry 2x4 space 16x16 seed 42\n"
    "R row @ 0,0 x16 step 1,0\n"
    "W rect @ 4,8\n"
    "R rect @ 4,8\n"
    "R mdiag @ 0,0 x2 step 8,8\n";

void usage(std::ostream& out) {
  out << "usage: polymem_replay [--scheme S|all] [--ports N] [--cache]\n"
         "                      [--adaptive] [--window N] [--write-through]\n"
         "                      [--no-checksums] [--lint]\n"
         "                      [--format=text|json] <trace-file>\n"
         "       polymem_replay --example\n";
}

void print_json(std::ostream& out, const std::vector<ReplayReport>& reports,
                const std::vector<polymem::verify::LintReport>& lints,
                bool ok) {
  polymem::json::Writer w(out);
  w.begin_object().field("ok", ok).begin_array("runs");
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const ReplayReport& r = reports[k];
    w.begin_object().field("scheme", polymem::maf::scheme_name(r.scheme));
    w.field("through_cache", r.through_cache).field("adaptive", r.adaptive);
    w.field("ops", r.ops).field("reads", r.reads).field("writes", r.writes);
    w.field("batched_accesses", r.batched_accesses);
    w.field("fallback_accesses", r.fallback_accesses);
    w.field("checksums_checked", r.checksums_checked);
    w.field("checksum_mismatches", r.checksum_mismatches);
    w.field("data_mismatches", r.data_mismatches);
    w.field("final_image_ok", r.final_image_ok);
    w.field("verified", r.verified());
    if (r.adaptive) {
      w.field("final_scheme", polymem::maf::scheme_name(r.final_scheme));
      w.field("migrations", r.migrations);
      w.field("migrations_aborted", r.migrations_aborted);
      w.field("migration_mismatches", r.migration_mismatches);
    }
    if (k < lints.size()) {
      w.begin_object("lint").field("errors", lints[k].errors());
      w.field("warnings", lints[k].warnings()).begin_array("diagnostics");
      for (const auto& d : lints[k].diagnostics) w.value(d.message);
      w.end().end();
    }
    w.end();
  }
  w.end().end();
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheme_arg = "ReRo";
  std::string format = "text";
  std::string path;
  ReplayOptions base;
  bool lint = false;
  bool example = false;

  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    auto next = [&]() -> std::string {
      if (k + 1 >= argc) {
        usage(std::cerr);
        std::exit(2);
      }
      return argv[++k];
    };
    // A numeric flag's whole value must be a decimal integer in [lo, hi].
    auto next_int = [&](std::int64_t lo, std::int64_t hi) {
      const std::string value = next();
      const auto n = polymem::parse_decimal(value);
      if (!n || *n < lo || *n > hi) {
        std::cerr << arg << " needs an integer in [" << lo << ", " << hi
                  << "], got '" << value << "'\n";
        usage(std::cerr);
        std::exit(2);
      }
      return *n;
    };
    if (arg == "--example") {
      example = true;
    } else if (arg == "--scheme") {
      scheme_arg = next();
    } else if (arg == "--ports") {
      base.read_ports = static_cast<unsigned>(
          next_int(1, polymem::core::PolyMemConfig::kMaxReadPorts));
    } else if (arg == "--cache") {
      base.through_cache = true;
    } else if (arg == "--adaptive") {
      base.adaptive = true;
    } else if (arg == "--window") {
      base.adaptive_window =
          next_int(0, std::numeric_limits<std::int64_t>::max());
    } else if (arg == "--write-through") {
      base.write_policy = polymem::cache::WritePolicy::kWriteThrough;
    } else if (arg == "--no-checksums") {
      base.verify_checksums = false;
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      usage(std::cerr);
      return 2;
    }
  }
  if (example) {
    std::cout << kExample;
    return 0;
  }
  if (path.empty() || (format != "text" && format != "json")) {
    usage(std::cerr);
    return 2;
  }
  if (base.adaptive && base.through_cache) {
    std::cerr << "--adaptive does not route through the cache; "
                 "drop one of --adaptive/--cache\n";
    usage(std::cerr);
    return 2;
  }

  try {
    const RecordedTrace trace = polymem::sched::parse_trace_file(path);

    std::vector<Scheme> schemes;
    if (scheme_arg == "all") {
      schemes.assign(std::begin(polymem::maf::kAllSchemes),
                     std::end(polymem::maf::kAllSchemes));
    } else {
      schemes.push_back(polymem::maf::scheme_from_name(scheme_arg));
    }

    std::vector<ReplayReport> reports;
    std::vector<polymem::verify::LintReport> lints;
    bool ok = true;
    for (Scheme scheme : schemes) {
      ReplayOptions options = base;
      options.scheme = scheme;
      reports.push_back(polymem::replay::replay(trace, options));
      ok = ok && reports.back().verified();
      if (lint) {
        lints.push_back(polymem::replay::relint(trace, scheme));
        ok = ok && lints.back().ok();
      }
    }

    if (format == "json") {
      print_json(std::cout, reports, lints, ok);
    } else {
      std::cout << path << ": " << trace.ops.size() << " ops, "
                << trace.accesses() << " accesses over " << trace.height
                << "x" << trace.width << " (geometry " << trace.p << "x"
                << trace.q << ", seed " << trace.seed << ")\n";
      for (std::size_t k = 0; k < reports.size(); ++k) {
        std::cout << reports[k].summary() << "\n";
        if (k < lints.size() && !lints[k].diagnostics.empty()) {
          const std::string s = lints[k].summary();
          std::cout << s;
          if (s.empty() || s.back() != '\n') std::cout << "\n";
        }
      }
      std::cout << (ok ? "REPLAY OK" : "REPLAY FAILED") << "\n";
    }
    return ok ? 0 : 1;
  } catch (const polymem::sched::TraceParseError& e) {
    std::cerr << path << ":" << e.line() << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "polymem_replay: " << e.what() << "\n";
    return 2;
  }
}
