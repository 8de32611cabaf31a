// polymem_lint: static checker for PolyMem configurations and access
// plans — drives verify/maf_prover and verify/plan_lint over a key=value
// file and exits nonzero on violations (CI gate; see .github/workflows).
//
// Usage:   polymem_lint [--prove] [--format=text|json] <config-file>
//          polymem_lint [--format=...] [--scheme S] [--p N] [--q N]
//                       --prove-affine '<spec>' [config-file]
//          polymem_lint --example        (prints a template and exits)
//
// The file sets the configuration (scheme, p, q, and either height/width
// or capacity_kb) plus an optional batch program and traces:
//
//   opN     = <read|write> <pattern> at <i>,<j> [step <di>,<dj> x<count>]
//                                               [outer <di>,<dj> x<count>]
//   affineN = <read|write> { lanes <U>x<V> ; i = <expr> ; j = <expr> }
//             at <i>,<j> [step ...] [outer ...]
//   traceN  = dense at <i>,<j> <rows>x<cols>
//
// Op coordinates lie within +-2^31 and counts in 1..2^24, the bounds of a
// trace (docs/trace_format.md); values past them are parse errors. So are
// affine spec numbers and sums of terms past +-2^31, and lane-grid sides
// past 2^20.
//
// Affine ops are admitted through the symbolic conflict-freedom prover
// (verify/affine_prover.hpp) instead of the Table-I capability oracle.
//
// --prove additionally runs the full static prover (conflict freedom over
// the MAF period lattice, addressing injectivity, plan-template
// agreement, symbolic-vs-sweep differential) for the configuration.
//
// --prove-affine '<spec>' proves one affine pattern symbolically and
// differentially validates the verdict against the brute-force sweep;
// the scheme/p/q come from the config file or the --scheme/--p/--q flags.
//
// --format=json emits one machine-readable JSON document with stable
// `code`/`severity` fields per diagnostic and structured counterexamples.
//
// Exit status: 0 clean, 1 lint errors or refuted proof, 2 usage/parse
// errors.
#include <cstdio>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/units.hpp"
#include "verify/maf_prover.hpp"
#include "verify/plan_lint.hpp"

namespace {

using polymem::ConfigFile;
using polymem::core::AccessBatch;
using polymem::core::PolyMemConfig;
using polymem::json::Writer;
using polymem::verify::AffineCounterexample;
using polymem::verify::BatchOp;
using polymem::verify::Diagnostic;
using polymem::verify::LintReport;
using polymem::verify::Violation;

constexpr const char* kExample =
    "# polymem_lint configuration: geometry + a batch program to check\n"
    "scheme = ReRo        # ReO | ReRo | ReCo | RoCo | ReTr\n"
    "p = 2\n"
    "q = 4\n"
    "height = 64          # or: capacity_kb = 512 (near-square shape)\n"
    "width = 64\n"
    "\n"
    "# opN = <read|write> <pattern> at <i>,<j> [step <di>,<dj> x<count>]\n"
    "#                                         [outer <di>,<dj> x<count>]\n"
    "op1 = write rect at 0,0 step 0,4 x16 outer 2,0 x16\n"
    "op2 = read row at 32,0 step 1,0 x32\n"
    "\n"
    "# affineN = <read|write> { <affine spec> } at <i>,<j> [step ...]\n"
    "# (admitted iff the symbolic prover shows the pattern conflict-free)\n"
    "affine1 = read { lanes 1x8 ; i = 0 ; j = 3*v } at 0,0 step 1,0 x32\n"
    "\n"
    "# traceN = dense at <i>,<j> <rows>x<cols>\n"
    "trace1 = dense at 0,0 16x16\n";

[[noreturn]] void parse_fail(const std::string& key, const std::string& value,
                             const std::string& why) {
  throw polymem::InvalidArgument("cannot parse " + key + " = '" + value +
                                 "': " + why);
}

std::vector<std::string> tokenize(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

// The bounds a trace's ops obey (docs/trace_format.md): anchor and stride
// components within +-2^31, counts in 1..2^24. Every anchor of an op then
// stays far inside int64, whatever the geometry.
constexpr std::int64_t kMaxCoord = std::int64_t{1} << 31;
constexpr std::int64_t kMaxCount = std::int64_t{1} << 24;

polymem::access::Coord parse_coord(const std::string& key,
                                   const std::string& tok) {
  polymem::access::Coord c;
  char comma = 0;
  std::istringstream in(tok);
  if (!(in >> c.i >> comma >> c.j) || comma != ',' || !in.eof())
    parse_fail(key, tok, "expected <i>,<j>");
  if (c.i < -kMaxCoord || c.i > kMaxCoord || c.j < -kMaxCoord ||
      c.j > kMaxCoord)
    parse_fail(key, tok, "coordinates must lie within +-2^31");
  return c;
}

std::int64_t parse_count(const std::string& key, const std::string& tok) {
  std::int64_t n = 0;
  if (tok.size() < 2 || tok[0] != 'x') parse_fail(key, tok, "expected x<n>");
  std::istringstream in(tok.substr(1));
  if (!(in >> n) || !in.eof()) parse_fail(key, tok, "expected x<n>");
  if (n < 1 || n > kMaxCount) parse_fail(key, tok, "count must be 1..2^24");
  return n;
}

BatchOp::Dir parse_dir(const std::string& key, const std::string& value,
                       const std::string& tok) {
  if (tok == "read") return BatchOp::Dir::kRead;
  if (tok == "write") return BatchOp::Dir::kWrite;
  parse_fail(key, value, "op must start with read|write");
}

// Parses the shared op tail: "at <i>,<j> [step <di>,<dj> x<n>]
// [outer <di>,<dj> x<n>]", starting at token `t`.
void parse_op_tail(const std::string& key, const std::string& value,
                   const std::vector<std::string>& tok, std::size_t t,
                   AccessBatch& batch) {
  auto next = [&]() -> const std::string& {
    if (t >= tok.size()) parse_fail(key, value, "unexpected end of op");
    return tok[t++];
  };
  if (next() != "at") parse_fail(key, value, "expected 'at <i>,<j>'");
  batch.start = parse_coord(key, next());
  while (t < tok.size()) {
    const std::string word = next();
    if (word == "step") {
      batch.inner_stride = parse_coord(key, next());
      batch.inner_count = parse_count(key, next());
    } else if (word == "outer") {
      batch.outer_stride = parse_coord(key, next());
      batch.outer_count = parse_count(key, next());
    } else {
      parse_fail(key, value, "unknown clause '" + word + "'");
    }
  }
}

BatchOp parse_op(const std::string& key, const std::string& value) {
  const auto tok = tokenize(value);
  if (tok.empty()) parse_fail(key, value, "empty op");
  BatchOp op;
  op.dir = parse_dir(key, value, tok[0]);
  if (tok.size() < 2) parse_fail(key, value, "missing pattern");
  op.batch.kind = polymem::access::pattern_from_name(tok[1]);
  parse_op_tail(key, value, tok, 2, op.batch);
  return op;
}

// affineN = <read|write> { <affine spec> } at <i>,<j> [step ...] — the
// spec between the braces goes through AffinePattern::parse verbatim.
BatchOp parse_affine_op(const std::string& key, const std::string& value) {
  const auto open = value.find('{');
  const auto close = value.find('}', open == std::string::npos ? 0 : open);
  if (open == std::string::npos || close == std::string::npos)
    parse_fail(key, value, "expected '{ <affine spec> }'");
  BatchOp op;
  const auto head = tokenize(value.substr(0, open));
  if (head.size() != 1) parse_fail(key, value, "expected read|write before {");
  op.dir = parse_dir(key, value, head[0]);
  op.affine = polymem::verify::AffinePattern::parse(
      value.substr(open + 1, close - open - 1));
  const auto tok = tokenize(value.substr(close + 1));
  parse_op_tail(key, value, tok, 0, op.batch);
  return op;
}

polymem::sched::AccessTrace parse_trace(const std::string& key,
                                        const std::string& value) {
  const auto tok = tokenize(value);
  if (tok.size() != 4 || tok[0] != "dense" || tok[1] != "at")
    parse_fail(key, value, "expected 'dense at <i>,<j> <rows>x<cols>'");
  const auto origin = parse_coord(key, tok[2]);
  std::int64_t rows = 0, cols = 0;
  char x = 0;
  std::istringstream in(tok[3]);
  if (!(in >> rows >> x >> cols) || x != 'x' || !in.eof())
    parse_fail(key, value, "expected <rows>x<cols>");
  return polymem::sched::AccessTrace::dense_block(origin, rows, cols);
}

// The integer `key` as a whole decimal integer, so 010 is ten and 0x400 is
// refused.
std::int64_t decimal(const ConfigFile& file, const std::string& key) {
  const std::string text = file.get_string(key);
  const auto value = polymem::parse_decimal(text);
  if (!value) parse_fail(key, text, "expected a decimal integer");
  return *value;
}

// The integer `key` (default `fallback`), refused with a usage error
// (status 2) unless it is in [0, max]. The check runs on the 64-bit value,
// before any narrowing, so p = 4294967298 is not read as 2; a value in
// range that gives no valid geometry is the linter's PML001.
std::int64_t config_int(const ConfigFile& file, const std::string& key,
                        std::int64_t fallback, std::int64_t max) {
  const std::int64_t value = file.has(key) ? decimal(file, key) : fallback;
  if (value < 0 || value > max)
    parse_fail(key, std::to_string(value), "out of range");
  return value;
}

PolyMemConfig parse_config(const ConfigFile& file) {
  constexpr std::int64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
  // capacity_kb * KiB must fit in 64 bits.
  constexpr std::int64_t kMaxCapacityKb = std::int64_t{1} << 53;
  const auto scheme =
      polymem::maf::scheme_from_name(file.get_string_or("scheme", "ReRo"));
  const auto p = static_cast<unsigned>(config_int(file, "p", 2, kMaxUnsigned));
  const auto q = static_cast<unsigned>(config_int(file, "q", 4, kMaxUnsigned));
  if (file.has("height") || file.has("width")) {
    PolyMemConfig cfg;
    cfg.scheme = scheme;
    cfg.p = p;
    cfg.q = q;
    cfg.height = decimal(file, "height");
    cfg.width = decimal(file, "width");
    return cfg;  // validated by the linter/prover, which report PML001
  }
  const std::int64_t capacity_kb =
      config_int(file, "capacity_kb", 512, kMaxCapacityKb);
  return PolyMemConfig::with_capacity(
      static_cast<std::uint64_t>(capacity_kb) * polymem::KiB, scheme, p, q);
}

// --- JSON rendering ---------------------------------------------------

void write_counterexample(Writer& w, const AffineCounterexample& cx) {
  w.begin_object("counterexample");
  w.begin_array("anchor").value(cx.anchor.i).value(cx.anchor.j).end();
  w.field("lane_a", cx.lane_a).field("lane_b", cx.lane_b);
  w.begin_array("elem_a").value(cx.elem_a.i).value(cx.elem_a.j).end();
  w.begin_array("elem_b").value(cx.elem_b.i).value(cx.elem_b.j).end();
  w.field("bank", cx.bank).end();
}

void write_diagnostic(Writer& w, const std::string& source,
                      const Diagnostic& d) {
  w.begin_object().field("source", source);
  w.field("code", polymem::verify::lint_code(d.kind));
  w.field("name", polymem::verify::lint_name(d.kind));
  w.field("severity", polymem::verify::severity_name(d.severity));
  w.field("op", d.op).field("message", d.message);
  if (d.counterexample.has_value()) write_counterexample(w, *d.counterexample);
  w.end();
}

void write_violations(Writer& w, const std::vector<Violation>& violations) {
  w.begin_array("violations");
  for (const Violation& v : violations) {
    w.begin_object().field("code", polymem::verify::check_code(v.check));
    w.field("name", polymem::verify::check_name(v.check));
    w.field("severity", "error").field("message", v.message).end();
  }
  w.end();
}

// --- run modes --------------------------------------------------------

struct Options {
  bool prove = false;
  bool json = false;
  std::string path;
  std::string affine_spec;  // --prove-affine
  std::string scheme_flag;  // --scheme (prove-affine without a file)
  unsigned p_flag = 0;      // --p (0: not given)
  unsigned q_flag = 0;      // --q
};

int run_lint(const Options& opt) {
  const auto file = ConfigFile::load(opt.path);
  const PolyMemConfig cfg = parse_config(file);
  std::vector<BatchOp> ops;
  std::vector<std::pair<std::string, polymem::sched::AccessTrace>> traces;
  for (const auto& [key, value] : file.entries()) {
    if (key.rfind("affine", 0) == 0)
      ops.push_back(parse_affine_op(key, value));
    else if (key.rfind("op", 0) == 0)
      ops.push_back(parse_op(key, value));
    if (key.rfind("trace", 0) == 0)
      traces.emplace_back(key, parse_trace(key, value));
  }

  bool clean = true;
  const LintReport program = polymem::verify::lint_program(cfg, ops);
  clean = clean && program.ok();
  struct TraceResult {
    std::string name;
    std::int64_t size = 0;
    LintReport report;
  };
  std::vector<TraceResult> trace_reports;
  for (const auto& [name, trace] : traces) {
    trace_reports.push_back(
        {name, static_cast<std::int64_t>(trace.size()),
         polymem::verify::lint_trace(cfg, trace)});
    clean = clean && trace_reports.back().report.ok();
  }
  polymem::verify::ProverReport prover;
  if (opt.prove) {
    prover = polymem::verify::prove(cfg);
    clean = clean && prover.ok;
  }

  if (opt.json) {
    std::size_t errors = program.errors();
    std::size_t warnings = program.warnings();
    for (const TraceResult& t : trace_reports) {
      errors += t.report.errors();
      warnings += t.report.warnings();
    }
    Writer w(std::cout);
    w.begin_object().begin_object("config");
    w.field("scheme", polymem::maf::scheme_name(cfg.scheme));
    w.field("p", cfg.p).field("q", cfg.q);
    w.field("height", cfg.height).field("width", cfg.width).end();
    w.begin_array("diagnostics");
    for (const Diagnostic& d : program.diagnostics)
      write_diagnostic(w, "program", d);
    for (const TraceResult& t : trace_reports)
      for (const Diagnostic& d : t.report.diagnostics)
        write_diagnostic(w, t.name, d);
    w.end();
    if (opt.prove) {
      w.begin_object("prove").field("ok", prover.ok);
      write_violations(w, prover.violations);
      w.end();
    }
    w.field("errors", errors).field("warnings", warnings);
    w.field("ok", clean).end();
  } else {
    std::printf("lint: %s scheme %s, %ux%u banks, %lld x %lld elements\n",
                opt.path.c_str(), polymem::maf::scheme_name(cfg.scheme),
                cfg.p, cfg.q, static_cast<long long>(cfg.height),
                static_cast<long long>(cfg.width));
    std::printf("program (%zu op(s)):\n%s\n", ops.size(),
                program.summary().c_str());
    for (const TraceResult& t : trace_reports) {
      std::printf("%s (%lld element(s)):\n%s\n", t.name.c_str(),
                  static_cast<long long>(t.size), t.report.summary().c_str());
    }
    if (opt.prove) std::printf("%s\n", prover.summary().c_str());
  }
  return clean ? 0 : 1;
}

int run_prove_affine(const Options& opt) {
  polymem::maf::Scheme scheme = polymem::maf::Scheme::kReRo;
  unsigned p = 2, q = 4;
  if (!opt.path.empty()) {
    const PolyMemConfig cfg = parse_config(ConfigFile::load(opt.path));
    scheme = cfg.scheme;
    p = cfg.p;
    q = cfg.q;
  }
  if (!opt.scheme_flag.empty())
    scheme = polymem::maf::scheme_from_name(opt.scheme_flag);
  if (opt.p_flag > 0) p = opt.p_flag;
  if (opt.q_flag > 0) q = opt.q_flag;

  const auto pattern = polymem::verify::AffinePattern::parse(opt.affine_spec);
  const auto report =
      polymem::verify::prove_affine_pattern(scheme, p, q, pattern);

  if (opt.json) {
    Writer w(std::cout);
    w.begin_object().field("mode", "prove-affine").begin_object("config");
    w.field("scheme", polymem::maf::scheme_name(report.scheme));
    w.field("p", report.p).field("q", report.q).end();
    w.field("pattern", report.pattern.spec());
    w.field("proven", polymem::maf::support_level_name(report.proven));
    if (report.counterexample.has_value())
      write_counterexample(w, *report.counterexample);
    write_violations(w, report.violations);
    w.field("ok", report.ok).end();
  } else {
    std::printf("%s\n", report.summary().c_str());
  }
  return report.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool usage_error = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto flag_value = [&](const char* name) -> std::string {
      if (++a >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", name);
        usage_error = true;
        return {};
      }
      return argv[a];
    };
    // A geometry flag's whole value must be a decimal integer >= 1; the
    // library rejects any geometry it cannot build.
    auto geometry_flag = [&](const char* name) -> unsigned {
      const std::string value = flag_value(name);
      if (usage_error) return 0;
      const auto n = polymem::parse_decimal(value);
      if (!n || *n < 1 || *n > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "error: %s needs a positive integer, got '%s'\n",
                     name, value.c_str());
        usage_error = true;
        return 0;
      }
      return static_cast<unsigned>(*n);
    };
    if (arg == "--example") {
      std::fputs(kExample, stdout);
      return 0;
    }
    if (arg == "--prove") {
      opt.prove = true;
    } else if (arg == "--format=json") {
      opt.json = true;
    } else if (arg == "--format=text") {
      opt.json = false;
    } else if (arg == "--prove-affine") {
      opt.affine_spec = flag_value("--prove-affine");
    } else if (arg == "--scheme") {
      opt.scheme_flag = flag_value("--scheme");
    } else if (arg == "--p") {
      opt.p_flag = geometry_flag("--p");
    } else if (arg == "--q") {
      opt.q_flag = geometry_flag("--q");
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error = true;
      break;
    } else if (opt.path.empty()) {
      opt.path = arg;
    } else {
      usage_error = true;
      break;
    }
  }
  if (usage_error || (opt.path.empty() && opt.affine_spec.empty())) {
    std::fprintf(stderr,
                 "usage: %s [--prove] [--format=text|json] <config-file>\n"
                 "       %s [--format=...] [--scheme S] [--p N] [--q N] "
                 "--prove-affine '<spec>' [config-file]\n"
                 "       %s --example\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  try {
    if (!opt.affine_spec.empty()) return run_prove_affine(opt);
    return run_lint(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
