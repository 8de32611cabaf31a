#include "sched/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace polymem::sched {

using access::Coord;
using access::ParallelAccess;
using access::PatternKind;

namespace {

// splitmix64 (same constants as runtime::derive_seed, kept local so the
// trace format has no dependency on the thread pool).
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Tag separating the write-payload stream from the initial-cell stream.
constexpr std::uint64_t kWriteTag = 0xA5A5A5A5DEADBEEFull;

// Parser bounds (docs/trace_format.md): replay allocates the whole address
// space and each op's words, so the text must not decide how much memory
// that is. kMaxLanes is the bound maf::Maf enforces.
constexpr std::int64_t kMaxLanes = std::int64_t{1} << 20;
constexpr std::int64_t kMaxCells = std::int64_t{1} << 24;
constexpr std::int64_t kMaxOpWords = std::int64_t{1} << 24;
// Anchor and stride components: with counts bounded by kMaxOpWords, every
// anchor of an op, and every element of its accesses, fits int64.
constexpr std::int64_t kMaxCoord = std::int64_t{1} << 31;

}  // namespace

const char* trace_dir_name(TraceOp::Dir dir) {
  return dir == TraceOp::Dir::kRead ? "R" : "W";
}

std::int64_t RecordedTrace::accesses() const {
  std::int64_t n = 0;
  for (const TraceOp& op : ops) n += op.count;
  return n;
}

AccessTrace RecordedTrace::access_trace() const {
  std::vector<ParallelAccess> flat;
  flat.reserve(static_cast<std::size_t>(accesses()));
  for (const TraceOp& op : ops)
    for (std::int64_t t = 0; t < op.count; ++t)
      flat.push_back({op.kind,
                      {op.anchor.i + t * op.stride.i,
                       op.anchor.j + t * op.stride.j}});
  return AccessTrace::from_accesses(flat, p, q);
}

TraceParseError::TraceParseError(int line, const std::string& what)
    : Error("trace parse error at line " + std::to_string(line) + ": " +
            what),
      line_(line) {}

// ---- parsing -------------------------------------------------------------

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::int64_t parse_int(const std::string& tok, int line, const char* what) {
  std::int64_t value = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
  if (ec != std::errc() || ptr != end)
    throw TraceParseError(line, std::string("bad ") + what + " '" + tok +
                                    "'");
  return value;
}

Coord parse_coord(const std::string& tok, int line, const char* what) {
  const std::size_t comma = tok.find(',');
  if (comma == std::string::npos || comma == 0 || comma + 1 == tok.size())
    throw TraceParseError(line, std::string("bad ") + what + " '" + tok +
                                    "' (expected i,j)");
  const Coord c{parse_int(tok.substr(0, comma), line, what),
                parse_int(tok.substr(comma + 1), line, what)};
  if (c.i < -kMaxCoord || c.i > kMaxCoord || c.j < -kMaxCoord ||
      c.j > kMaxCoord)
    throw TraceParseError(line, std::string(what) + " '" + tok +
                                    "' exceeds +-2^31");
  return c;
}

// "2x4" -> (2, 4); both components must be positive.
std::pair<std::int64_t, std::int64_t> parse_pair_x(const std::string& tok,
                                                   int line,
                                                   const char* what) {
  const std::size_t x = tok.find('x');
  if (x == std::string::npos || x == 0 || x + 1 == tok.size())
    throw TraceParseError(line, std::string("bad ") + what + " '" + tok +
                                    "' (expected AxB)");
  const std::int64_t a = parse_int(tok.substr(0, x), line, what);
  const std::int64_t b = parse_int(tok.substr(x + 1), line, what);
  if (a < 1 || b < 1)
    throw TraceParseError(line, std::string(what) + " must be positive");
  return {a, b};
}

std::uint64_t parse_sum(const std::string& tok, int line) {
  if (tok.size() != 16)
    throw TraceParseError(line, "checksum must be 16 hex digits, got '" +
                                    tok + "'");
  std::uint64_t value = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, value, 16);
  if (ec != std::errc() || ptr != end)
    throw TraceParseError(line, "bad checksum '" + tok + "'");
  return value;
}

TraceOp parse_op(const std::vector<std::string>& tok, int line,
                 std::int64_t lanes) {
  TraceOp op;
  if (tok[0] == "R")
    op.dir = TraceOp::Dir::kRead;
  else if (tok[0] == "W")
    op.dir = TraceOp::Dir::kWrite;
  else
    throw TraceParseError(line, "unknown direction '" + tok[0] +
                                    "' (expected R or W)");
  if (tok.size() < 4 || tok[2] != "@")
    throw TraceParseError(line,
                          "expected '<dir> <pattern> @ <i,j> ...'");
  try {
    op.kind = access::pattern_from_name(tok[1]);
  } catch (const Error&) {
    throw TraceParseError(line, "unknown pattern '" + tok[1] + "'");
  }
  op.anchor = parse_coord(tok[3], line, "anchor");

  std::size_t i = 4;
  if (i < tok.size() && tok[i].size() > 1 && tok[i][0] == 'x') {
    op.count = parse_int(tok[i].substr(1), line, "count");
    if (op.count < 1) throw TraceParseError(line, "count must be >= 1");
    if (op.count > kMaxOpWords / lanes)
      throw TraceParseError(line, "count x lanes exceeds " +
                                      std::to_string(kMaxOpWords) + " words");
    ++i;
  }
  if (i < tok.size() && tok[i] == "step") {
    if (i + 1 >= tok.size())
      throw TraceParseError(line, "'step' needs a stride");
    op.stride = parse_coord(tok[i + 1], line, "stride");
    i += 2;
  }
  if (i < tok.size() && tok[i] == "sum") {
    if (i + 1 >= tok.size())
      throw TraceParseError(line, "'sum' needs a checksum");
    op.checksum = parse_sum(tok[i + 1], line);
    i += 2;
  }
  if (i != tok.size())
    throw TraceParseError(line, "trailing junk '" + tok[i] + "'");
  return op;
}

}  // namespace

RecordedTrace parse_trace(std::istream& in) {
  RecordedTrace trace;
  std::string line;
  int lineno = 0;
  bool saw_magic = false, saw_geometry = false;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    if (!saw_magic) {
      if (tok.size() != 2 || tok[0] != "polymem-trace" || tok[1] != "v1")
        throw TraceParseError(lineno,
                              "expected header 'polymem-trace v1'");
      saw_magic = true;
      continue;
    }
    if (!saw_geometry) {
      if (tok.size() != 6 || tok[0] != "geometry" || tok[2] != "space" ||
          tok[4] != "seed")
        throw TraceParseError(
            lineno, "expected 'geometry PxQ space HxW seed N'");
      const auto [p, q] = parse_pair_x(tok[1], lineno, "geometry");
      const auto [h, w] = parse_pair_x(tok[3], lineno, "space");
      // Both factors are >= 1, so a > max / b is a * b > max, unoverflowed.
      if (p > kMaxLanes / q)
        throw TraceParseError(lineno, "geometry exceeds " +
                                          std::to_string(kMaxLanes) + " lanes");
      if (h > kMaxCells / w)
        throw TraceParseError(lineno, "space exceeds " +
                                          std::to_string(kMaxCells) + " cells");
      trace.p = static_cast<unsigned>(p);
      trace.q = static_cast<unsigned>(q);
      trace.height = h;
      trace.width = w;
      trace.seed =
          static_cast<std::uint64_t>(parse_int(tok[5], lineno, "seed"));
      saw_geometry = true;
      continue;
    }
    trace.ops.push_back(
        parse_op(tok, lineno, static_cast<std::int64_t>(trace.p) * trace.q));
  }
  if (!saw_magic)
    throw TraceParseError(lineno + 1, "missing 'polymem-trace v1' header");
  if (!saw_geometry)
    throw TraceParseError(lineno + 1, "missing geometry header");
  return trace;
}

RecordedTrace parse_trace_text(const std::string& text) {
  std::istringstream in(text);
  return parse_trace(in);
}

RecordedTrace parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  POLYMEM_REQUIRE(in.good(), "cannot open trace file: " + path);
  return parse_trace(in);
}

void print_trace(std::ostream& out, const RecordedTrace& trace) {
  out << "polymem-trace v1\n"
      << "geometry " << trace.p << "x" << trace.q << " space "
      << trace.height << "x" << trace.width << " seed " << trace.seed
      << "\n";
  char sum[17];
  for (const TraceOp& op : trace.ops) {
    out << trace_dir_name(op.dir) << " " << access::pattern_name(op.kind)
        << " @ " << op.anchor.i << "," << op.anchor.j << " x" << op.count;
    if (op.count > 1)
      out << " step " << op.stride.i << "," << op.stride.j;
    if (op.checksum) {
      std::snprintf(sum, sizeof(sum), "%016llx",
                    static_cast<unsigned long long>(*op.checksum));
      out << " sum " << sum;
    }
    out << "\n";
  }
}

std::string trace_to_string(const RecordedTrace& trace) {
  std::ostringstream out;
  print_trace(out, trace);
  return out.str();
}

void write_trace_file(const std::string& path, const RecordedTrace& trace) {
  std::ofstream out(path);
  POLYMEM_REQUIRE(out.good(), "cannot write trace file: " + path);
  print_trace(out, trace);
}

// ---- canonical data model ------------------------------------------------

std::uint64_t canonical_cell(std::uint64_t seed, std::int64_t width,
                             Coord c) {
  return splitmix(seed ^ static_cast<std::uint64_t>(c.i * width + c.j));
}

std::uint64_t canonical_write_word(std::uint64_t seed, std::int64_t op,
                                   std::int64_t w) {
  return splitmix(splitmix(seed ^ kWriteTag ^ static_cast<std::uint64_t>(op)) ^
                  static_cast<std::uint64_t>(w));
}

std::uint64_t fnv1a(const std::uint64_t* words, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i)
    for (int b = 0; b < 8; ++b) {
      h ^= (words[i] >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  return h;
}

std::vector<std::uint64_t> canonical_image(const RecordedTrace& trace) {
  std::vector<std::uint64_t> image;
  image.reserve(static_cast<std::size_t>(trace.height * trace.width));
  for (std::int64_t i = 0; i < trace.height; ++i)
    for (std::int64_t j = 0; j < trace.width; ++j)
      image.push_back(canonical_cell(trace.seed, trace.width, {i, j}));
  return image;
}

HostReplay host_replay(const RecordedTrace& trace, const HostOpHook& on_op) {
  POLYMEM_REQUIRE(trace.height >= 1 && trace.width >= 1,
                  "trace has an empty address space");
  HostReplay result;
  result.memory = canonical_image(trace);

  const auto lanes = static_cast<std::int64_t>(trace.p) * trace.q;
  std::vector<Coord> coords;
  std::vector<std::uint64_t> words;
  result.checksums.reserve(trace.ops.size());
  for (std::size_t k = 0; k < trace.ops.size(); ++k) {
    const TraceOp& op = trace.ops[k];
    words.clear();
    words.reserve(static_cast<std::size_t>(op.count * lanes));
    for (std::int64_t t = 0; t < op.count; ++t) {
      const ParallelAccess a{op.kind,
                             {op.anchor.i + t * op.stride.i,
                              op.anchor.j + t * op.stride.j}};
      access::expand_into(a, trace.p, trace.q, coords);
      for (std::size_t l = 0; l < coords.size(); ++l) {
        const Coord c = coords[l];
        POLYMEM_REQUIRE(c.i >= 0 && c.i < trace.height && c.j >= 0 &&
                            c.j < trace.width,
                        "trace op " + std::to_string(k) +
                            " leaves the address space");
        const auto flat = static_cast<std::size_t>(c.i * trace.width + c.j);
        if (op.dir == TraceOp::Dir::kRead) {
          words.push_back(result.memory[flat]);
        } else {
          const std::uint64_t v = canonical_write_word(
              trace.seed, static_cast<std::int64_t>(k),
              t * lanes + static_cast<std::int64_t>(l));
          result.memory[flat] = v;
          words.push_back(v);
        }
      }
    }
    result.checksums.push_back(fnv1a(words.data(), words.size()));
    if (on_op) on_op(k, words);
  }
  return result;
}

void annotate_checksums(RecordedTrace& trace) {
  const HostReplay host = host_replay(trace);
  for (std::size_t k = 0; k < trace.ops.size(); ++k)
    trace.ops[k].checksum = host.checksums[k];
}

// ---- recording -----------------------------------------------------------

TraceRecorder::TraceRecorder(unsigned p, unsigned q, std::int64_t height,
                             std::int64_t width, std::uint64_t seed) {
  POLYMEM_REQUIRE(p >= 1 && q >= 1, "bank geometry must be at least 1x1");
  POLYMEM_REQUIRE(height >= 1 && width >= 1,
                  "address space must be non-empty");
  trace_.p = p;
  trace_.q = q;
  trace_.height = height;
  trace_.width = width;
  trace_.seed = seed;
}

std::int64_t TraceRecorder::ops_recorded() const {
  return static_cast<std::int64_t>(trace_.ops.size()) + (run_.empty() ? 0 : 1);
}

void TraceRecorder::flush_run() {
  if (run_.empty()) return;
  const core::AccessBatch batch = run_.take();
  trace_.ops.push_back({run_dir_, batch.kind, batch.start, batch.inner_stride,
                        batch.inner_count, std::nullopt});
}

void TraceRecorder::add(TraceOp::Dir dir, const ParallelAccess& access) {
  // A run holds one direction; BatchCoalescer folds the pattern and stride.
  if (!run_.empty() && dir == run_dir_ && run_.try_add(access)) return;
  flush_run();
  run_dir_ = dir;
  run_.try_add(access);
}

void TraceRecorder::add_batch(TraceOp::Dir dir,
                              const core::AccessBatch& batch) {
  for (std::int64_t t = 0; t < batch.count(); ++t) add(dir, batch.access(t));
}

RecordedTrace TraceRecorder::finish() {
  flush_run();
  annotate_checksums(trace_);
  RecordedTrace out = trace_;
  trace_.ops.clear();
  return out;
}

}  // namespace polymem::sched
