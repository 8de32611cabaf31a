#include "verify/plan_lint.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "maf/conflict.hpp"
#include "verify/affine_prover.hpp"

namespace polymem::verify {

using access::Coord;
using access::PatternKind;
using core::AccessBatch;

const char* lint_code(LintKind kind) {
  switch (kind) {
    case LintKind::kBadConfig: return "PML001";
    case LintKind::kEmptyBatch: return "PML002";
    case LintKind::kUnsupportedPattern: return "PML003";
    case LintKind::kUnalignedAnchor: return "PML004";
    case LintKind::kMisalignedStride: return "PML005";
    case LintKind::kOutOfBounds: return "PML006";
    case LintKind::kBankConflict: return "PML007";
    case LintKind::kReadAfterWrite: return "PML008";
    case LintKind::kTraceOutOfBounds: return "PML009";
    case LintKind::kBankImbalance: return "PML010";
  }
  throw InvalidArgument("unknown lint kind");
}

const char* lint_name(LintKind kind) {
  switch (kind) {
    case LintKind::kBadConfig: return "bad-config";
    case LintKind::kEmptyBatch: return "empty-batch";
    case LintKind::kUnsupportedPattern: return "unsupported-pattern";
    case LintKind::kUnalignedAnchor: return "unaligned-anchor";
    case LintKind::kMisalignedStride: return "misaligned-stride";
    case LintKind::kOutOfBounds: return "out-of-bounds";
    case LintKind::kBankConflict: return "bank-conflict";
    case LintKind::kReadAfterWrite: return "read-after-write";
    case LintKind::kTraceOutOfBounds: return "trace-out-of-bounds";
    case LintKind::kBankImbalance: return "bank-imbalance";
  }
  throw InvalidArgument("unknown lint kind");
}

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  throw InvalidArgument("unknown severity");
}

const char* dir_name(BatchOp::Dir dir) {
  switch (dir) {
    case BatchOp::Dir::kRead: return "read";
    case BatchOp::Dir::kWrite: return "write";
  }
  throw InvalidArgument("unknown batch direction");
}

std::size_t LintReport::errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

std::size_t LintReport::warnings() const {
  return diagnostics.size() - errors();
}

std::string LintReport::summary() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics)
    os << severity_name(d.severity) << ' ' << d.message << '\n';
  if (diagnostics.empty()) {
    os << "clean";
  } else {
    os << errors() << " error(s), " << warnings() << " warning(s)";
  }
  return os.str();
}

namespace {

/// Inclusive element rectangle [lo, hi] touched by a batch; empty batches
/// have no rectangle.
struct Rect {
  Coord lo;
  Coord hi;

  bool intersects(const Rect& other) const {
    return lo.i <= other.hi.i && other.lo.i <= hi.i && lo.j <= other.hi.j &&
           other.lo.j <= hi.j;
  }
};

std::string rect_str(const Rect& r) {
  std::ostringstream os;
  os << '[' << r.lo.i << ".." << r.hi.i << "]x[" << r.lo.j << ".." << r.hi.j
     << ']';
  return os.str();
}

/// Corner `corner` (bit 0: last inner index, bit 1: last outer index) of
/// the batch's anchor grid; nullopt when a coordinate overflows int64.
std::optional<Coord> batch_corner(const AccessBatch& batch, int corner) {
  return batch.anchor((corner & 2) ? batch.outer_count - 1 : 0,
                      (corner & 1) ? batch.inner_count - 1 : 0);
}

/// The element extent of one access of the op relative to its anchor:
/// the pattern extent for Table-I ops, the lane bounding box for affine
/// ops. Expressed as inclusive offset bounds.
AffinePattern::Box op_extent(const BatchOp& step, unsigned p, unsigned q) {
  if (step.affine.has_value()) return step.affine->bounding_box();
  const auto ext = access::pattern_extent(step.batch.kind, p, q);
  AffinePattern::Box box;
  box.min_j = ext.col_offset;
  box.max_i = ext.rows - 1;
  box.max_j = ext.col_offset + ext.cols - 1;
  return box;
}

/// The op's element bounding rectangle. Anchors are affine in the
/// (inner, outer) index box, so the extremes occur at the four corners.
/// nullopt for an empty op, or one whose rectangle overflows int64.
std::optional<Rect> batch_rect(const BatchOp& step, unsigned p, unsigned q) {
  const AccessBatch& batch = step.batch;
  if (batch.inner_count <= 0 || batch.outer_count <= 0) return std::nullopt;
  Rect r{batch.start, batch.start};
  for (int corner = 1; corner < 4; ++corner) {
    const auto a = batch_corner(batch, corner);
    if (!a) return std::nullopt;
    r.lo.i = std::min(r.lo.i, a->i);
    r.lo.j = std::min(r.lo.j, a->j);
    r.hi.i = std::max(r.hi.i, a->i);
    r.hi.j = std::max(r.hi.j, a->j);
  }
  const AffinePattern::Box box = op_extent(step, p, q);
  if (__builtin_add_overflow(r.lo.i, box.min_i, &r.lo.i) ||
      __builtin_add_overflow(r.lo.j, box.min_j, &r.lo.j) ||
      __builtin_add_overflow(r.hi.i, box.max_i, &r.hi.i) ||
      __builtin_add_overflow(r.hi.j, box.max_j, &r.hi.j))
    return std::nullopt;
  return r;
}

/// "row" for Table-I ops, "affine 'lanes ...'" for affine ops.
std::string op_display(const BatchOp& step) {
  if (!step.affine.has_value()) return access::pattern_name(step.batch.kind);
  return "affine '" + step.affine->spec() + "'";
}

std::string op_prefix(std::int64_t op, const BatchOp& step) {
  std::ostringstream os;
  os << "op " << op << " (" << dir_name(step.dir) << ' ' << op_display(step)
     << " at " << step.batch.start << "): ";
  return os.str();
}

class Linter {
 public:
  explicit Linter(const core::PolyMemConfig& config) : config_(config) {}

  LintReport take() { return std::move(report_); }

  void add(LintKind kind, Severity severity, std::int64_t op,
           const std::string& detail,
           std::optional<AffineCounterexample> counterexample = std::nullopt) {
    Diagnostic d;
    d.kind = kind;
    d.severity = severity;
    d.op = op;
    d.message = std::string("[") + lint_code(kind) + "] " + detail;
    d.counterexample = std::move(counterexample);
    report_.diagnostics.push_back(std::move(d));
  }

  /// Validates the configuration and builds the MAF; emits kBadConfig and
  /// returns false when the configuration cannot be analysed at all.
  bool init() {
    try {
      config_.validate();
      maf_.emplace(config_.scheme, config_.p, config_.q);
      sym_ = SymbolicMaf::of(*maf_);
      return true;
    } catch (const Error& e) {
      add(LintKind::kBadConfig, Severity::kError, -1, e.what());
      return false;
    }
  }

  void lint_op(std::int64_t op, const BatchOp& step) {
    const AccessBatch& batch = step.batch;
    const std::string prefix = op_prefix(op, step);
    if (batch.inner_count < 0 || batch.outer_count < 0) {
      std::ostringstream os;
      os << prefix << "negative batch counts (inner " << batch.inner_count
         << ", outer " << batch.outer_count << ')';
      add(LintKind::kEmptyBatch, Severity::kError, op, os.str());
      return;
    }
    if (batch.inner_count == 0 || batch.outer_count == 0) {
      add(LintKind::kEmptyBatch, Severity::kWarning, op,
          prefix + "batch moves no data");
      return;
    }
    for (int corner = 0; corner < 4; ++corner) {
      if (batch_corner(batch, corner)) continue;
      // An anchor past int64 lies in no address space, so the op's support,
      // alignment and conflicts mean nothing: report the bounds alone.
      std::ostringstream os;
      os << prefix << "a corner anchor of the grid from " << batch.start
         << " overflows int64 and leaves the address space";
      add(LintKind::kOutOfBounds, Severity::kError, op, os.str());
      return;
    }
    if (step.affine.has_value()) {
      lint_affine_op(op, prefix, step);
      return;
    }
    const maf::SupportLevel level = maf::probe_support(*maf_, batch.kind);
    if (level == maf::SupportLevel::kNone) {
      std::ostringstream os;
      os << prefix << "scheme " << maf::scheme_name(config_.scheme) << " ("
         << config_.p << 'x' << config_.q << ") never serves pattern "
         << access::pattern_name(batch.kind);
      add(LintKind::kUnsupportedPattern, Severity::kError, op, os.str());
      report_conflict(op, prefix, batch);
    } else if (level == maf::SupportLevel::kAligned) {
      lint_alignment(op, prefix, batch);
    }
    lint_bounds(op, prefix, batch);
  }

  /// Admission of an arbitrary affine op: the symbolic prover replaces
  /// the capability oracle. Proven-kAny patterns are admitted silently;
  /// proven-kAligned patterns get the standard anchor/stride alignment
  /// lint; refuted patterns are errors carrying the collision witness.
  void lint_affine_op(std::int64_t op, const std::string& prefix,
                      const BatchOp& step) {
    const AffinePattern& pattern = *step.affine;
    const AffineVerdict any =
        prove_conflict_free(sym_, pattern, AnchorClass::kAny);
    if (!any.degenerate.empty()) {
      add(LintKind::kEmptyBatch, Severity::kError, op,
          prefix + "affine pattern is degenerate: " + any.degenerate);
      return;
    }
    const auto lanes = static_cast<std::int64_t>(config_.lanes());
    if (pattern.count() != lanes) {
      std::ostringstream os;
      os << prefix << "affine pattern has " << pattern.count()
         << " lanes; a " << config_.p << 'x' << config_.q
         << " memory issues " << lanes << " lanes per access";
      add(LintKind::kUnsupportedPattern, Severity::kError, op, os.str());
    } else {
      AffineCounterexample cx;
      const maf::SupportLevel level = prove_affine_support(sym_, pattern, &cx);
      if (level == maf::SupportLevel::kNone) {
        std::ostringstream os;
        os << prefix << "scheme " << maf::scheme_name(config_.scheme) << " ("
           << config_.p << 'x' << config_.q
           << ") cannot serve the affine pattern conflict-free: " << cx.str();
        add(LintKind::kUnsupportedPattern, Severity::kError, op, os.str(), cx);
      } else if (level == maf::SupportLevel::kAligned) {
        lint_affine_alignment(op, prefix, step, cx);
      }
    }
    lint_affine_bounds(op, prefix, step);
  }

  /// At most one PML008 per read: it names the nearest earlier write
  /// that overlaps the read and counts the other overlapping writes, so
  /// a long trace warns once per read, not once per (write, read) pair.
  void lint_hazards(const std::vector<BatchOp>& ops) {
    std::vector<std::pair<std::size_t, Rect>> writes;
    for (std::size_t r = 0; r < ops.size(); ++r) {
      const auto rect = batch_rect(ops[r], config_.p, config_.q);
      if (!rect.has_value()) continue;
      if (ops[r].dir == BatchOp::Dir::kWrite) {
        writes.emplace_back(r, *rect);
        continue;
      }
      const std::pair<std::size_t, Rect>* nearest = nullptr;
      std::size_t others = 0;
      for (auto w = writes.rbegin(); w != writes.rend(); ++w) {
        if (!w->second.intersects(*rect)) continue;
        if (nearest == nullptr) {
          nearest = &*w;
        } else {
          ++others;
        }
      }
      if (nearest == nullptr) continue;
      std::ostringstream os;
      os << "op " << r << " reads " << rect_str(*rect)
         << ", overlapping elements op " << nearest->first << " writes ("
         << rect_str(nearest->second) << ')';
      if (others > 0) os << " and " << others << " earlier write(s)";
      os << "; on pipelined hardware the read can issue before the "
            "write retires — order the batches";
      add(LintKind::kReadAfterWrite, Severity::kWarning,
          static_cast<std::int64_t>(r), os.str());
    }
  }

  void lint_trace(const sched::AccessTrace& trace) {
    const auto outside =
        trace.out_of_bounds(config_.height, config_.width);
    if (!outside.empty()) {
      std::ostringstream os;
      os << outside.size() << " trace element(s) outside the "
         << config_.height << 'x' << config_.width << " space, e.g. "
         << outside.front();
      add(LintKind::kTraceOutOfBounds, Severity::kError, -1, os.str());
    }
    if (trace.empty()) return;
    const unsigned n = config_.lanes();
    std::vector<std::int64_t> load(n, 0);
    for (const Coord& c : trace.elements()) ++load[maf_->bank(c)];
    const auto worst = std::max_element(load.begin(), load.end());
    const std::int64_t ideal = ceil_div<std::int64_t>(trace.size(), n);
    if (*worst >= 2 * ideal && *worst >= 2) {
      std::ostringstream os;
      os << "bank " << worst - load.begin() << " holds " << *worst << " of "
         << trace.size() << " trace elements (balanced would be " << ideal
         << "); every schedule needs at least " << *worst << " cycles";
      add(LintKind::kBankImbalance, Severity::kWarning, -1, os.str());
    }
  }

 private:
  /// PML004/PML005 for an affine op whose proof only covers aligned
  /// anchors; `unaligned_cx` is the witness ruling out arbitrary anchors.
  void lint_affine_alignment(std::int64_t op, const std::string& prefix,
                             const BatchOp& step,
                             const AffineCounterexample& unaligned_cx) {
    const AccessBatch& batch = step.batch;
    const auto p = static_cast<std::int64_t>(config_.p);
    const auto q = static_cast<std::int64_t>(config_.q);
    if (batch.start.i % p != 0 || batch.start.j % q != 0) {
      std::ostringstream os;
      os << prefix << "affine pattern is proven conflict-free only at " << p
         << '/' << q << "-aligned anchors; start " << batch.start
         << " is unaligned (unaligned witness: " << unaligned_cx.str() << ')';
      add(LintKind::kUnalignedAnchor, Severity::kError, op, os.str(),
          unaligned_cx);
    }
    const Coord strides[] = {batch.inner_stride, batch.outer_stride};
    const std::int64_t counts[] = {batch.inner_count, batch.outer_count};
    const char* names[] = {"inner", "outer"};
    for (int s = 0; s < 2; ++s) {
      if (counts[s] <= 1) continue;  // stride never applied
      if (strides[s].i % p == 0 && strides[s].j % q == 0) continue;
      std::ostringstream os;
      os << prefix << names[s] << " stride " << strides[s] << " leaves the "
         << p << '/' << q
         << "-aligned anchor lattice required by the affine pattern";
      add(LintKind::kMisalignedStride, Severity::kError, op, os.str(),
          unaligned_cx);
    }
  }

  /// PML006 for affine ops: corner anchors plus the lane bounding box
  /// must stay inside the address space.
  void lint_affine_bounds(std::int64_t op, const std::string& prefix,
                          const BatchOp& step) {
    const AffinePattern::Box box = step.affine->bounding_box();
    const AccessBatch& batch = step.batch;
    Coord reported[4];
    int reported_count = 0;
    for (int corner = 0; corner < 4; ++corner) {
      const Coord a = *batch_corner(batch, corner);  // lint_op checked
      if (a.i >= -box.min_i && a.i < config_.height - box.max_i &&
          a.j >= -box.min_j && a.j < config_.width - box.max_j)
        continue;
      bool seen = false;
      for (int r = 0; r < reported_count; ++r) seen = seen || reported[r] == a;
      if (seen) continue;
      reported[reported_count++] = a;
      std::ostringstream os;
      os << prefix << "corner access at " << a << " (lane elements ["
         << a.i + box.min_i << ".." << a.i + box.max_i << "]x["
         << a.j + box.min_j << ".." << a.j + box.max_j << "]) leaves the "
         << config_.height << 'x' << config_.width << " address space";
      add(LintKind::kOutOfBounds, Severity::kError, op, os.str());
    }
  }

  void lint_alignment(std::int64_t op, const std::string& prefix,
                      const AccessBatch& batch) {
    const auto p = static_cast<std::int64_t>(config_.p);
    const auto q = static_cast<std::int64_t>(config_.q);
    bool broken = false;
    if (batch.start.i % p != 0 || batch.start.j % q != 0) {
      std::ostringstream os;
      os << prefix << "pattern " << access::pattern_name(batch.kind)
         << " is conflict-free only at " << p << '/' << q
         << "-aligned anchors; start " << batch.start << " is unaligned";
      add(LintKind::kUnalignedAnchor, Severity::kError, op, os.str());
      broken = true;
    }
    const Coord strides[] = {batch.inner_stride, batch.outer_stride};
    const std::int64_t counts[] = {batch.inner_count, batch.outer_count};
    const char* names[] = {"inner", "outer"};
    for (int s = 0; s < 2; ++s) {
      if (counts[s] <= 1) continue;  // stride never applied
      if (strides[s].i % p == 0 && strides[s].j % q == 0) continue;
      std::ostringstream os;
      os << prefix << names[s] << " stride " << strides[s]
         << " leaves the " << p << '/' << q
         << "-aligned anchor lattice required by pattern "
         << access::pattern_name(batch.kind);
      add(LintKind::kMisalignedStride, Severity::kError, op, os.str());
      broken = true;
    }
    if (broken) report_conflict(op, prefix, batch);
  }

  void lint_bounds(std::int64_t op, const std::string& prefix,
                   const AccessBatch& batch) {
    Coord reported[4];
    int reported_count = 0;
    for (int corner = 0; corner < 4; ++corner) {
      const Coord a = *batch_corner(batch, corner);  // lint_op checked
      if (access::fits({batch.kind, a}, config_.p, config_.q, config_.height,
                       config_.width))
        continue;
      bool seen = false;
      for (int r = 0; r < reported_count; ++r) seen = seen || reported[r] == a;
      if (seen) continue;
      reported[reported_count++] = a;
      std::ostringstream os;
      os << prefix << "corner access at " << a << " leaves the "
         << config_.height << 'x' << config_.width << " address space";
      add(LintKind::kOutOfBounds, Severity::kError, op, os.str());
    }
  }

  /// Finds the first batch anchor whose expansion collides and reports the
  /// offending lane pair and the worst per-bank load (the serialization
  /// cost a conflict-tolerant memory would pay).
  void report_conflict(std::int64_t op, const std::string& prefix,
                       const AccessBatch& batch) {
    constexpr std::int64_t kMaxAnchorsScanned = 4096;
    const unsigned n = config_.lanes();
    std::vector<Coord> el;
    std::vector<unsigned> lane_of(n);
    std::vector<unsigned> load(n);
    const std::int64_t total = batch.count();
    for (std::int64_t t = 0; t < std::min(total, kMaxAnchorsScanned); ++t) {
      const access::ParallelAccess acc = batch.access(t);
      access::expand_into(acc, config_.p, config_.q, el);
      std::fill(lane_of.begin(), lane_of.end(), n);
      std::fill(load.begin(), load.end(), 0u);
      unsigned first = n, second = n, bank = n;
      for (unsigned k = 0; k < el.size(); ++k) {
        const unsigned b = maf_->bank(el[k]);
        ++load[b];
        if (lane_of[b] != n && first == n) {
          first = lane_of[b];
          second = k;
          bank = b;
        }
        lane_of[b] = k;
      }
      if (first == n) continue;
      const unsigned worst = *std::max_element(load.begin(), load.end());
      std::ostringstream os;
      os << prefix << "pattern " << access::pattern_name(acc.kind) << " at "
         << acc.anchor << ": lanes " << first << " and " << second
         << " (elements " << el[first] << " and " << el[second]
         << ") both map to bank " << bank << "; worst bank serves " << worst
         << " of " << n << " lanes (" << worst << "-cycle serialization)";
      AffineCounterexample cx;
      cx.anchor = acc.anchor;
      cx.lane_a = first;
      cx.lane_b = second;
      cx.elem_a = el[first];
      cx.elem_b = el[second];
      cx.bank = bank;
      add(LintKind::kBankConflict, Severity::kWarning, op, os.str(), cx);
      return;
    }
  }

  core::PolyMemConfig config_;
  std::optional<maf::Maf> maf_;
  SymbolicMaf sym_;
  LintReport report_;
};

}  // namespace

LintReport lint_batch(const core::PolyMemConfig& config,
                      const core::AccessBatch& batch) {
  return lint_program(config, {{BatchOp::Dir::kRead, batch}});
}

LintReport lint_program(const core::PolyMemConfig& config,
                        const std::vector<BatchOp>& ops) {
  Linter linter(config);
  if (linter.init()) {
    for (std::size_t t = 0; t < ops.size(); ++t)
      linter.lint_op(static_cast<std::int64_t>(t), ops[t]);
    linter.lint_hazards(ops);
  }
  return linter.take();
}

LintReport lint_trace(const core::PolyMemConfig& config,
                      const sched::AccessTrace& trace) {
  Linter linter(config);
  if (linter.init()) linter.lint_trace(trace);
  return linter.take();
}

}  // namespace polymem::verify
