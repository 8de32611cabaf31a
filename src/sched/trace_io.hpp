// Replayable access-trace serialization — the `polymem_replay` format.
//
// A recorded trace is a header plus one access tuple per line:
// direction, pattern, anchor, extent (anchor-walk count and stride) and
// an optional data checksum:
//
//   polymem-trace v1
//   geometry 2x4 space 64x64 seed 42
//   R row @ 0,0 x8 step 0,8 sum 59cbd17fe356cfde
//   W rect @ 4,8 x1
//
// The header pins the lane geometry (p x q — the tuples' shapes are
// meaningless without it), the address space and the canonical-data
// seed. Everything else — scheme, software cache, port count, execution
// engine — is chosen by the replay harness (src/replay): the trace is
// *polymorphic*, which is the paper's claim made executable.
//
// Checksums use a fixed data model so that recording and replay agree
// without shipping the data itself: memory starts as canonical_cell(seed)
// per element, and the k-th write op stores canonical_write_word(seed, k)
// words. Each op's checksum is FNV-1a over the words it moves, in
// canonical lane order. host_replay() evaluates this model with plain
// host arrays — it is the differential oracle every replay backend is
// compared against, bit for bit, from inside its per-op hook.
//
// The full grammar lives in docs/trace_format.md.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "access/pattern.hpp"
#include "common/error.hpp"
#include "core/access_batch.hpp"
#include "sched/trace.hpp"

namespace polymem::sched {

/// One replayable operation: a direction plus a constant-stride anchor
/// walk of a Table-I pattern — the textual twin of core::AccessBatch
/// (1D form; a 2D batch serializes as outer_count lines).
struct TraceOp {
  enum class Dir : std::uint8_t { kRead, kWrite };

  Dir dir = Dir::kRead;
  access::PatternKind kind = access::PatternKind::kRect;
  access::Coord anchor;
  access::Coord stride;    ///< anchor step between consecutive accesses
  std::int64_t count = 1;  ///< accesses in the walk
  std::optional<std::uint64_t> checksum;  ///< FNV-1a over the moved words

  /// The walk as a 1D strided batch for the batched engines.
  core::AccessBatch batch() const {
    return core::AccessBatch::strided(kind, anchor, stride, count);
  }

  friend bool operator==(const TraceOp&, const TraceOp&) = default;
};

const char* trace_dir_name(TraceOp::Dir dir);  ///< "R" / "W"

/// A parsed/recorded trace: header plus the op sequence.
struct RecordedTrace {
  unsigned p = 2, q = 4;                ///< recording lane geometry
  std::int64_t height = 0, width = 0;   ///< address space
  std::uint64_t seed = 0;               ///< canonical-data seed
  std::vector<TraceOp> ops;

  /// Total parallel accesses (sum of op counts).
  std::int64_t accesses() const;
  /// Total words moved (accesses() * p * q).
  std::int64_t words() const { return accesses() * p * q; }

  /// Flattens every op into an AccessTrace carrying full provenance
  /// (pattern kind + anchor alignment per access), ready for
  /// verify::lint_trace without the original program.
  AccessTrace access_trace() const;

  friend bool operator==(const RecordedTrace&, const RecordedTrace&) = default;
};

/// Typed parse failure: `line()` is the 1-based offending line. Malformed
/// input never crashes the parser — it throws this, and the CLI maps it
/// to a nonzero exit.
class TraceParseError : public Error {
 public:
  TraceParseError(int line, const std::string& what);
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses the text format; throws TraceParseError on malformed input.
RecordedTrace parse_trace(std::istream& in);
RecordedTrace parse_trace_text(const std::string& text);
/// Throws Error when the file cannot be opened.
RecordedTrace parse_trace_file(const std::string& path);

/// Prints the text format (parse_trace round-trips it bit-identically).
void print_trace(std::ostream& out, const RecordedTrace& trace);
std::string trace_to_string(const RecordedTrace& trace);
void write_trace_file(const std::string& path, const RecordedTrace& trace);

// ---- canonical data model ------------------------------------------------

/// Initial content of element (i, j) (splitmix64 of the flat index).
std::uint64_t canonical_cell(std::uint64_t seed, std::int64_t width,
                             access::Coord c);
/// The word-index-w payload of write op number `op` (ops numbered over
/// the whole trace, reads included; w < count * lanes).
std::uint64_t canonical_write_word(std::uint64_t seed, std::int64_t op,
                                   std::int64_t w);
/// FNV-1a (64-bit, byte-wise over little-endian words) of a word span.
std::uint64_t fnv1a(const std::uint64_t* words, std::size_t n);

/// The initial trace-space image, row-major height x width: every
/// element's canonical_cell.
std::vector<std::uint64_t> canonical_image(const RecordedTrace& trace);

/// Host-array evaluation of a trace under the canonical data model: the
/// final memory image (row-major height x width) and every op's
/// checksum. This is the replay oracle; it throws InvalidArgument when
/// an access leaves the address space, before any later op runs.
///
/// With `on_op`, op k's bounds check and host update are followed by
/// on_op(k, words): the words op k moved, in canonical lane order — the
/// host image's words for a read, the canonical payload for a write.
/// The replay loop (src/replay) serves each op on its engine from there.
struct HostReplay {
  std::vector<std::uint64_t> memory;
  std::vector<std::uint64_t> checksums;
};
using HostOpHook =
    std::function<void(std::size_t k, std::span<const std::uint64_t> words)>;
HostReplay host_replay(const RecordedTrace& trace,
                       const HostOpHook& on_op = {});

/// Fills every op's checksum from host_replay (recorders call this once
/// after the op stream is complete).
void annotate_checksums(RecordedTrace& trace);

// ---- recording -----------------------------------------------------------

/// Collects the accesses an application actually issues and folds
/// consecutive same-direction, same-pattern, constant-stride accesses
/// into single TraceOp walks: a core::BatchCoalescer detects each run.
/// finish() seals the trace and annotates canonical checksums.
class TraceRecorder {
 public:
  TraceRecorder(unsigned p, unsigned q, std::int64_t height,
                std::int64_t width, std::uint64_t seed = 42);

  void read(const access::ParallelAccess& access) {
    add(TraceOp::Dir::kRead, access);
  }
  void write(const access::ParallelAccess& access) {
    add(TraceOp::Dir::kWrite, access);
  }
  /// Records a whole strided batch (one op per outer row).
  void read_batch(const core::AccessBatch& batch) {
    add_batch(TraceOp::Dir::kRead, batch);
  }
  void write_batch(const core::AccessBatch& batch) {
    add_batch(TraceOp::Dir::kWrite, batch);
  }

  std::int64_t ops_recorded() const;

  /// Seals the pending run, annotates checksums, returns the trace.
  /// The recorder is reusable afterwards (empty op stream, same header).
  RecordedTrace finish();

 private:
  void add(TraceOp::Dir dir, const access::ParallelAccess& access);
  void add_batch(TraceOp::Dir dir, const core::AccessBatch& batch);
  void flush_run();

  RecordedTrace trace_;
  core::BatchCoalescer run_;  // pending run's pattern, anchors and stride
  TraceOp::Dir run_dir_ = TraceOp::Dir::kRead;
};

}  // namespace polymem::sched
