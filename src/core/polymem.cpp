#include "core/polymem.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "core/shuffle.hpp"
#include "core/simd/dispatch.hpp"

namespace polymem::core {

PolyMem::PolyMem(PolyMemConfig config)
    : config_((config.validate(), config)),
      maf_(config.scheme, config.p, config.q),
      addressing_(config.p, config.q, config.height, config.width),
      agu_(config_, maf_, addressing_),
      banks_(config.lanes(), config.read_ports, config.words_per_bank()),
      plan_cache_(config_, maf_, banks_) {
  // Sized once here; every later access reuses the buffers (the AGU's
  // resize calls become no-ops and expansion never reallocates).
  const unsigned lanes = config_.lanes();
  scratch_.plan.reserve(lanes);
  scratch_.bank_addr.resize(lanes);
  scratch_.bank_data.resize(lanes);
}

maf::SupportLevel PolyMem::supports(access::PatternKind pattern) const {
  return plan_cache_.support(pattern);
}

const PlanTemplate* PolyMem::resolve(const access::ParallelAccess& where,
                                     std::int64_t& delta) {
  if (use_plan_cache_) {
    if (const PlanTemplate* t = plan_cache_.lookup(where, delta)) return t;
  }
  agu_.expand_into(where, scratch_.plan);
  return nullptr;
}

void PolyMem::execute_read(const PlanTemplate* t, std::int64_t delta,
                           unsigned port, std::span<Word> out) {
  if (t != nullptr) {
    const std::uintptr_t* table = t->lane_base.data();
    simd::gather(&table, port, config_.lanes(), &delta, 1, out.data());
    return;
  }
  address_shuffle(scratch_.plan, scratch_.bank_addr);
  banks_.read(port, scratch_.bank_addr, scratch_.bank_data);
  read_data_shuffle(scratch_.plan, scratch_.bank_data, out);
}

void PolyMem::execute_write(const PlanTemplate* t, std::int64_t delta,
                            std::span<const Word> data) {
  if (t != nullptr) {
    const std::uintptr_t* table = t->lane_base.data();
    simd::scatter(&table, config_.read_ports, config_.lanes(), &delta, 1,
                  data.data());
    return;
  }
  address_shuffle(scratch_.plan, scratch_.bank_addr);
  write_data_shuffle(scratch_.plan, data, scratch_.bank_data);
  banks_.write(scratch_.bank_addr, scratch_.bank_data);
}

void PolyMem::write(const access::ParallelAccess& where,
                    std::span<const Word> data) {
  POLYMEM_REQUIRE(data.size() == config_.lanes(),
                  "write data must provide one word per lane");
  std::int64_t delta = 0;
  const PlanTemplate* t = resolve(where, delta);
  if (t == nullptr) banks_.begin_cycle();
  execute_write(t, delta, data);
  ++parallel_writes_;
}

void PolyMem::read_into(const access::ParallelAccess& where, unsigned port,
                        std::span<Word> out) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  POLYMEM_REQUIRE(out.size() == config_.lanes(),
                  "read buffer must provide one word per lane");
  std::int64_t delta = 0;
  const PlanTemplate* t = resolve(where, delta);
  if (t == nullptr) banks_.begin_cycle();
  execute_read(t, delta, port, out);
  ++parallel_reads_;
}

std::vector<Word> PolyMem::read(const access::ParallelAccess& where,
                                unsigned port) {
  std::vector<Word> out(config_.lanes());
  read_into(where, port, out);
  return out;
}

bool PolyMem::serves(const AccessBatch& batch) const {
  switch (supports(batch.kind)) {
    case maf::SupportLevel::kAny:
      return true;
    case maf::SupportLevel::kAligned: {
      const auto p = static_cast<std::int64_t>(config_.p);
      const auto q = static_cast<std::int64_t>(config_.q);
      return batch.start.i % p == 0 && batch.start.j % q == 0 &&
             batch.inner_stride.i % p == 0 && batch.inner_stride.j % q == 0 &&
             batch.outer_stride.i % p == 0 && batch.outer_stride.j % q == 0;
    }
    case maf::SupportLevel::kNone:
      return false;
  }
  return false;
}

std::size_t PolyMem::validate_batch(const AccessBatch& batch) const {
  // A batch without accesses needs no support; check_bounds refuses
  // negative counts.
  if (batch.inner_count > 0 && batch.outer_count > 0 && !serves(batch)) {
    std::ostringstream os;
    os << "scheme " << maf::scheme_name(config_.scheme) << " (" << config_.p
       << 'x' << config_.q << ") ";
    if (supports(batch.kind) == maf::SupportLevel::kNone)
      os << "does not serve pattern " << access::pattern_name(batch.kind);
    else
      os << "serves pattern " << access::pattern_name(batch.kind)
         << " only at p/q-aligned anchors; batch start or strides break "
            "alignment";
    throw Unsupported(os.str());
  }
  return check_bounds(batch);
}

std::size_t PolyMem::check_bounds(const AccessBatch& batch) const {
  POLYMEM_REQUIRE(batch.inner_count >= 0 && batch.outer_count >= 0,
                  "batch counts must be non-negative");
  if (batch.inner_count == 0 || batch.outer_count == 0) return 0;
  // Anchor coordinates are affine in the (inner, outer) index box, so the
  // per-axis extremes — all `fits` cares about — occur at the corners. A
  // corner whose coordinates overflow lies outside every address space.
  for (int corner = 0; corner < 4; ++corner) {
    const std::int64_t k = (corner & 1) ? batch.inner_count - 1 : 0;
    const std::int64_t o = (corner & 2) ? batch.outer_count - 1 : 0;
    if ((k == 0 && (corner & 1)) || (o == 0 && (corner & 2)))
      continue;  // the same anchor as an earlier corner
    const std::optional<access::Coord> anchor = batch.anchor(o, k);
    if (anchor && access::fits({batch.kind, *anchor}, config_.p, config_.q,
                               config_.height, config_.width))
      continue;
    std::ostringstream os;
    os << "batch access " << access::pattern_name(batch.kind) << " at ";
    if (anchor)
      os << *anchor;
    else
      os << batch.start << " + " << o << " outer + " << k
         << " inner steps (overflows)";
    os << " exceeds the " << config_.height << 'x' << config_.width
       << " address space";
    throw InvalidArgument(os.str());
  }
  // Repeated anchors (zero strides) pass the corner test at any count.
  std::int64_t words = 0;
  POLYMEM_REQUIRE(
      !__builtin_mul_overflow(batch.inner_count, batch.outer_count, &words) &&
          !__builtin_mul_overflow(words, config_.lanes(), &words),
      "batch moves more words than a buffer can hold");
  return static_cast<std::size_t>(words);
}

namespace {

/// Steps of `stride` after which an anchor is back in its residue class
/// modulo the axis period `period`: for a power of two, period over the
/// largest power of two dividing both (1 for a zero stride).
std::int64_t axis_period(std::int64_t period, std::int64_t stride) {
  const int shift = std::countr_zero(static_cast<std::uint64_t>(stride));
  return shift >= std::countr_zero(static_cast<std::uint64_t>(period))
             ? 1
             : period >> shift;
}

}  // namespace

bool PolyMem::lower(const AccessBatch& batch) {
  if (!uses_plan_cache()) return false;
  const auto n = static_cast<std::size_t>(batch.count());
  tables_.resize(n);
  deltas_.resize(n);
  // Along a row, anchors return to their residue class every `period`
  // steps (the larger axis period: both are powers of two), and within a
  // class the delta is affine in the anchor (see plan_cache.hpp). So a
  // row looks up one period of classes plus one access, which gives the
  // delta advance per period, and copies the rest. The caller checked
  // the batch's bounds, so the copy skips only work, never a check.
  const access::Coord s = batch.inner_stride;
  const std::int64_t inner = batch.inner_count;
  const std::int64_t period =
      std::max(axis_period(plan_cache_.period_i(), s.i),
               axis_period(plan_cache_.period_j(), s.j));
  const std::int64_t head = std::min(inner, period + 1);
  std::size_t t = 0;
  for (std::int64_t o = 0; o < batch.outer_count; ++o) {
    access::ParallelAccess a{batch.kind,
                             {batch.start.i + o * batch.outer_stride.i,
                              batch.start.j + o * batch.outer_stride.j}};
    for (std::int64_t k = 0; k < head; ++k, ++t) {
      if (k > 0) a.anchor = {a.anchor.i + s.i, a.anchor.j + s.j};
      tables_[t] = plan_cache_.class_template(a, deltas_[t])->lane_base.data();
    }
    if (head == inner) continue;
    const auto p = static_cast<std::size_t>(period);
    const std::int64_t advance = deltas_[t - 1] - deltas_[t - 1 - p];
    for (std::int64_t k = head; k < inner; ++k, ++t) {
      tables_[t] = tables_[t - p];
      deltas_[t] = deltas_[t - p] + advance;
    }
  }
  return true;
}

void PolyMem::read_batch(const AccessBatch& batch, unsigned port,
                         std::span<Word> out) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  const std::size_t words = validate_batch(batch);
  POLYMEM_REQUIRE(out.size() == words,
                  "batch read buffer must provide count * lanes words");
  if (lower(batch)) {
    simd::gather(tables_.data(), port, config_.lanes(), deltas_.data(),
                 batch.count(), out.data());
    parallel_reads_ += static_cast<std::uint64_t>(batch.count());
    return;
  }
  const unsigned lanes = config_.lanes();
  for (std::int64_t t = 0; t < batch.count(); ++t)
    read_into(batch.access(t), port,
              out.subspan(static_cast<std::size_t>(t) * lanes, lanes));
}

void PolyMem::write_batch(const AccessBatch& batch,
                          std::span<const Word> data) {
  const std::size_t words = validate_batch(batch);
  POLYMEM_REQUIRE(data.size() == words,
                  "batch write buffer must provide count * lanes words");
  if (lower(batch)) {
    simd::scatter(tables_.data(), config_.read_ports, config_.lanes(),
                  deltas_.data(), batch.count(), data.data());
    parallel_writes_ += static_cast<std::uint64_t>(batch.count());
    return;
  }
  const unsigned lanes = config_.lanes();
  for (std::int64_t t = 0; t < batch.count(); ++t)
    write(batch.access(t),
          data.subspan(static_cast<std::size_t>(t) * lanes, lanes));
}

void PolyMem::load_batch(const AccessBatch& batch, std::span<Word> out) {
  const std::size_t words = check_bounds(batch);
  POLYMEM_REQUIRE(out.size() == words,
                  "batch load buffer must provide count * lanes words");
  if (lower(batch)) {
    simd::gather(tables_.data(), 0, config_.lanes(), deltas_.data(),
                 batch.count(), out.data());
    return;
  }
  Word* dst = out.data();
  for (std::int64_t t = 0; t < batch.count(); ++t) {
    access::expand_into(batch.access(t), config_.p, config_.q,
                        scratch_.plan.coords);
    for (const access::Coord c : scratch_.plan.coords) *dst++ = load(c);
  }
}

void PolyMem::store_batch(const AccessBatch& batch,
                          std::span<const Word> data) {
  const std::size_t words = check_bounds(batch);
  POLYMEM_REQUIRE(data.size() == words,
                  "batch store buffer must provide count * lanes words");
  if (lower(batch)) {
    simd::scatter(tables_.data(), config_.read_ports, config_.lanes(),
                  deltas_.data(), batch.count(), data.data());
    return;
  }
  const Word* src = data.data();
  for (std::int64_t t = 0; t < batch.count(); ++t) {
    access::expand_into(batch.access(t), config_.p, config_.q,
                        scratch_.plan.coords);
    for (const access::Coord c : scratch_.plan.coords) store(c, *src++);
  }
}

Word PolyMem::load(access::Coord c) const {
  POLYMEM_REQUIRE(addressing_.in_bounds(c), "coordinate out of bounds");
  return banks_.peek(maf_.bank(c), addressing_.address(c));
}

void PolyMem::store(access::Coord c, Word value) {
  POLYMEM_REQUIRE(addressing_.in_bounds(c), "coordinate out of bounds");
  banks_.poke(maf_.bank(c), addressing_.address(c), value);
}

namespace {

// Residues a row walk keeps on the stack. Maf::period_j() is at most 64 on
// every geometry of up to 16 lanes; longer periods walk each row in
// 64-column segments with one table apiece.
constexpr std::int64_t kMaxResidues = 64;

// The words of one row segment that share a column residue: `count` words
// of bank `bank`, the t-th at intra-bank address addr + t * addr_step and
// at buffer index k + t * k_step.
struct ResidueRun {
  unsigned bank;
  std::int64_t addr, addr_step;
  std::int64_t k, k_step;
  std::int64_t count;
};

}  // namespace

template <typename Visit>
void PolyMem::walk_rect(access::Coord origin, std::int64_t rows,
                        std::int64_t cols, std::size_t buffer,
                        Visit&& visit) const {
  POLYMEM_REQUIRE(rows >= 0 && cols >= 0,
                  "rectangle extents must be non-negative");
  POLYMEM_REQUIRE(buffer == static_cast<std::size_t>(rows) *
                                static_cast<std::size_t>(cols),
                  "value buffer must match the rectangle size");
  if (rows == 0 || cols == 0) return;
  POLYMEM_REQUIRE(addressing_.in_bounds(origin) &&
                      addressing_.in_bounds(
                          {origin.i + rows - 1, origin.j + cols - 1}),
                  "rectangle exceeds the address space");
  // bank(i, j) repeats every period_j columns, a multiple of q, and the
  // intra-bank address |i/p| * (W/q) + |j/q| rises by period_j / q over
  // each period. So a segment needs one MAF evaluation per column residue,
  // and each residue's words form one strided run through one bank. (A
  // segment shorter than the period visits each residue once, so its
  // addr_step is never applied.)
  const std::int64_t period = maf_.period_j();
  const std::int64_t span = period <= kMaxResidues ? cols : kMaxResidues;
  const auto q = static_cast<std::int64_t>(config_.q);
  std::array<unsigned, kMaxResidues> bank{};
  std::int64_t k = 0;
  for (std::int64_t i = origin.i; i < origin.i + rows; ++i) {
    for (std::int64_t v = 0; v < cols; v += span) {
      const std::int64_t j0 = origin.j + v;
      const std::int64_t n = std::min(span, cols - v);
      const std::int64_t residues = std::min(n, period);
      for (std::int64_t r = 0; r < residues; ++r)
        bank[static_cast<std::size_t>(r)] = maf_.bank(i, j0 + r);
      const std::int64_t addr = addressing_.address(i, j0);
      banks_.check_row(
          std::span<const unsigned>(bank.data(),
                                    static_cast<std::size_t>(residues)),
          addr, addressing_.address(i, j0 + n - 1));
      const std::int64_t phase = j0 % q;  // in bounds, so non-negative
      for (std::int64_t r = 0; r < residues; ++r)
        visit(ResidueRun{bank[static_cast<std::size_t>(r)],
                         addr + (phase + r) / q, residues / q, k + r,
                         residues, (n - r + residues - 1) / residues});
      k += n;
    }
  }
}

void PolyMem::fill_rect(access::Coord origin, std::int64_t rows,
                        std::int64_t cols, std::span<const Word> values) {
  Word* const* base = banks_.bases();
  const unsigned banks = config_.lanes();
  const unsigned ports = config_.read_ports;
  walk_rect(origin, rows, cols, values.size(), [&](const ResidueRun& run) {
    const Word* src = values.data() + run.k;
    for (unsigned port = 0; port < ports; ++port) {
      Word* dst = base[port * banks + run.bank] + run.addr;
      for (std::int64_t t = 0; t < run.count; ++t)
        dst[t * run.addr_step] = src[t * run.k_step];
    }
  });
}

void PolyMem::dump_rect(access::Coord origin, std::int64_t rows,
                        std::int64_t cols, std::span<Word> values) const {
  walk_rect(origin, rows, cols, values.size(), [&](const ResidueRun& run) {
    const Word* src = banks_.bases()[run.bank] + run.addr;  // read replica 0
    Word* dst = values.data() + run.k;
    for (std::int64_t t = 0; t < run.count; ++t)
      dst[t * run.k_step] = src[t * run.addr_step];
  });
}

}  // namespace polymem::core
