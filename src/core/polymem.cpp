#include "core/polymem.hpp"

#include <sstream>

#include <algorithm>

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
    const unsigned lanes = config_.lanes();
    simd::gather_run(
        t->lane_base.data() + static_cast<std::size_t>(port) * lanes, lanes,
        &delta, 1, out.data());
    return;
  }
  address_shuffle(scratch_.plan, scratch_.bank_addr);
  banks_.read(port, scratch_.bank_addr, scratch_.bank_data);
  read_data_shuffle(scratch_.plan, scratch_.bank_data, out);
}

void PolyMem::execute_write(const PlanTemplate* t, std::int64_t delta,
                            std::span<const Word> data) {
  if (t != nullptr) {
    simd::scatter_run(t->bank_base.data(), config_.read_ports,
                      t->lane_for_bank.data(), config_.lanes(), &delta, 1,
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

void PolyMem::validate_batch(const AccessBatch& batch) const {
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
  check_bounds(batch);
}

void PolyMem::check_bounds(const AccessBatch& batch) const {
  POLYMEM_REQUIRE(batch.inner_count >= 0 && batch.outer_count >= 0,
                  "batch counts must be non-negative");
  if (batch.count() == 0) return;
  // Anchor coordinates are affine in the (inner, outer) index box, so the
  // per-axis extremes — all `fits` cares about — occur at the corners.
  for (int corner = 0; corner < 4; ++corner) {
    const std::int64_t k = (corner & 1) ? batch.inner_count - 1 : 0;
    const std::int64_t o = (corner & 2) ? batch.outer_count - 1 : 0;
    const access::Coord anchor{
        batch.start.i + o * batch.outer_stride.i + k * batch.inner_stride.i,
        batch.start.j + o * batch.outer_stride.j + k * batch.inner_stride.j};
    if (!access::fits({batch.kind, anchor}, config_.p, config_.q,
                      config_.height, config_.width)) {
      std::ostringstream os;
      os << "batch access " << access::pattern_name(batch.kind) << " at "
         << anchor << " exceeds the " << config_.height << 'x'
         << config_.width << " address space";
      throw InvalidArgument(os.str());
    }
  }
}

ExecPlan* PolyMem::compiled_plan(const AccessBatch& batch) {
  if (!use_plan_cache_ || !plan_cache_.enabled()) return nullptr;
  for (ExecSlot& slot : exec_slots_)
    if (slot.valid && slot.key == batch) return &slot.plan;
  // The same shape moved by whole MAF periods keeps every access's
  // residue class: shift that plan's deltas instead of recompiling. The
  // caller validated `batch`, so the lookups this skips could only return
  // the templates the plan already holds.
  for (ExecSlot& slot : exec_slots_) {
    if (!slot.valid) continue;
    AccessBatch moved = slot.key;
    moved.start = batch.start;
    if (!(moved == batch)) continue;
    if (const auto shift = plan_cache_.period_shift(slot.key.start,
                                                    batch.start)) {
      slot.plan.rebase(*shift);
      slot.key = batch;
      return &slot.plan;
    }
  }
  ExecSlot& slot = exec_slots_[exec_victim_];
  if (!slot.plan.compile(batch, plan_cache_)) {
    slot.valid = false;
    return nullptr;
  }
  slot.key = batch;
  slot.valid = true;
  exec_victim_ = (exec_victim_ + 1) % kExecSlots;
  return &slot.plan;
}

void PolyMem::exec_read(const ExecPlan& plan, unsigned port, Word* out) {
  const std::uintptr_t* const* lane_bases = plan.lane_bases(port);
  if (plan.uniform()) {
    simd::gather_run(lane_bases[0], plan.lanes(), plan.delta(), plan.count(),
                     out);
    return;
  }
  simd::gather_multi(lane_bases, plan.tmpl_of(), plan.lanes(), plan.delta(),
                     plan.count(), out);
}

void PolyMem::exec_write(const ExecPlan& plan, const Word* data) {
  if (plan.uniform()) {
    simd::scatter_run(plan.bank_bases()[0], plan.ports(),
                      plan.lanes_for_bank()[0], plan.lanes(), plan.delta(),
                      plan.count(), data);
    return;
  }
  simd::scatter_multi(plan.bank_bases(), plan.lanes_for_bank(),
                      plan.tmpl_of(), plan.ports(), plan.lanes(),
                      plan.delta(), plan.count(), data);
}

void PolyMem::read_batch(const AccessBatch& batch, unsigned port,
                         std::span<Word> out) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  validate_batch(batch);
  const unsigned lanes = config_.lanes();
  POLYMEM_REQUIRE(out.size() == static_cast<std::size_t>(batch.count()) * lanes,
                  "batch read buffer must provide count * lanes words");
  if (batch.count() == 0) return;
  if (ExecPlan* plan = compiled_plan(batch)) {
    exec_read(*plan, port, out.data());
    parallel_reads_ += static_cast<std::uint64_t>(plan->count());
    return;
  }
  for (std::int64_t t = 0; t < batch.count(); ++t)
    read_into(batch.access(t), port,
              out.subspan(static_cast<std::size_t>(t) * lanes, lanes));
}

bool PolyMem::compile_batch(const AccessBatch& batch, ExecPlan& plan) {
  validate_batch(batch);
  if (batch.count() == 0 || !use_plan_cache_ || !plan_cache_.enabled())
    return false;
  return plan.compile(batch, plan_cache_);
}

void PolyMem::read_compiled(const ExecPlan& plan, unsigned port,
                            std::span<Word> out) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  POLYMEM_REQUIRE(
      out.size() == static_cast<std::size_t>(plan.count()) * plan.lanes(),
      "batch read buffer must provide count * lanes words");
  exec_read(plan, port, out.data());
  parallel_reads_ += static_cast<std::uint64_t>(plan.count());
}

void PolyMem::write_compiled(const ExecPlan& plan,
                             std::span<const Word> data) {
  POLYMEM_REQUIRE(
      data.size() == static_cast<std::size_t>(plan.count()) * plan.lanes(),
      "batch write buffer must provide count * lanes words");
  exec_write(plan, data.data());
  parallel_writes_ += static_cast<std::uint64_t>(plan.count());
}

void PolyMem::write_batch(const AccessBatch& batch,
                          std::span<const Word> data) {
  validate_batch(batch);
  const unsigned lanes = config_.lanes();
  POLYMEM_REQUIRE(
      data.size() == static_cast<std::size_t>(batch.count()) * lanes,
      "batch write buffer must provide count * lanes words");
  if (batch.count() == 0) return;
  if (ExecPlan* plan = compiled_plan(batch)) {
    exec_write(*plan, data.data());
    parallel_writes_ += static_cast<std::uint64_t>(plan->count());
    return;
  }
  for (std::int64_t t = 0; t < batch.count(); ++t)
    write(batch.access(t),
          data.subspan(static_cast<std::size_t>(t) * lanes, lanes));
}

namespace {

/// Calls visit(access) for each access of `batch`, in flat-index order.
template <typename Visit>
void for_each_access(const AccessBatch& batch, Visit&& visit) {
  access::ParallelAccess a{batch.kind, batch.start};
  for (std::int64_t o = 0; o < batch.outer_count; ++o) {
    a.anchor = {batch.start.i + o * batch.outer_stride.i,
                batch.start.j + o * batch.outer_stride.j};
    for (std::int64_t k = 0; k < batch.inner_count; ++k) {
      visit(a);
      a.anchor.i += batch.inner_stride.i;
      a.anchor.j += batch.inner_stride.j;
    }
  }
}

}  // namespace

void PolyMem::load_batch(const AccessBatch& batch, std::span<Word> out) {
  check_bounds(batch);
  const unsigned lanes = config_.lanes();
  POLYMEM_REQUIRE(out.size() == static_cast<std::size_t>(batch.count()) * lanes,
                  "batch load buffer must provide count * lanes words");
  Word* dst = out.data();
  if (!use_plan_cache_ || !plan_cache_.enabled()) {
    std::vector<access::Coord>& coords = scratch_.plan.coords;
    for_each_access(batch, [&](const access::ParallelAccess& a) {
      access::expand_into(a, config_.p, config_.q, coords);
      for (const access::Coord c : coords) *dst++ = load(c);
    });
    return;
  }
  for_each_access(batch, [&](const access::ParallelAccess& a) {
    std::int64_t delta = 0;
    const PlanTemplate* t = plan_cache_.class_template(a, delta);
    simd::gather_run(t->lane_base.data(), lanes, &delta, 1, dst);
    dst += lanes;
  });
}

void PolyMem::store_batch(const AccessBatch& batch,
                          std::span<const Word> data) {
  check_bounds(batch);
  const unsigned lanes = config_.lanes();
  POLYMEM_REQUIRE(
      data.size() == static_cast<std::size_t>(batch.count()) * lanes,
      "batch store buffer must provide count * lanes words");
  const Word* src = data.data();
  if (!use_plan_cache_ || !plan_cache_.enabled()) {
    std::vector<access::Coord>& coords = scratch_.plan.coords;
    for_each_access(batch, [&](const access::ParallelAccess& a) {
      access::expand_into(a, config_.p, config_.q, coords);
      for (const access::Coord c : coords) store(c, *src++);
    });
    return;
  }
  for_each_access(batch, [&](const access::ParallelAccess& a) {
    std::int64_t delta = 0;
    const PlanTemplate* t = plan_cache_.class_template(a, delta);
    simd::scatter_lanes(t->lane_base.data(), config_.read_ports, lanes,
                        &delta, 1, src);
    src += lanes;
  });
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
