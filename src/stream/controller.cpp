#include "stream/controller.hpp"

#include "common/error.hpp"
#include "common/math.hpp"

namespace polymem::stream {

using access::ParallelAccess;
using access::PatternKind;

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kIdle: return "Idle";
    case Mode::kLoadA: return "LoadA";
    case Mode::kLoadB: return "LoadB";
    case Mode::kLoadC: return "LoadC";
    case Mode::kCopy: return "Copy";
    case Mode::kScale: return "Scale";
    case Mode::kSum: return "Sum";
    case Mode::kTriad: return "Triad";
    case Mode::kOffloadA: return "OffloadA";
    case Mode::kOffloadB: return "OffloadB";
    case Mode::kOffloadC: return "OffloadC";
  }
  throw InvalidArgument("unknown mode");
}

StreamController::StreamController(core::PolyMemConfig config,
                                   std::int64_t vector_capacity,
                                   maxsim::Stream& a_in, maxsim::Stream& b_in,
                                   maxsim::Stream& c_in, maxsim::Stream& out)
    : maxsim::Kernel("stream-controller"),
      mem_((config.validate(), std::move(config))),
      vector_capacity_(vector_capacity),
      band_rows_(ceil_div(vector_capacity, mem_.config().width)),
      a_in_(&a_in),
      b_in_(&b_in),
      c_in_(&c_in),
      out_(&out) {
  POLYMEM_REQUIRE(vector_capacity >= 1, "vectors must be non-empty");
  POLYMEM_REQUIRE(vector_capacity % mem_.config().lanes() == 0,
                  "vector capacity must be a multiple of the lane count");
  POLYMEM_REQUIRE(mem_.config().width % mem_.config().lanes() == 0,
                  "lane groups must not straddle rows");
  POLYMEM_REQUIRE(3 * band_rows_ <= mem_.config().height,
                  "PolyMem too small for three vector bands of this size");
  lane_buf_.resize(mem_.config().lanes());
  result_buf_.resize(mem_.config().lanes());
}

void StreamController::preload(Vector v, std::span<const double> data) {
  const auto n = static_cast<std::int64_t>(data.size());
  const auto lanes = static_cast<std::int64_t>(mem_.config().lanes());
  const std::int64_t width = mem_.config().width;
  POLYMEM_REQUIRE(n >= 1 && n <= vector_capacity_,
                  "vector exceeds the band capacity");
  POLYMEM_REQUIRE(n % lanes == 0,
                  "vector length must be a multiple of the lane count");
  words_buf_.resize(data.size());
  for (std::size_t k = 0; k < data.size(); ++k)
    words_buf_[k] = core::pack_double(data[k]);
  auto& f = mem_.functional();
  const core::VectorBand b = band(v);
  const std::int64_t full_rows = n / width;
  const std::int64_t tail = n % width;
  if (full_rows > 0)
    f.write_batch({access::PatternKind::kRow,
                   {b.first_row(), 0},
                   {0, lanes},
                   width / lanes,
                   {1, 0},
                   full_rows},
                  std::span<const hw::Word>(words_buf_)
                      .first(static_cast<std::size_t>(full_rows * width)));
  if (tail > 0)
    f.write_batch(core::AccessBatch::strided(access::PatternKind::kRow,
                                             {b.first_row() + full_rows, 0},
                                             {0, lanes}, tail / lanes),
                  std::span<const hw::Word>(words_buf_)
                      .last(static_cast<std::size_t>(tail)));
}

void StreamController::offload_bulk(Vector v, std::span<double> out) {
  const auto n = static_cast<std::int64_t>(out.size());
  const auto lanes = static_cast<std::int64_t>(mem_.config().lanes());
  const std::int64_t width = mem_.config().width;
  POLYMEM_REQUIRE(n >= 1 && n <= vector_capacity_,
                  "vector exceeds the band capacity");
  POLYMEM_REQUIRE(n % lanes == 0,
                  "vector length must be a multiple of the lane count");
  words_buf_.resize(out.size());
  auto& f = mem_.functional();
  const core::VectorBand b = band(v);
  const std::int64_t full_rows = n / width;
  const std::int64_t tail = n % width;
  if (full_rows > 0)
    f.read_batch({access::PatternKind::kRow,
                  {b.first_row(), 0},
                  {0, lanes},
                  width / lanes,
                  {1, 0},
                  full_rows},
                 0,
                 std::span<hw::Word>(words_buf_)
                     .first(static_cast<std::size_t>(full_rows * width)));
  if (tail > 0)
    f.read_batch(core::AccessBatch::strided(access::PatternKind::kRow,
                                            {b.first_row() + full_rows, 0},
                                            {0, lanes}, tail / lanes),
                 0,
                 std::span<hw::Word>(words_buf_)
                     .last(static_cast<std::size_t>(tail)));
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = core::unpack_double(words_buf_[k]);
}

core::VectorBand StreamController::band(Vector v) const {
  return core::VectorBand(static_cast<std::int64_t>(v) * band_rows_,
                          vector_capacity_, mem_.config().width);
}

ParallelAccess StreamController::group_access(const core::VectorBand& band,
                                              std::int64_t group) const {
  return {PatternKind::kRow,
          band.coord(group * static_cast<std::int64_t>(mem_.config().lanes()))};
}

void StreamController::start(Mode mode, std::int64_t n, double q) {
  POLYMEM_REQUIRE(mode != Mode::kIdle, "cannot arm the idle mode");
  POLYMEM_REQUIRE(n >= 1 && n <= vector_capacity_,
                  "stage length exceeds the vector capacity");
  POLYMEM_REQUIRE(n % mem_.config().lanes() == 0,
                  "stage length must be a multiple of the lane count");
  if (mode == Mode::kSum || mode == Mode::kTriad) {
    POLYMEM_SUPPORTED(mem_.config().read_ports >= 2,
                      "Sum/Triad need two read ports");
  }
  mode_ = mode;
  q_ = q;
  groups_total_ = n / mem_.config().lanes();
  reads_issued_ = writes_done_ = pushed_ = in_flight_ = 0;
  lane_fill_ = 0;
}

bool StreamController::done() const {
  switch (mode_) {
    case Mode::kIdle:
      return true;
    case Mode::kOffloadA:
    case Mode::kOffloadB:
    case Mode::kOffloadC:
      return pushed_ == groups_total_;
    default:
      return writes_done_ == groups_total_;
  }
}

void StreamController::tick() {
  switch (mode_) {
    case Mode::kIdle:
      return;
    case Mode::kLoadA:
      return tick_load(*a_in_, band(Vector::kA));
    case Mode::kLoadB:
      return tick_load(*b_in_, band(Vector::kB));
    case Mode::kLoadC:
      return tick_load(*c_in_, band(Vector::kC));
    case Mode::kCopy:
    case Mode::kScale:
    case Mode::kSum:
    case Mode::kTriad:
      return tick_compute();
    case Mode::kOffloadA:
      return tick_offload(band(Vector::kA));
    case Mode::kOffloadB:
      return tick_offload(band(Vector::kB));
    case Mode::kOffloadC:
      return tick_offload(band(Vector::kC));
  }
}

void StreamController::tick_load(maxsim::Stream& in,
                                 const core::VectorBand& band) {
  if (writes_done_ == groups_total_) return;
  const unsigned lanes = mem_.config().lanes();
  // Gather one lane group from the host stream (the MUX-selected input).
  while (lane_fill_ < lanes) {
    const auto w = in.pop();
    if (!w) break;
    lane_buf_[lane_fill_++] = *w;
  }
  if (lane_fill_ == lanes) {
    const bool ok = mem_.issue_write(group_access(band, writes_done_),
                                     lane_buf_);
    POLYMEM_ASSERT(ok);
    (void)ok;
    ++writes_done_;
    lane_fill_ = 0;
  }
  mem_.tick();
}

void StreamController::tick_compute() {
  const Vector src0 = (mode_ == Mode::kCopy) ? Vector::kA : Vector::kB;
  const Vector src1 = Vector::kC;  // Sum/Triad second operand
  const Vector dst = (mode_ == Mode::kCopy) ? Vector::kC : Vector::kA;
  const bool two_reads = (mode_ == Mode::kSum || mode_ == Mode::kTriad);
  const unsigned lanes = mem_.config().lanes();

  // 1. A retired read (pair) triggers its dependent write this cycle —
  //    the feedback loop from PolyMem's output to its write port. The
  //    compute result lands in a reused member buffer (Copy forwards the
  //    read data directly): no allocation in the steady-state loop.
  if (auto r0 = mem_.retire_read(0)) {
    std::span<const hw::Word> result = r0->data;
    if (two_reads) {
      const auto r1 = mem_.retire_read(1);
      POLYMEM_ASSERT(r1 && r1->tag == r0->tag);
      for (unsigned k = 0; k < lanes; ++k) {
        const double b = core::unpack_double(r0->data[k]);
        const double c = core::unpack_double(r1->data[k]);
        const double a = (mode_ == Mode::kSum) ? b + c : b + q_ * c;
        result_buf_[k] = core::pack_double(a);
      }
      result = result_buf_;
    } else if (mode_ == Mode::kScale) {
      for (unsigned k = 0; k < lanes; ++k)
        result_buf_[k] =
            core::pack_double(q_ * core::unpack_double(r0->data[k]));
      result = result_buf_;
    }
    const bool ok = mem_.issue_write(
        group_access(band(dst), static_cast<std::int64_t>(r0->tag)), result);
    POLYMEM_ASSERT(ok);
    (void)ok;
    ++writes_done_;
  }

  // 2. Keep the read port(s) busy: one new group per cycle.
  if (reads_issued_ < groups_total_) {
    const auto tag = static_cast<std::uint64_t>(reads_issued_);
    mem_.issue_read(0, group_access(band(src0), reads_issued_), tag);
    if (two_reads)
      mem_.issue_read(1, group_access(band(src1), reads_issued_), tag);
    ++reads_issued_;
  }

  mem_.tick();
}

void StreamController::tick_offload(const core::VectorBand& band) {
  const unsigned lanes = mem_.config().lanes();
  // 1. Retired data goes out through the DEMUX-selected stream; space was
  //    reserved when the read was issued.
  if (auto r = mem_.retire_read(0)) {
    for (unsigned k = 0; k < lanes; ++k) {
      const bool ok = out_->push(r->data[k]);
      POLYMEM_ASSERT(ok);
      (void)ok;
    }
    ++pushed_;
    --in_flight_;
  }
  // 2. Issue the next read only when the output stream can absorb every
  //    in-flight group plus this one (PCIe back-pressure handling).
  const std::int64_t reserved = (in_flight_ + 1) * lanes;
  if (reads_issued_ < groups_total_ &&
      out_->capacity() - out_->size() >= static_cast<std::size_t>(reserved)) {
    mem_.issue_read(0, group_access(band, reads_issued_),
                    static_cast<std::uint64_t>(reads_issued_));
    ++reads_issued_;
    ++in_flight_;
  }
  mem_.tick();
}

}  // namespace polymem::stream
