// The STREAM design's Controller kernel (paper Fig. 9).
//
// "The Controller generates the write and read signals for MAX-PolyMem and
//  selects the correct input for MAX-PolyMem's write port by driving the
//  two MUXs. ... using the DEMUX, the controller selects the right output
//  stream."
//
// The controller runs one *stage* at a time, selected by the host through
// the Mode signal (Load / compute / Offload), exactly as the paper splits
// its measurement. PolyMem is split into three equal row bands holding the
// STREAM vectors A, B and C. The compute stages implement all four STREAM
// kernels (the paper measures Copy; Scale, Sum and Triad are the announced
// "finalize the implementation of STREAM" future work, included here):
//
//   Copy : c(i) = a(i)            1 read port
//   Scale: a(i) = q * b(i)        1 read port, 1 multiply
//   Sum  : a(i) = b(i) + c(i)     2 read ports, 1 add
//   Triad: a(i) = b(i) + q * c(i) 2 read ports, multiply + add
//
// The read latency (14 cycles) is absorbed by tagging each read with its
// element-group index; a retired read triggers the dependent write in the
// same cycle, the feedback path of the paper's design.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cycle_polymem.hpp"
#include "core/layout.hpp"
#include "maxsim/kernel.hpp"

namespace polymem::stream {

enum class Mode : std::uint8_t {
  kIdle,
  kLoadA,
  kLoadB,
  kLoadC,
  kCopy,
  kScale,
  kSum,
  kTriad,
  kOffloadA,
  kOffloadB,
  kOffloadC,
};

const char* mode_name(Mode mode);

/// Which of the three vector bands a mode touches.
enum class Vector : std::uint8_t { kA = 0, kB = 1, kC = 2 };

class StreamController : public maxsim::Kernel {
 public:
  /// The controller owns the PolyMem. `vector_capacity` is the maximum
  /// element count per vector (sets the band layout); in/out streams carry
  /// host data for the Load/Offload stages.
  StreamController(core::PolyMemConfig config, std::int64_t vector_capacity,
                   maxsim::Stream& a_in, maxsim::Stream& b_in,
                   maxsim::Stream& c_in, maxsim::Stream& out);

  core::CyclePolyMem& polymem() { return mem_; }
  const core::PolyMemConfig& config() const { return mem_.config(); }
  std::int64_t vector_capacity() const { return vector_capacity_; }

  /// Host-side Mode signal: arms a stage over the first `n` elements of
  /// the touched vectors. `n` must be a positive multiple of the lane
  /// count and fit the band capacity. `q` is the STREAM scalar.
  void start(Mode mode, std::int64_t n, double q = 3.0);

  /// Kernel interface: one clock cycle of the armed stage.
  void tick() override;
  bool done() const override;

  Mode mode() const { return mode_; }

  /// The band holding a vector (for host-side verification).
  core::VectorBand band(Vector v) const;

  /// Host-side bulk transfers through PolyMem's batched access engine:
  /// one validated batch per band instead of per-cycle streaming. These
  /// bypass the Load/Offload stage timing (use the Mode machinery when
  /// cycle counts matter) and are the fast path for test setup and
  /// host-side verification.
  void preload(Vector v, std::span<const double> data);
  void offload_bulk(Vector v, std::span<double> out);

 private:
  void tick_load(maxsim::Stream& in, const core::VectorBand& band);
  void tick_compute();
  void tick_offload(const core::VectorBand& band);

  access::ParallelAccess group_access(const core::VectorBand& band,
                                      std::int64_t group) const;

  core::CyclePolyMem mem_;
  std::int64_t vector_capacity_;
  std::int64_t band_rows_;
  maxsim::Stream* a_in_;
  maxsim::Stream* b_in_;
  maxsim::Stream* c_in_;
  maxsim::Stream* out_;

  Mode mode_ = Mode::kIdle;
  double q_ = 3.0;
  std::int64_t groups_total_ = 0;
  std::int64_t reads_issued_ = 0;   // element groups sent to the read ports
  std::int64_t writes_done_ = 0;    // element groups written back
  std::int64_t pushed_ = 0;         // element groups pushed to `out`
  std::int64_t in_flight_ = 0;      // offload reads not yet pushed
  std::vector<hw::Word> lane_buf_;    // load-stage word gather buffer
  std::vector<hw::Word> result_buf_;  // compute-stage result (reused)
  std::vector<hw::Word> words_buf_;   // preload/offload staging
  std::size_t lane_fill_ = 0;
};

}  // namespace polymem::stream
