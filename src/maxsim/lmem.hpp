// Off-chip board DRAM ("LMem") model.
//
// "The FPGA board features its own high capacity DRAM which can be used to
//  store application data. However, the latency of this memory is
//  relatively high ... and the off-chip DRAM bandwidth is limited"
//  (Sec. II-B). PolyMem exists to cache hot data out of this memory.
//
// Storage is allocated page-on-demand so a 24GB device can be modelled
// without committing 24GB of host RAM. A transfer walks its range one
// page run at a time: one page-map probe per run, then a plain copy.
//
// Thread safety: read and write serialize on an internal mutex — the
// real DRAM controller serializes bursts too. This is what lets
// software caches (src/cache) on different threads share one board
// memory.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "hw/bram.hpp"

namespace polymem::maxsim {

class LMem {
 public:
  /// Defaults model the Vectis board: 24GB capacity, ~15 GB/s aggregate
  /// bandwidth, ~200ns access latency.
  explicit LMem(std::uint64_t capacity_bytes = 24ull << 30,
                double bandwidth_bytes_per_s = 15e9,
                double latency_ns = 200.0);

  std::uint64_t capacity_bytes() const { return capacity_; }

  /// Bulk transfers, word-granular, safe to call from any thread. The
  /// whole range is checked against the capacity before any word moves.
  /// Unwritten memory reads as zero and materialises no page.
  void write(std::uint64_t word_addr, std::span<const hw::Word> data);
  void read(std::uint64_t word_addr, std::span<hw::Word> out) const;

  /// Seconds a burst of `bytes` takes: latency + bytes / bandwidth.
  double burst_seconds(std::uint64_t bytes) const;

  /// Pages currently materialised (for tests/diagnostics).
  std::size_t resident_pages() const {
    const std::lock_guard<std::mutex> lock(m_);
    return pages_.size();
  }

 private:
  static constexpr std::uint64_t kPageWords = 512;  // 4KB pages

  void check_range(std::uint64_t word_addr, std::size_t words) const;

  std::uint64_t capacity_;
  double bandwidth_;
  double latency_s_;
  mutable std::mutex m_;
  std::unordered_map<std::uint64_t, std::vector<hw::Word>> pages_;
};

}  // namespace polymem::maxsim
