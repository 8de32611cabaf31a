#include "maxsim/lmem.hpp"

#include <algorithm>

namespace polymem::maxsim {

LMem::LMem(std::uint64_t capacity_bytes, double bandwidth_bytes_per_s,
           double latency_ns)
    : capacity_(capacity_bytes),
      bandwidth_(bandwidth_bytes_per_s),
      latency_s_(latency_ns * 1e-9) {
  POLYMEM_REQUIRE(capacity_bytes >= 8, "capacity must hold at least a word");
  POLYMEM_REQUIRE(bandwidth_bytes_per_s > 0, "bandwidth must be positive");
  POLYMEM_REQUIRE(latency_ns >= 0, "latency must be non-negative");
}

void LMem::check_range(std::uint64_t word_addr, std::size_t words) const {
  // In words, without multiplying: (word_addr + words) * 8 wraps for
  // addresses near 2^61 and would let them through.
  const std::uint64_t capacity_words = capacity_ / 8;
  POLYMEM_REQUIRE(word_addr <= capacity_words &&
                      words <= capacity_words - word_addr,
                  "LMem access beyond device capacity");
}

void LMem::write(std::uint64_t word_addr, std::span<const hw::Word> data) {
  check_range(word_addr, data.size());
  const std::lock_guard<std::mutex> lock(m_);
  for (std::size_t k = 0; k < data.size();) {
    const std::uint64_t addr = word_addr + k;
    const std::uint64_t offset = addr % kPageWords;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageWords - offset, data.size() - k));
    auto [it, inserted] = pages_.try_emplace(addr / kPageWords);
    if (inserted) it->second.assign(kPageWords, 0);
    std::copy_n(data.data() + k, n, it->second.data() + offset);
    k += n;
  }
}

void LMem::read(std::uint64_t word_addr, std::span<hw::Word> out) const {
  check_range(word_addr, out.size());
  const std::lock_guard<std::mutex> lock(m_);
  for (std::size_t k = 0; k < out.size();) {
    const std::uint64_t addr = word_addr + k;
    const std::uint64_t offset = addr % kPageWords;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageWords - offset, out.size() - k));
    const auto it = pages_.find(addr / kPageWords);
    if (it == pages_.end())
      std::fill_n(out.data() + k, n, hw::Word{0});
    else
      std::copy_n(it->second.data() + offset, n, out.data() + k);
    k += n;
  }
}

double LMem::burst_seconds(std::uint64_t bytes) const {
  return latency_s_ + static_cast<double>(bytes) / bandwidth_;
}

}  // namespace polymem::maxsim
