#include "hw/bram.hpp"

#include <string>

namespace polymem::hw {

BramBank::BramBank(std::int64_t words) {
  POLYMEM_REQUIRE(words >= 1, "bank must hold at least one word");
  mem_.assign(static_cast<std::size_t>(words), 0);
}

void BramBank::begin_cycle() {
  read_used_ = false;
  write_used_ = false;
}

void BramBank::check_addr(std::int64_t addr) const {
  POLYMEM_REQUIRE(addr >= 0 && addr < words(),
                  "bank address out of range: " + std::to_string(addr) +
                      " (bank holds " + std::to_string(words()) + " words)");
}

Word BramBank::peek(std::int64_t addr) const {
  check_addr(addr);
  return mem_[static_cast<std::size_t>(addr)];
}

void BramBank::poke(std::int64_t addr, Word value) {
  check_addr(addr);
  mem_[static_cast<std::size_t>(addr)] = value;
}

Word BramBank::read(std::int64_t addr) {
  check_addr(addr);
  if (read_used_)
    throw Error("bank conflict: second read on one port in one cycle");
  read_used_ = true;
  return mem_[static_cast<std::size_t>(addr)];
}

void BramBank::write(std::int64_t addr, Word value) {
  check_addr(addr);
  if (write_used_)
    throw Error("bank conflict: second write on one port in one cycle");
  write_used_ = true;
  mem_[static_cast<std::size_t>(addr)] = value;
}

}  // namespace polymem::hw
