#include "core/banks.hpp"

#include "common/error.hpp"

namespace polymem::core {

BankArray::BankArray(unsigned banks, unsigned read_ports,
                     std::int64_t words_per_bank)
    : banks_(banks), read_ports_(read_ports) {
  POLYMEM_REQUIRE(banks >= 1, "need at least one bank");
  POLYMEM_REQUIRE(read_ports >= 1, "need at least one read port");
  storage_.reserve(static_cast<std::size_t>(banks) * read_ports);
  for (unsigned r = 0; r < read_ports; ++r)
    for (unsigned b = 0; b < banks; ++b) storage_.emplace_back(words_per_bank);
  for (hw::BramBank& bank : storage_) bases_.push_back(bank.data());
}

hw::BramBank& BankArray::replica(unsigned port, unsigned bank) {
  POLYMEM_REQUIRE(port < read_ports_ && bank < banks_,
                  "bank/port index out of range");
  return storage_[static_cast<std::size_t>(port) * banks_ + bank];
}

const hw::BramBank& BankArray::replica(unsigned port, unsigned bank) const {
  POLYMEM_REQUIRE(port < read_ports_ && bank < banks_,
                  "bank/port index out of range");
  return storage_[static_cast<std::size_t>(port) * banks_ + bank];
}

void BankArray::begin_cycle() {
  for (auto& bank : storage_) bank.begin_cycle();
}

void BankArray::write(std::span<const std::int64_t> per_bank_addr,
                      std::span<const hw::Word> per_bank_data) {
  POLYMEM_REQUIRE(per_bank_addr.size() == banks_ &&
                      per_bank_data.size() == banks_,
                  "per-bank vectors must cover every bank");
  for (unsigned r = 0; r < read_ports_; ++r)
    for (unsigned b = 0; b < banks_; ++b)
      replica(r, b).write(per_bank_addr[b], per_bank_data[b]);
}

void BankArray::read(unsigned port, std::span<const std::int64_t> per_bank_addr,
                     std::span<hw::Word> per_bank_data) {
  POLYMEM_REQUIRE(per_bank_addr.size() == banks_ &&
                      per_bank_data.size() == banks_,
                  "per-bank vectors must cover every bank");
  for (unsigned b = 0; b < banks_; ++b)
    per_bank_data[b] = replica(port, b).read(per_bank_addr[b]);
}

const hw::Word* BankArray::bank_storage(unsigned port, unsigned bank) const {
  return replica(port, bank).data();
}

hw::Word* BankArray::bank_storage(unsigned port, unsigned bank) {
  return replica(port, bank).data();
}

hw::Word BankArray::peek(unsigned bank, std::int64_t addr) const {
  return replica(0, bank).peek(addr);
}

void BankArray::poke(unsigned bank, std::int64_t addr, hw::Word value) {
  for (unsigned r = 0; r < read_ports_; ++r) replica(r, bank).poke(addr, value);
}

void BankArray::check_row(std::span<const unsigned> row_banks,
                          std::int64_t first, std::int64_t last) const {
  for (const unsigned bank : row_banks)
    POLYMEM_REQUIRE(bank < banks_, "bank/port index out of range");
  storage_.front().check_addr(first);
  storage_.front().check_addr(last);
}

}  // namespace polymem::core
