// The Memory Banks block (paper Fig. 3, M0..M7).
//
// p*q independent BRAM banks store the data. Each additional read port
// replicates all bank contents ("increasing the number of read ports
// involved duplicating data in BRAMs", Sec. IV-C): writes go to every
// replica, read port r reads replica r — so one write and `read_ports`
// reads proceed in the same cycle without sharing a physical port.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/agu.hpp"
#include "hw/bram.hpp"

namespace polymem::core {

class BankArray {
 public:
  BankArray(unsigned banks, unsigned read_ports, std::int64_t words_per_bank);

  // bases() points into the banks' storage; pinned like it.
  BankArray(const BankArray&) = delete;
  BankArray& operator=(const BankArray&) = delete;

  unsigned banks() const { return banks_; }
  unsigned read_ports() const { return read_ports_; }

  /// Starts a new cycle on every physical bank (resets port accounting).
  void begin_cycle();

  /// Applies a planned write: per-bank address/data must already be in
  /// bank order (after the inverse shuffles). Writes all replicas.
  void write(std::span<const std::int64_t> per_bank_addr,
             std::span<const hw::Word> per_bank_data);

  /// Reads every bank of replica `port` at the given per-bank addresses;
  /// results are in bank order (before the read data shuffle).
  void read(unsigned port, std::span<const std::int64_t> per_bank_addr,
            std::span<hw::Word> per_bank_data);

  /// Host backdoor (no port accounting) — used by load/offload paths.
  hw::Word peek(unsigned bank, std::int64_t addr) const;
  void poke(unsigned bank, std::int64_t addr, hw::Word value);

  /// Host row walks (PolyMem::fill_rect/dump_rect) check once per row
  /// what peek/poke check per word, with the same errors: every bank
  /// index the row touches, and its address range [first, last] (every
  /// bank holds the same number of words). The walk then pokes and peeks
  /// unchecked through bases().
  void check_row(std::span<const unsigned> row_banks, std::int64_t first,
                 std::int64_t last) const;

  /// Storage base of every bank replica, [port][bank] flattened. Fixed
  /// at construction, like the storage itself.
  hw::Word* const* bases() { return bases_.data(); }
  const hw::Word* const* bases() const { return bases_.data(); }

  /// Raw storage base of one bank replica — the plan cache
  /// (core/plan_cache.hpp) builds its flat gather/scatter pointer tables
  /// from these. Stable for the array's lifetime (banks never resize).
  const hw::Word* bank_storage(unsigned port, unsigned bank) const;
  hw::Word* bank_storage(unsigned port, unsigned bank);

 private:
  hw::BramBank& replica(unsigned port, unsigned bank);
  const hw::BramBank& replica(unsigned port, unsigned bank) const;

  unsigned banks_;
  unsigned read_ports_;
  std::vector<hw::BramBank> storage_;  // [port][bank] flattened
  std::vector<hw::Word*> bases_;       // storage_[k].data()
};

}  // namespace polymem::core
