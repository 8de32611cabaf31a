// Behavioural model of an on-chip memory bank (BRAM).
//
// The FPGA's distributed BRAM blocks are what makes PolyMem possible: each
// bank is an independent memory with its own ports (paper Sec. I). The
// model enforces *port semantics* per clock cycle — a simple-dual-port
// bank accepts at most one read and one write per cycle — so a banking bug
// (two lanes hitting the same bank) raises an error in simulation exactly
// where real hardware would corrupt data.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace polymem::hw {

using Word = std::uint64_t;

class BramBank {
 public:
  /// A bank of `words` 64-bit words, zero-initialised (matching how the
  /// synthesis tools initialise BRAM contents).
  explicit BramBank(std::int64_t words);

  std::int64_t words() const { return static_cast<std::int64_t>(mem_.size()); }

  /// Marks the start of a clock cycle: port-usage accounting resets.
  void begin_cycle();

  /// Combinational-style accessors without port accounting (host/debug use).
  Word peek(std::int64_t addr) const;
  void poke(std::int64_t addr, Word value);

  /// Ported accesses: at most one read and one write per cycle. A second
  /// access of the same kind in one cycle throws Error (bank conflict).
  Word read(std::int64_t addr);
  void write(std::int64_t addr, Word value);

  /// Throws InvalidArgument unless 0 <= addr < words(): the check every
  /// accessor above runs.
  void check_addr(std::int64_t addr) const;

  /// Raw storage base, for the plan templates' gather/scatter pointer
  /// tables (core/plan_cache.hpp). The pointer is stable for the bank's
  /// lifetime: capacity is fixed at construction.
  const Word* data() const { return mem_.data(); }
  Word* data() { return mem_.data(); }

 private:
  std::vector<Word> mem_;
  bool read_used_ = false;
  bool write_used_ = false;
};

}  // namespace polymem::hw
