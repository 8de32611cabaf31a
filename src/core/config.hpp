// PolyMem configuration (paper Sec. III-A).
//
// "A configuration consists of a storage capacity C (e.g., 512KB),
//  distributed in p x q memory lanes, a PRF access scheme, and the number
//  of read ports."
//
// In addition this model fixes the 2D address-space shape (height x width
// elements): the hardware derives per-bank depth from it, and the
// addressing function needs the row width. `with_capacity` derives a
// near-square shape automatically, as the paper's designs do.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "maf/scheme.hpp"

namespace polymem::core {

struct PolyMemConfig {
  maf::Scheme scheme = maf::Scheme::kReRo;
  unsigned p = 2;                  ///< vertical bank-grid dimension
  unsigned q = 4;                  ///< horizontal bank-grid dimension
  unsigned read_ports = 1;         ///< independent parallel read ports
  unsigned data_width_bits = 64;   ///< logical element width
  std::int64_t height = 0;         ///< address-space rows (multiple of p)
  std::int64_t width = 0;          ///< address-space columns (multiple of q)
  unsigned read_latency = 14;      ///< pipeline read latency in cycles
                                   ///< (paper Sec. V: 14 for the Vectis design)

  /// Most read ports validate() accepts (each one replicates every bank).
  static constexpr unsigned kMaxReadPorts = 16;

  /// Lanes per port: elements moved per cycle per data port.
  unsigned lanes() const { return p * q; }

  /// Logical capacity in bytes (one copy of the data).
  std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(height) * width * (data_width_bits / 8);
  }

  /// Physical storage in bytes including per-read-port bank replication
  /// ("increasing the number of read ports involved duplicating data in
  /// BRAMs", paper Sec. IV-C).
  std::uint64_t physical_bytes() const {
    return capacity_bytes() * read_ports;
  }

  std::int64_t words_per_bank() const {
    return (height / p) * (width / q);
  }

  /// The same geometry under a different access scheme — the *polymorphic*
  /// step the adaptive layout engine (src/adapt) takes at migration time:
  /// capacity, lanes, ports and shape are invariants of a migration, only
  /// the MAF changes.
  PolyMemConfig with_scheme(maf::Scheme new_scheme) const {
    PolyMemConfig out = *this;
    out.scheme = new_scheme;
    return out;
  }

  /// Derives a configuration with the given logical capacity and a
  /// near-square height x width shape. Capacity, p and q must be powers of
  /// two (as all the paper's design points are).
  static PolyMemConfig with_capacity(std::uint64_t capacity_bytes,
                                     maf::Scheme scheme, unsigned p,
                                     unsigned q, unsigned read_ports = 1,
                                     unsigned data_width_bits = 64);

  /// Throws InvalidArgument when a field combination is inconsistent.
  void validate() const;

  /// "512KB 8 lanes (2x4) ReRo 2R" — used in tables and logs.
  std::string describe() const;
};

}  // namespace polymem::core
