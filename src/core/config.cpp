#include "core/config.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/math.hpp"

namespace polymem::core {

PolyMemConfig PolyMemConfig::with_capacity(std::uint64_t capacity_bytes,
                                           maf::Scheme scheme, unsigned p,
                                           unsigned q, unsigned read_ports,
                                           unsigned data_width_bits) {
  POLYMEM_REQUIRE(is_pow2(capacity_bytes), "capacity must be a power of two");
  POLYMEM_REQUIRE(is_pow2(p) && is_pow2(q),
                  "bank geometry must be powers of two for automatic shapes");
  POLYMEM_REQUIRE(data_width_bits == 32 || data_width_bits == 64,
                  "data width must be 32 or 64 bits");
  const std::uint64_t word_bytes = data_width_bits / 8;
  POLYMEM_REQUIRE(capacity_bytes >= word_bytes * p * q,
                  "capacity must hold at least one element per bank");
  const std::uint64_t words = capacity_bytes / word_bytes;

  // Near-square shape: width = 2^ceil(k/2), height = 2^floor(k/2); then
  // widen/heighten to cover the p/q multiples (powers of two divide evenly).
  const unsigned k = log2_floor(words);
  std::int64_t width = std::int64_t{1} << ((k + 1) / 2);
  std::int64_t height = std::int64_t{1} << (k / 2);
  while (width < q) { width *= 2; height /= 2; }
  while (height < p) { height *= 2; width /= 2; }

  PolyMemConfig cfg;
  cfg.scheme = scheme;
  cfg.p = p;
  cfg.q = q;
  cfg.read_ports = read_ports;
  cfg.data_width_bits = data_width_bits;
  cfg.height = height;
  cfg.width = width;
  cfg.validate();
  POLYMEM_ASSERT(cfg.capacity_bytes() == capacity_bytes);
  return cfg;
}

void PolyMemConfig::validate() const {
  POLYMEM_REQUIRE(p >= 1 && q >= 1, "bank geometry must be at least 1x1");
  POLYMEM_REQUIRE(read_ports >= 1, "at least one read port is required");
  POLYMEM_REQUIRE(read_ports <= kMaxReadPorts,
                  "more than 16 read ports is not sensible");
  POLYMEM_REQUIRE(data_width_bits == 32 || data_width_bits == 64,
                  "data width must be 32 or 64 bits");
  POLYMEM_REQUIRE(height >= 1 && width >= 1, "address space must be non-empty");
  POLYMEM_REQUIRE(height % p == 0, "height must be a multiple of p");
  POLYMEM_REQUIRE(width % q == 0, "width must be a multiple of q");
}

std::string PolyMemConfig::describe() const {
  std::ostringstream os;
  os << format_capacity(capacity_bytes()) << ' ' << lanes() << " lanes ("
     << p << 'x' << q << ") " << maf::scheme_name(scheme) << ' ' << read_ports
     << 'R';
  return os.str();
}

}  // namespace polymem::core
