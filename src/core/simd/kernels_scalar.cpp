// The engine's gather/scatter kernels (contracts in dispatch.hpp).
//
// One access is `lanes` independent loads off a flat pointer table — no
// bank objects, no port accounting, no per-lane function calls — which
// the compiler unrolls and schedules freely.
#include "core/simd/dispatch.hpp"

#include <cstddef>

namespace polymem::core::simd {

namespace {

inline std::uintptr_t delta_bytes(std::int64_t delta) {
  return static_cast<std::uintptr_t>(delta *
                                     static_cast<std::int64_t>(sizeof(Word)));
}

}  // namespace

void gather(const std::uintptr_t* const* table, unsigned port,
            unsigned lanes, const std::int64_t* delta, std::int64_t count,
            Word* out) {
  const std::size_t offset = static_cast<std::size_t>(port) * lanes;
  for (std::int64_t t = 0; t < count; ++t) {
    const std::uintptr_t* base = table[t] + offset;
    const std::uintptr_t db = delta_bytes(delta[t]);
    Word* o = out + static_cast<std::size_t>(t) * lanes;
    for (unsigned k = 0; k < lanes; ++k)
      o[k] = *reinterpret_cast<const Word*>(base[k] + db);
  }
}

void scatter(const std::uintptr_t* const* table, unsigned replicas,
             unsigned lanes, const std::int64_t* delta, std::int64_t count,
             const Word* data) {
  for (std::int64_t t = 0; t < count; ++t) {
    const std::uintptr_t* base = table[t];
    const std::uintptr_t db = delta_bytes(delta[t]);
    const Word* d = data + static_cast<std::size_t>(t) * lanes;
    for (unsigned r = 0; r < replicas; ++r, base += lanes)
      for (unsigned k = 0; k < lanes; ++k)
        *reinterpret_cast<Word*>(base[k] + db) = d[k];
  }
}

}  // namespace polymem::core::simd
