// The engine's gather/scatter kernels (contracts in dispatch.hpp).
//
// One access is `lanes` independent loads off a flat pointer table — no
// bank objects, no port accounting, no per-lane function calls — which
// the compiler unrolls and schedules freely.
#include "core/simd/dispatch.hpp"

namespace polymem::core::simd {

namespace {

inline const Word* word_at(std::uintptr_t base, std::int64_t delta_bytes) {
  return reinterpret_cast<const Word*>(
      base + static_cast<std::uintptr_t>(delta_bytes));
}

inline Word* mut_word_at(std::uintptr_t base, std::int64_t delta_bytes) {
  return reinterpret_cast<Word*>(base +
                                 static_cast<std::uintptr_t>(delta_bytes));
}

inline void scatter_one(const std::uintptr_t* bank_base, unsigned replicas,
                        const std::uint32_t* lane_for_bank, unsigned lanes,
                        std::int64_t db, const Word* d) {
  for (unsigned r = 0; r < replicas; ++r) {
    const std::uintptr_t* base = bank_base + static_cast<std::size_t>(r) * lanes;
    for (unsigned b = 0; b < lanes; ++b)
      *mut_word_at(base[b], db) = d[lane_for_bank[b]];
  }
}

}  // namespace

void gather_run(const std::uintptr_t* lane_base, unsigned lanes,
                const std::int64_t* delta, std::int64_t count, Word* out) {
  for (std::int64_t t = 0; t < count; ++t) {
    const std::int64_t db =
        delta[t] * static_cast<std::int64_t>(sizeof(Word));
    Word* o = out + static_cast<std::size_t>(t) * lanes;
    for (unsigned k = 0; k < lanes; ++k) o[k] = *word_at(lane_base[k], db);
  }
}

void gather_multi(const std::uintptr_t* const* table_lane_base,
                  const std::int32_t* tmpl_of, unsigned lanes,
                  const std::int64_t* delta, std::int64_t count, Word* out) {
  for (std::int64_t t = 0; t < count; ++t) {
    const std::uintptr_t* lane_base = table_lane_base[tmpl_of[t]];
    const std::int64_t db =
        delta[t] * static_cast<std::int64_t>(sizeof(Word));
    Word* o = out + static_cast<std::size_t>(t) * lanes;
    for (unsigned k = 0; k < lanes; ++k) o[k] = *word_at(lane_base[k], db);
  }
}

void scatter_run(const std::uintptr_t* bank_base, unsigned replicas,
                 const std::uint32_t* lane_for_bank, unsigned lanes,
                 const std::int64_t* delta, std::int64_t count,
                 const Word* data) {
  for (std::int64_t t = 0; t < count; ++t)
    scatter_one(bank_base, replicas, lane_for_bank, lanes,
                delta[t] * static_cast<std::int64_t>(sizeof(Word)),
                data + static_cast<std::size_t>(t) * lanes);
}

void scatter_lanes(const std::uintptr_t* lane_base, unsigned replicas,
                   unsigned lanes, const std::int64_t* delta,
                   std::int64_t count, const Word* data) {
  for (std::int64_t t = 0; t < count; ++t) {
    const std::int64_t db =
        delta[t] * static_cast<std::int64_t>(sizeof(Word));
    const Word* d = data + static_cast<std::size_t>(t) * lanes;
    for (unsigned r = 0; r < replicas; ++r) {
      const std::uintptr_t* base =
          lane_base + static_cast<std::size_t>(r) * lanes;
      for (unsigned k = 0; k < lanes; ++k) *mut_word_at(base[k], db) = d[k];
    }
  }
}

void scatter_multi(const std::uintptr_t* const* table_bank_base,
                   const std::uint32_t* const* table_lane_for_bank,
                   const std::int32_t* tmpl_of, unsigned replicas,
                   unsigned lanes, const std::int64_t* delta,
                   std::int64_t count, const Word* data) {
  for (std::int64_t t = 0; t < count; ++t) {
    const std::int32_t m = tmpl_of[t];
    scatter_one(table_bank_base[m], replicas, table_lane_for_bank[m], lanes,
                delta[t] * static_cast<std::int64_t>(sizeof(Word)),
                data + static_cast<std::size_t>(t) * lanes);
  }
}

}  // namespace polymem::core::simd
