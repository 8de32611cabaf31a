// AVX2 kernels: 4-lane 64-bit gathers (`vpgatherqq`) over the ExecPlan's
// flat pointer tables.
//
// The pointer table itself is the gather index vector: with a null base
// and scale 1, `_mm256_i64gather_epi64` loads from the four absolute
// addresses `lane_base[k..k+3] + delta` directly. All addresses are
// word-aligned (tables point at Word arrays, deltas are word offsets), so
// the gathers are UBSan-clean; intermediate below-base values exist only
// as integers (see dispatch.hpp).
//
// AVX2 has no scatter instruction, so writes use the scalar scatter
// kernels at this level too. An AVX2 write that permuted the data with a
// gather and then stored scalar was slower than the scalar kernel on
// every shape measured (4-thread Xeon, g++ 12 -O2, scatter_run with
// 8 lanes x 8/64 accesses: 62/528 vs 41/296 ns; 16 lanes x 64: 3034 vs
// 2595 ns), while the gathers win (gather_run, 8 lanes x 64: 200 vs
// 268 ns).
//
// Everything is compiled behind function-level `target("avx2")`
// attributes, so the library builds (and the scalar path runs) on any
// x86-64 toolchain without global -mavx2; kernels_for(kAvx2) is handed
// out only when cpuid reports AVX2.
#include "core/simd/kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define POLYMEM_HAVE_AVX2_BUILD 1
#include <immintrin.h>
#endif

namespace polymem::core::simd {

#if defined(POLYMEM_HAVE_AVX2_BUILD)

namespace {

__attribute__((target("avx2"))) inline __m256i gather4(
    const std::uintptr_t* lane_base, unsigned k, __m256i delta_bytes) {
  __m256i ptrs = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(lane_base + k));
  ptrs = _mm256_add_epi64(ptrs, delta_bytes);
  return _mm256_i64gather_epi64(static_cast<const long long*>(nullptr),
                                ptrs, 1);
}

__attribute__((target("avx2"))) void gather_run(
    const std::uintptr_t* lane_base, unsigned lanes,
    const std::int64_t* delta, std::int64_t count, Word* out) {
  const unsigned vec = lanes & ~3u;
  for (std::int64_t t = 0; t < count; ++t) {
    const std::int64_t db =
        delta[t] * static_cast<std::int64_t>(sizeof(Word));
    const __m256i dv = _mm256_set1_epi64x(db);
    Word* o = out + static_cast<std::size_t>(t) * lanes;
    unsigned k = 0;
    for (; k < vec; k += 4)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + k),
                          gather4(lane_base, k, dv));
    for (; k < lanes; ++k)
      o[k] = *reinterpret_cast<const Word*>(
          lane_base[k] + static_cast<std::uintptr_t>(db));
  }
}

__attribute__((target("avx2"))) void gather_multi(
    const std::uintptr_t* const* table_lane_base, const std::int32_t* tmpl_of,
    unsigned lanes, const std::int64_t* delta, std::int64_t count,
    Word* out) {
  const unsigned vec = lanes & ~3u;
  for (std::int64_t t = 0; t < count; ++t) {
    const std::uintptr_t* lane_base = table_lane_base[tmpl_of[t]];
    const std::int64_t db =
        delta[t] * static_cast<std::int64_t>(sizeof(Word));
    const __m256i dv = _mm256_set1_epi64x(db);
    Word* o = out + static_cast<std::size_t>(t) * lanes;
    unsigned k = 0;
    for (; k < vec; k += 4)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + k),
                          gather4(lane_base, k, dv));
    for (; k < lanes; ++k)
      o[k] = *reinterpret_cast<const Word*>(
          lane_base[k] + static_cast<std::uintptr_t>(db));
  }
}

}  // namespace

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

const Kernels& avx2_kernels() {
  static const Kernels k{Level::kAvx2, gather_run, gather_multi,
                         scalar_kernels().scatter_run,
                         scalar_kernels().scatter_multi};
  return k;
}

#else  // !POLYMEM_HAVE_AVX2_BUILD

bool avx2_supported() { return false; }

const Kernels& avx2_kernels() { return scalar_kernels(); }

#endif

}  // namespace polymem::core::simd
