// AVX2/FMA wrapper layer for the kernels' SIMD tier.
//
// Design mirrors the thread knob in common/threads.hpp:
//
//   simd_enabled()      — what the kernels consult at dispatch time:
//                         API override > MT_SIMD env var > CPU detection.
//   set_simd_enabled()  — process-wide API override (tests, benches).
//   cpu_has_avx2()      — raw capability probe (AVX2 *and* FMA).
//
// Compilation model: nothing here requires -mavx2 globally. Every
// function that touches intrinsics carries MT_SIMD_TARGET
// (__attribute__((target("avx2,fma")))), so the binary always contains
// both tiers and dispatch is a runtime branch on simd_enabled(). On
// non-x86 targets (or -DMT_ENABLE_SIMD=OFF, which defines
// MT_SIMD_DISABLED) MT_SIMD_X86 is 0, the wrappers below vanish, and
// every kernel falls through to its scalar loop — the portable tier.
//
// Determinism contract (see README "Kernel performance"):
//   * scalar tier: bit-identical to the pre-SIMD kernels, always.
//   * SIMD tier: bit-identical run-to-run and across thread counts
//     (fixed lane order, fixed-order hadd(), OpenMP over disjoint
//     outputs) but *not* bit-identical to scalar — FMA fuses the
//     multiply-add rounding step and 8-lane accumulation reassociates
//     sums — so cross-tier checks are tolerance-based.
#pragma once

#include <cstdint>

#if !defined(MT_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__clang__) || defined(__GNUC__))
#define MT_SIMD_X86 1
#else
#define MT_SIMD_X86 0
#endif

#if MT_SIMD_X86
#include <immintrin.h>
#define MT_SIMD_TARGET __attribute__((target("avx2,fma")))
#else
#define MT_SIMD_TARGET
#endif

namespace mt {

// True when the running CPU supports AVX2 *and* FMA (both are required
// by the SIMD tier; they ship together on every AVX2 core since Haswell
// but are distinct CPUID bits). Always false on non-x86 builds.
bool cpu_has_avx2();

// The dispatch predicate: kernels take the SIMD path iff this is true.
// Precedence: set_simd_enabled() override, else the MT_SIMD env var
// ("off"/"0"/"scalar" force the scalar tier), else on when the CPU
// supports it. Never true when cpu_has_avx2() is false.
bool simd_enabled();

// Process-wide override, mirroring mt::set_num_threads: mode > 0 enables
// the SIMD tier (still subject to CPU support), mode == 0 forces the
// scalar tier, mode < 0 clears the override back to env/detection.
void set_simd_enabled(int mode);

// Raw override state (-1 none, 0 forced off, 1 forced on) so callers
// can save/restore around a scoped change.
int simd_override();

#if MT_SIMD_X86
namespace simd {

// Lanes per AVX2 vector of value_t (float).
inline constexpr int kLanes = 8;

MT_SIMD_TARGET inline __m256 zero() { return _mm256_setzero_ps(); }
MT_SIMD_TARGET inline __m256 set1(float v) { return _mm256_set1_ps(v); }
MT_SIMD_TARGET inline __m256 load(const float* p) {
  return _mm256_loadu_ps(p);
}
MT_SIMD_TARGET inline void store(float* p, __m256 v) {
  _mm256_storeu_ps(p, v);
}
MT_SIMD_TARGET inline __m256 add(__m256 a, __m256 b) {
  return _mm256_add_ps(a, b);
}
MT_SIMD_TARGET inline __m256 mul(__m256 a, __m256 b) {
  return _mm256_mul_ps(a, b);
}
// a * b + c in one rounding step.
MT_SIMD_TARGET inline __m256 fma(__m256 a, __m256 b, __m256 c) {
  return _mm256_fmadd_ps(a, b, c);
}

// Lane mask selecting the first w lanes (all-ones in [0, w), clear
// above): w <= 0 selects none, w >= 8 all.
MT_SIMD_TARGET inline __m256i first_lanes(std::int64_t w) {
  const int live = static_cast<int>(w < 0 ? 0 : (w > kLanes ? kLanes : w));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
// Masked load/store: lanes outside the mask are neither read nor written
// (so a masked-off lane past the end of an array cannot fault), and load
// as +0.0f.
MT_SIMD_TARGET inline __m256 load_masked(const float* p, __m256i mask) {
  return _mm256_maskload_ps(p, mask);
}
MT_SIMD_TARGET inline void store_masked(float* p, __m256i mask, __m256 v) {
  _mm256_maskstore_ps(p, mask, v);
}

// Gather base[idx[0..7]] for 64-bit indices (index_t): two 4-lane
// i64 gathers glued into one 8-lane vector, preserving lane order.
MT_SIMD_TARGET inline __m256 gather(const float* base,
                                    const std::int64_t* idx) {
  const __m256i i0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  const __m256i i1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + 4));
  const __m128 lo = _mm256_i64gather_ps(base, i0, 4);
  const __m128 hi = _mm256_i64gather_ps(base, i1, 4);
  return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
}

// Gather base[idx[l]] where idx[l] >= 0, yielding +0.0f for negative
// indices *without touching memory* (masked-off gather lanes are never
// dereferenced). This is the ELL padding contract: padding slots have
// col_id == -1 and must contribute exactly nothing — even when x holds
// infinities or NaNs, which a clamp-and-multiply-by-zero would poison.
MT_SIMD_TARGET inline __m256 gather_nonneg(const float* base,
                                           const std::int64_t* idx) {
  const __m256i i0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  const __m256i i1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + 4));
  const __m256i neg1 = _mm256_set1_epi64x(-1);
  // All-ones 64-bit lane where idx >= 0; the gather mask reads each
  // lane's float-sized top bits, which cmpgt's all-ones pattern sets.
  const __m128 m0 = _mm_castsi128_ps(_mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_cmpgt_epi64(i0, neg1),
                                  _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0))));
  const __m128 m1 = _mm_castsi128_ps(_mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_cmpgt_epi64(i1, neg1),
                                  _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0))));
  const __m128 lo =
      _mm256_mask_i64gather_ps(_mm_setzero_ps(), base, i0, m0, 4);
  const __m128 hi =
      _mm256_mask_i64gather_ps(_mm_setzero_ps(), base, i1, m1, 4);
  return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
}

// Horizontal sum with a *fixed* reduction tree — (0+4)+(2+6) etc. —
// so the result is a deterministic function of the lane values. Part
// of the SIMD tier's run-to-run bit-identity contract.
MT_SIMD_TARGET inline float hadd(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);                    // lanes l + (l+4)
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));           // + lanes (l+2)
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));       // + lane 1
  return _mm_cvtss_f32(s);
}

}  // namespace simd
#endif  // MT_SIMD_X86

}  // namespace mt
