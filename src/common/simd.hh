/**
 * @file
 * Vectorized tag-array probes for the flat set-major TLB/cache/PTLB
 * storage. The hot operation is "find the first index whose packed
 * 64-bit tag equals a target" over a small row (4-16 ways).
 *
 * Three implementations share one contract:
 *  - scalar loop (always available; forced by -DPMODV_FORCE_SCALAR=ON
 *    at configure time or simd::setForceScalar(true) at runtime),
 *  - SSE2 two-lane compare (baseline x86-64, no dispatch needed),
 *  - AVX2 four-lane compare (out-of-line function multiversioning,
 *    selected once at startup via __builtin_cpu_supports).
 * AArch64 uses a NEON two-lane compare in place of SSE2.
 *
 * Callers must pad flat tag arrays with kTagPad zero entries past the
 * end so the vector loops may over-read within the allocation; a
 * packed tag of 0 always means "invalid slot" so the padding can
 * never produce a false match beyond the row (matches at index >= n
 * are filtered before returning).
 */

#ifndef PMODV_COMMON_SIMD_HH
#define PMODV_COMMON_SIMD_HH

#include <cstdint>

#if defined(__x86_64__) && !defined(PMODV_FORCE_SCALAR)
#include <emmintrin.h>
#elif defined(__aarch64__) && !defined(PMODV_FORCE_SCALAR)
#include <arm_neon.h>
#endif

namespace pmodv::simd
{

/** Zero-tag slots callers must append after every flat tag array. */
inline constexpr unsigned kTagPad = 4;

/** Runtime kill switch (for the scalar-vs-SIMD differential test). */
extern bool gForceScalar;

void setForceScalar(bool force);
bool forceScalar();

/** Name of the probe implementation currently in effect. */
const char *activeImpl();

/** Reference implementation: first i < n with a[i] == target, else -1. */
int findU64Scalar(const std::uint64_t *a, unsigned n,
                  std::uint64_t target);

#if defined(__x86_64__) && !defined(PMODV_FORCE_SCALAR)

/** True when the CPU supports AVX2 (detected once at startup). */
extern const bool gHaveAvx2;

/** AVX2 variant, compiled with target("avx2"); only call if gHaveAvx2. */
int findU64Avx2(const std::uint64_t *a, unsigned n, std::uint64_t target);

/**
 * First index i < n with a[i] == target, else -1. Rows are probed two
 * (SSE2) or four (AVX2) tags per step; the padding contract above
 * makes the over-read safe and false-positive free.
 */
inline int
findU64(const std::uint64_t *a, unsigned n, std::uint64_t target)
{
    if (gForceScalar) [[unlikely]]
        return findU64Scalar(a, n, target);
    // The out-of-line AVX2 variant only pays for itself on long rows;
    // short rows stay in the inline SSE2 loop below.
    if (n > 8 && gHaveAvx2)
        return findU64Avx2(a, n, target);
    // Two tags per step with an early exit on match: hit-heavy
    // regimes (small working sets) stop at the matching chunk, and a
    // full-row miss is still only n/2 well-predicted branches.
    const __m128i want = _mm_set1_epi64x(static_cast<long long>(target));
    for (unsigned i = 0; i < n; i += 2) {
        const __m128i row = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        // SSE2 has no 64-bit compare: match 32-bit halves, then AND
        // each half with its partner so a lane is all-ones only when
        // both halves matched.
        const __m128i eq32 = _mm_cmpeq_epi32(row, want);
        const __m128i swapped = _mm_shuffle_epi32(eq32, 0xB1);
        const __m128i eq64 = _mm_and_si128(eq32, swapped);
        const int mask = _mm_movemask_pd(_mm_castsi128_pd(eq64));
        if (mask) {
            const unsigned idx =
                i + static_cast<unsigned>(__builtin_ctz(mask));
            // Over-read lanes (odd n, padding) filtered here.
            return idx < n ? static_cast<int>(idx) : -1;
        }
    }
    return -1;
}

#elif defined(__aarch64__) && !defined(PMODV_FORCE_SCALAR)

inline int
findU64(const std::uint64_t *a, unsigned n, std::uint64_t target)
{
    if (gForceScalar) [[unlikely]]
        return findU64Scalar(a, n, target);
    const uint64x2_t want = vdupq_n_u64(target);
    for (unsigned i = 0; i < n; i += 2) {
        const uint64x2_t eq = vceqq_u64(vld1q_u64(a + i), want);
        if (vgetq_lane_u64(eq, 0)) {
            return i < n ? static_cast<int>(i) : -1;
        }
        if (vgetq_lane_u64(eq, 1)) {
            const unsigned idx = i + 1;
            return idx < n ? static_cast<int>(idx) : -1;
        }
    }
    return -1;
}

#else // scalar-only build

inline int
findU64(const std::uint64_t *a, unsigned n, std::uint64_t target)
{
    return findU64Scalar(a, n, target);
}

#endif

} // namespace pmodv::simd

#endif // PMODV_COMMON_SIMD_HH
