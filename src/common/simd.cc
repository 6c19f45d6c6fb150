#include "common/simd.hh"

#if defined(__x86_64__) && !defined(PMODV_FORCE_SCALAR)
#include <immintrin.h>
#endif

namespace pmodv::simd
{

bool gForceScalar = false;

void
setForceScalar(bool force)
{
    gForceScalar = force;
}

bool
forceScalar()
{
    return gForceScalar;
}

int
findU64Scalar(const std::uint64_t *a, unsigned n, std::uint64_t target)
{
    for (unsigned i = 0; i < n; ++i) {
        if (a[i] == target)
            return static_cast<int>(i);
    }
    return -1;
}

#if defined(__x86_64__) && !defined(PMODV_FORCE_SCALAR)

const bool gHaveAvx2 = __builtin_cpu_supports("avx2");

__attribute__((target("avx2"))) int
findU64Avx2(const std::uint64_t *a, unsigned n, std::uint64_t target)
{
    const __m256i want = _mm256_set1_epi64x(static_cast<long long>(target));
    unsigned long long found = 0;
    for (unsigned i = 0; i < n; i += 4) {
        const __m256i row = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        found |= static_cast<unsigned long long>(_mm256_movemask_pd(
                     _mm256_castsi256_pd(_mm256_cmpeq_epi64(row, want))))
                 << i;
    }
    // Over-read lanes (n not a multiple of 4, padding) filtered here.
    found &= n < 64 ? (1ull << n) - 1 : ~0ull;
    return found ? __builtin_ctzll(found) : -1;
}

const char *
activeImpl()
{
    if (gForceScalar)
        return "scalar(runtime)";
    return gHaveAvx2 ? "avx2" : "sse2";
}

#elif defined(__aarch64__) && !defined(PMODV_FORCE_SCALAR)

const char *
activeImpl()
{
    return gForceScalar ? "scalar(runtime)" : "neon";
}

#else

const char *
activeImpl()
{
    return "scalar(compile-time)";
}

#endif

} // namespace pmodv::simd
