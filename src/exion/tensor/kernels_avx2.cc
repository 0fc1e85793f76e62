/**
 * @file
 * AVX2 kernel table (256-bit lanes).
 *
 * Exactness discipline: float kernels vectorize across independent
 * output elements with separate _mm256_mul_ps / _mm256_add_ps (never
 * FMA — the golden chains round twice per term), ragged tails fall
 * back to the scalar reference chains, compares are ordered-quiet
 * (_CMP_*_OQ) so NaN lanes never set mask bits, and the integer
 * kernels (dotI32, gemmInt12) are exact in any order.
 *
 * This TU alone is compiled with -mavx2 (plus -ffp-contract=off);
 * it must only be *called* after the runtime probe confirmed AVX2.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace exion
{
namespace simd
{

namespace
{

void
axpyF32Avx2(float *out, const float *x, float a, Index n)
{
    const __m256 va = _mm256_set1_ps(a);
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256 o = _mm256_loadu_ps(out + j);
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va, _mm256_loadu_ps(x + j)));
        _mm256_storeu_ps(out + j, o);
    }
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

void
axpy4F32Avx2(float *out, const float *x0, const float *x1,
             const float *x2, const float *x3, float a0, float a1,
             float a2, float a3, Index n)
{
    const __m256 va0 = _mm256_set1_ps(a0);
    const __m256 va1 = _mm256_set1_ps(a1);
    const __m256 va2 = _mm256_set1_ps(a2);
    const __m256 va3 = _mm256_set1_ps(a3);
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256 o = _mm256_loadu_ps(out + j);
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va0, _mm256_loadu_ps(x0 + j)));
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va1, _mm256_loadu_ps(x1 + j)));
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va2, _mm256_loadu_ps(x2 + j)));
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va3, _mm256_loadu_ps(x3 + j)));
        _mm256_storeu_ps(out + j, o);
    }
    if (j < n)
        axpy4F32Scalar(out + j, x0 + j, x1 + j, x2 + j, x3 + j, a0,
                       a1, a2, a3, n - j);
}

/** Sum of the four i64 lanes. */
i64
hsum64(__m256i v)
{
    alignas(32) i64 lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

i64
dotI32Avx2(const i32 *a, const i32 *b, Index n)
{
    __m256i acc = _mm256_setzero_si256();
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + k));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + k));
        // Signed 32x32 -> 64 on even lanes; shift down for odd lanes.
        const __m256i even = _mm256_mul_epi32(va, vb);
        const __m256i odd = _mm256_mul_epi32(
            _mm256_srli_epi64(va, 32), _mm256_srli_epi64(vb, 32));
        acc = _mm256_add_epi64(acc, even);
        acc = _mm256_add_epi64(acc, odd);
    }
    i64 total = hsum64(acc);
    if (k < n)
        total += dotI32Scalar(a + k, b + k, n - k);
    return total;
}

/**
 * One MR-row by 16-column tile of gemmInt12: MR x 2 i32 accumulators
 * stay in registers for up to kGemmInt12FlushSteps k-steps, then
 * widen into C (which the caller zeroed).
 */
template <int MR>
void
gemmInt12TileAvx2(const i32 *a, Index lda, const i32 *b, Index ldb,
                  i64 *c, Index ldc, Index k)
{
    for (Index k0 = 0; k0 < k; k0 += kGemmInt12FlushSteps) {
        const Index k1 = std::min(k, k0 + kGemmInt12FlushSteps);
        __m256i acc[MR][2];
        for (int r = 0; r < MR; ++r) {
            acc[r][0] = _mm256_setzero_si256();
            acc[r][1] = _mm256_setzero_si256();
        }
        for (Index kk = k0; kk < k1; ++kk) {
            const i32 *brow = b + kk * ldb;
            const __m256i b0 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(brow));
            const __m256i b1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(brow + 8));
            for (int r = 0; r < MR; ++r) {
                const __m256i av = _mm256_set1_epi32(a[r * lda + kk]);
                acc[r][0] = _mm256_add_epi32(
                    acc[r][0], _mm256_mullo_epi32(av, b0));
                acc[r][1] = _mm256_add_epi32(
                    acc[r][1], _mm256_mullo_epi32(av, b1));
            }
        }
        for (int r = 0; r < MR; ++r) {
            for (int v = 0; v < 2; ++v) {
                __m256i *dst =
                    reinterpret_cast<__m256i *>(c + r * ldc + 8 * v);
                const __m256i wlo = _mm256_cvtepi32_epi64(
                    _mm256_castsi256_si128(acc[r][v]));
                const __m256i whi = _mm256_cvtepi32_epi64(
                    _mm256_extracti128_si256(acc[r][v], 1));
                _mm256_storeu_si256(
                    dst, _mm256_add_epi64(_mm256_loadu_si256(dst), wlo));
                _mm256_storeu_si256(
                    dst + 1,
                    _mm256_add_epi64(_mm256_loadu_si256(dst + 1), whi));
            }
        }
    }
}

using GemmInt12Tile = void (*)(const i32 *, Index, const i32 *, Index,
                               i64 *, Index, Index);

constexpr GemmInt12Tile kGemmInt12Tiles[4] = {
    gemmInt12TileAvx2<1>, gemmInt12TileAvx2<2>, gemmInt12TileAvx2<3>,
    gemmInt12TileAvx2<4>};

void
gemmInt12Avx2(const i32 *a, Index lda, const i32 *b, Index ldb, i64 *c,
              Index ldc, Index m, Index k, Index n)
{
    // Full 16-column panels by 4-row tiles; the ragged column tail
    // goes to the scalar reference.
    const Index full = n - n % 16;
    for (Index i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + full, i64{0});
    for (Index j0 = 0; j0 < full; j0 += 16) {
        for (Index i0 = 0; i0 < m; i0 += 4) {
            const Index mr = std::min<Index>(4, m - i0);
            kGemmInt12Tiles[mr - 1](a + i0 * lda, lda, b + j0, ldb,
                                    c + i0 * ldc + j0, ldc, k);
        }
    }
    if (full < n)
        gemmInt12Scalar(a, lda, b + full, ldb, c + full, ldc, m, k,
                        n - full);
}

u64
absGreaterMask64Avx2(const float *x, float theta, Index n)
{
    const __m256 vt = _mm256_set1_ps(theta);
    const __m256 sign = _mm256_set1_ps(-0.0f);
    u64 bits = 0;
    Index i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 mag =
            _mm256_andnot_ps(sign, _mm256_loadu_ps(x + i));
        const int lane_bits = _mm256_movemask_ps(
            _mm256_cmp_ps(mag, vt, _CMP_GT_OQ));
        bits |= static_cast<u64>(static_cast<unsigned>(lane_bits))
            << i;
    }
    if (i < n)
        bits |= absGreaterMask64Scalar(x + i, theta, n - i) << i;
    return bits;
}

u64
cmpGeMask64Avx2(const float *x, float threshold, Index n)
{
    const __m256 vt = _mm256_set1_ps(threshold);
    u64 bits = 0;
    Index i = 0;
    for (; i + 8 <= n; i += 8) {
        const int lane_bits = _mm256_movemask_ps(
            _mm256_cmp_ps(_mm256_loadu_ps(x + i), vt, _CMP_GE_OQ));
        bits |= static_cast<u64>(static_cast<unsigned>(lane_bits))
            << i;
    }
    if (i < n)
        bits |= cmpGeMask64Scalar(x + i, threshold, n - i) << i;
    return bits;
}

/*
 * The word kernels reuse the scalar bodies: compiled in this TU with
 * -mavx2 (which implies POPCNT), std::popcount lowers to the
 * hardware instruction the baseline-ISA scalar TU cannot emit.
 */

u64
popcountWordsAvx2(const u64 *w, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(w[i]));
    return total;
}

u64
andPopcountWordsAvx2(const u64 *a, const u64 *b, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(a[i] & b[i]));
    return total;
}

} // namespace

const SimdKernels *
avx2Table()
{
    static const SimdKernels table = {
        "avx2",
        axpyF32Avx2,
        axpy4F32Avx2,
        dotI32Avx2,
        gemmInt12Avx2,
        absGreaterMask64Avx2,
        cmpGeMask64Avx2,
        popcountWordsAvx2,
        andPopcountWordsAvx2,
        orWordsScalar,
    };
    return &table;
}

} // namespace simd
} // namespace exion

#else // !defined(__AVX2__)

namespace exion
{
namespace simd
{

const SimdKernels *
avx2Table()
{
    return nullptr;
}

} // namespace simd
} // namespace exion

#endif
