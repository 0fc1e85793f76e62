/**
 * @file
 * AVX-512F kernel table (512-bit lanes).
 *
 * Same exactness discipline as the AVX2 table: independent-element
 * float kernels with separate mul/add (no FMA), ordered-quiet
 * compares, integer reductions. The mask kernels are where AVX-512
 * shines — _mm512_cmp_ps_mask yields the 16 compare bits directly,
 * and masked loads make the ragged tail branch-free (masked-off
 * lanes load +0.0f and are excluded from the result mask, so NaN/Inf
 * beyond the tail cannot leak in).
 *
 * This TU alone is compiled with -mavx512f (plus -ffp-contract=off);
 * only called after the runtime probe confirmed AVX-512F.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>

namespace exion
{
namespace simd
{

namespace
{

void
axpyF32Avx512(float *out, const float *x, float a, Index n)
{
    const __m512 va = _mm512_set1_ps(a);
    Index j = 0;
    for (; j + 16 <= n; j += 16) {
        __m512 o = _mm512_loadu_ps(out + j);
        o = _mm512_add_ps(
            o, _mm512_mul_ps(va, _mm512_loadu_ps(x + j)));
        _mm512_storeu_ps(out + j, o);
    }
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

void
axpy4F32Avx512(float *out, const float *x0, const float *x1,
               const float *x2, const float *x3, float a0, float a1,
               float a2, float a3, Index n)
{
    const __m512 va0 = _mm512_set1_ps(a0);
    const __m512 va1 = _mm512_set1_ps(a1);
    const __m512 va2 = _mm512_set1_ps(a2);
    const __m512 va3 = _mm512_set1_ps(a3);
    Index j = 0;
    for (; j + 16 <= n; j += 16) {
        __m512 o = _mm512_loadu_ps(out + j);
        o = _mm512_add_ps(
            o, _mm512_mul_ps(va0, _mm512_loadu_ps(x0 + j)));
        o = _mm512_add_ps(
            o, _mm512_mul_ps(va1, _mm512_loadu_ps(x1 + j)));
        o = _mm512_add_ps(
            o, _mm512_mul_ps(va2, _mm512_loadu_ps(x2 + j)));
        o = _mm512_add_ps(
            o, _mm512_mul_ps(va3, _mm512_loadu_ps(x3 + j)));
        _mm512_storeu_ps(out + j, o);
    }
    if (j < n)
        axpy4F32Scalar(out + j, x0 + j, x1 + j, x2 + j, x3 + j, a0,
                       a1, a2, a3, n - j);
}

i64
dotI32Avx512(const i32 *a, const i32 *b, Index n)
{
    __m512i acc = _mm512_setzero_si512();
    Index k = 0;
    for (; k + 16 <= n; k += 16) {
        const __m512i va = _mm512_loadu_si512(a + k);
        const __m512i vb = _mm512_loadu_si512(b + k);
        const __m512i even = _mm512_mul_epi32(va, vb);
        const __m512i odd = _mm512_mul_epi32(
            _mm512_srli_epi64(va, 32), _mm512_srli_epi64(vb, 32));
        acc = _mm512_add_epi64(acc, even);
        acc = _mm512_add_epi64(acc, odd);
    }
    i64 total = _mm512_reduce_add_epi64(acc);
    if (k < n)
        total += dotI32Scalar(a + k, b + k, n - k);
    return total;
}

/**
 * One MR-row by (16 * NV)-column tile of gemmInt12: MR x NV i32
 * accumulators stay in registers for up to kGemmInt12FlushSteps
 * k-steps, then widen into C. Lanes outside live[v] (a ragged last
 * panel) load as zero and are never stored.
 */
template <int MR, int NV>
void
gemmInt12TileAvx512(const i32 *a, Index lda, const i32 *b, Index ldb,
                    i64 *c, Index ldc, Index k, const __mmask16 *live)
{
    for (Index k0 = 0; k0 < k; k0 += kGemmInt12FlushSteps) {
        const Index k1 = std::min(k, k0 + kGemmInt12FlushSteps);
        __m512i acc[MR][NV];
        for (int r = 0; r < MR; ++r)
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm512_setzero_si512();
        for (Index kk = k0; kk < k1; ++kk) {
            const i32 *brow = b + kk * ldb;
            __m512i bv[NV];
            for (int v = 0; v < NV; ++v)
                bv[v] = _mm512_maskz_loadu_epi32(live[v], brow + 16 * v);
            for (int r = 0; r < MR; ++r) {
                const __m512i av = _mm512_set1_epi32(a[r * lda + kk]);
                for (int v = 0; v < NV; ++v)
                    acc[r][v] = _mm512_add_epi32(
                        acc[r][v], _mm512_mullo_epi32(av, bv[v]));
            }
        }
        for (int r = 0; r < MR; ++r) {
            for (int v = 0; v < NV; ++v) {
                i64 *dst = c + r * ldc + 16 * v;
                const __mmask8 lo = static_cast<__mmask8>(live[v]);
                const __mmask8 hi = static_cast<__mmask8>(live[v] >> 8);
                const __m512i wlo = _mm512_cvtepi32_epi64(
                    _mm512_castsi512_si256(acc[r][v]));
                const __m512i whi = _mm512_cvtepi32_epi64(
                    _mm512_extracti64x4_epi64(acc[r][v], 1));
                _mm512_mask_storeu_epi64(
                    dst, lo,
                    _mm512_add_epi64(_mm512_maskz_loadu_epi64(lo, dst),
                                     wlo));
                _mm512_mask_storeu_epi64(
                    dst + 8, hi,
                    _mm512_add_epi64(
                        _mm512_maskz_loadu_epi64(hi, dst + 8), whi));
            }
        }
    }
}

using GemmInt12Tile = void (*)(const i32 *, Index, const i32 *, Index,
                               i64 *, Index, Index, const __mmask16 *);

/** Tile kernels by [rows - 1][vectors - 1]. */
constexpr GemmInt12Tile kGemmInt12Tiles[4][4] = {
    {gemmInt12TileAvx512<1, 1>, gemmInt12TileAvx512<1, 2>,
     gemmInt12TileAvx512<1, 3>, gemmInt12TileAvx512<1, 4>},
    {gemmInt12TileAvx512<2, 1>, gemmInt12TileAvx512<2, 2>,
     gemmInt12TileAvx512<2, 3>, gemmInt12TileAvx512<2, 4>},
    {gemmInt12TileAvx512<3, 1>, gemmInt12TileAvx512<3, 2>,
     gemmInt12TileAvx512<3, 3>, gemmInt12TileAvx512<3, 4>},
    {gemmInt12TileAvx512<4, 1>, gemmInt12TileAvx512<4, 2>,
     gemmInt12TileAvx512<4, 3>, gemmInt12TileAvx512<4, 4>},
};

void
gemmInt12Avx512(const i32 *a, Index lda, const i32 *b, Index ldb,
                i64 *c, Index ldc, Index m, Index k, Index n)
{
    for (Index i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + n, i64{0});
    // 64-column panels (4 x 16 lanes) by 4-row tiles: each B panel
    // row feeds four rows of A from registers.
    for (Index j0 = 0; j0 < n; j0 += 64) {
        const Index w = std::min<Index>(64, n - j0);
        __mmask16 live[4];
        for (Index v = 0; v < 4; ++v) {
            const Index lanes =
                w > 16 * v ? std::min<Index>(16, w - 16 * v) : 0;
            live[v] = static_cast<__mmask16>((u32{1} << lanes) - 1);
        }
        const Index nv = (w + 15) / 16;
        for (Index i0 = 0; i0 < m; i0 += 4) {
            const Index mr = std::min<Index>(4, m - i0);
            kGemmInt12Tiles[mr - 1][nv - 1](a + i0 * lda, lda, b + j0,
                                            ldb, c + i0 * ldc + j0,
                                            ldc, k, live);
        }
    }
}

u64
absGreaterMask64Avx512(const float *x, float theta, Index n)
{
    const __m512 vt = _mm512_set1_ps(theta);
    const __m512i sign = _mm512_set1_epi32(0x7fffffff);
    u64 bits = 0;
    for (Index i = 0; i < n; i += 16) {
        const __mmask16 live = n - i >= 16
            ? static_cast<__mmask16>(0xffff)
            : static_cast<__mmask16>((1u << (n - i)) - 1);
        const __m512 v = _mm512_maskz_loadu_ps(live, x + i);
        const __m512 mag = _mm512_castsi512_ps(
            _mm512_and_si512(_mm512_castps_si512(v), sign));
        const __mmask16 hit =
            _mm512_mask_cmp_ps_mask(live, mag, vt, _CMP_GT_OQ);
        bits |= static_cast<u64>(hit) << i;
    }
    return bits;
}

u64
cmpGeMask64Avx512(const float *x, float threshold, Index n)
{
    const __m512 vt = _mm512_set1_ps(threshold);
    u64 bits = 0;
    for (Index i = 0; i < n; i += 16) {
        const __mmask16 live = n - i >= 16
            ? static_cast<__mmask16>(0xffff)
            : static_cast<__mmask16>((1u << (n - i)) - 1);
        const __m512 v = _mm512_maskz_loadu_ps(live, x + i);
        const __mmask16 hit =
            _mm512_mask_cmp_ps_mask(live, v, vt, _CMP_GE_OQ);
        bits |= static_cast<u64>(hit) << i;
    }
    return bits;
}

u64
popcountWordsAvx512(const u64 *w, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(w[i]));
    return total;
}

u64
andPopcountWordsAvx512(const u64 *a, const u64 *b, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(a[i] & b[i]));
    return total;
}

} // namespace

const SimdKernels *
avx512Table()
{
    static const SimdKernels table = {
        "avx512",
        axpyF32Avx512,
        axpy4F32Avx512,
        dotI32Avx512,
        gemmInt12Avx512,
        absGreaterMask64Avx512,
        cmpGeMask64Avx512,
        popcountWordsAvx512,
        andPopcountWordsAvx512,
        orWordsScalar,
    };
    return &table;
}

} // namespace simd
} // namespace exion

#else // !defined(__AVX512F__)

namespace exion
{
namespace simd
{

const SimdKernels *
avx512Table()
{
    return nullptr;
}

} // namespace simd
} // namespace exion

#endif
