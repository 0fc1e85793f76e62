/**
 * @file
 * AVX-512 kernel table (512-bit lanes; AVX-512F, BW and DQ).
 *
 * Same exactness discipline as the AVX2 table: independent-element
 * float kernels with separate mul/add (no FMA), ordered-quiet
 * compares, exact integer sums. The mask kernels are where AVX-512
 * shines — _mm512_cmp_ps_mask yields the 16 compare bits directly,
 * and masked loads make the ragged tail branch-free (masked-off
 * lanes load +0.0f and are excluded from the result mask, so NaN/Inf
 * beyond the tail cannot leak in). The GEMM tiles use the same masks
 * for their ragged last column panel. The integer GEMM multiplies
 * i16 pairs with _mm512_madd_epi16, the one AVX-512BW instruction the
 * table needs. The masked dots (dotRowsF32) run the AVX2 table's
 * eight-lane entry: a sixteen-lane form through a 16 x 16 transpose
 * was not faster beyond run-to-run noise on FFN-Reuse's shapes. The
 * Int12 dequantisation converts i64 lanes to double with
 * _mm512_cvtepi64_pd, the one AVX-512DQ instruction the table needs;
 * every other instruction here is AVX-512F, on 512-bit registers.
 *
 * This TU alone is compiled with -mavx512f -mavx512bw -mavx512dq (plus
 * -ffp-contract=off); only called after the runtime probe confirmed
 * AVX-512F, AVX-512BW and AVX-512DQ.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

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

/** Rows of C one gemmF32 tile keeps in registers. */
constexpr int kGemmF32Rows = 8;

/** 16-lane vectors across one gemmF32 tile: 32 columns. */
constexpr int kGemmF32Vecs = 2;

/** k-steps per register pass; partial sums go through C between. */
constexpr Index kGemmF32KBlock = 128;

/**
 * k-steps [k0, k1) of one MR-row by (16 * NV)-column gemmF32 tile.
 * The MR x NV accumulators start at +0.0f on the first k-block and
 * reload C's partial sums on later ones, add each term as a separate
 * rounded multiply then add, and go back to C at the end. Lanes
 * outside live[v] (a ragged last panel) load as zero and are never
 * stored.
 */
template <int MR, int NV>
void
gemmF32TileAvx512(const float *a, Index lda, const float *b, Index ldb,
                  float *c, Index ldc, Index k0, Index k1,
                  const __mmask16 *live)
{
    __m512 acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = k0 == 0 ? _mm512_setzero_ps()
                                : _mm512_maskz_loadu_ps(
                                      live[v], c + r * ldc + 16 * v);
    for (Index kk = k0; kk < k1; ++kk) {
        const float *brow = b + kk * ldb;
        __m512 bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = _mm512_maskz_loadu_ps(live[v], brow + 16 * v);
        for (int r = 0; r < MR; ++r) {
            const __m512 av = _mm512_set1_ps(a[r * lda + kk]);
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm512_add_ps(acc[r][v],
                                          _mm512_mul_ps(av, bv[v]));
        }
    }
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            _mm512_mask_storeu_ps(c + r * ldc + 16 * v, live[v],
                                  acc[r][v]);
}

using GemmF32Tile = void (*)(const float *, Index, const float *, Index,
                             float *, Index, Index, Index,
                             const __mmask16 *);

/** Tile kernels by [rows - 1][vectors - 1]. */
constexpr GemmF32Tile kGemmF32Tiles[kGemmF32Rows][kGemmF32Vecs] = {
    {gemmF32TileAvx512<1, 1>, gemmF32TileAvx512<1, 2>},
    {gemmF32TileAvx512<2, 1>, gemmF32TileAvx512<2, 2>},
    {gemmF32TileAvx512<3, 1>, gemmF32TileAvx512<3, 2>},
    {gemmF32TileAvx512<4, 1>, gemmF32TileAvx512<4, 2>},
    {gemmF32TileAvx512<5, 1>, gemmF32TileAvx512<5, 2>},
    {gemmF32TileAvx512<6, 1>, gemmF32TileAvx512<6, 2>},
    {gemmF32TileAvx512<7, 1>, gemmF32TileAvx512<7, 2>},
    {gemmF32TileAvx512<8, 1>, gemmF32TileAvx512<8, 2>},
};

void
gemmF32Avx512(const float *a, Index lda, const float *b, Index ldb,
              float *c, Index ldc, Index m, Index k, Index n)
{
    if (k == 0) {
        for (Index i = 0; i < m; ++i)
            std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
        return;
    }
    constexpr Index kPanel = 16 * kGemmF32Vecs;
    // Every row tile of A passes over one 32-column slab of a k-block
    // of B (16 KiB) before the next slab, so each B element comes from
    // memory once per call and from near caches for the other tiles.
    for (Index k0 = 0; k0 < k; k0 += kGemmF32KBlock) {
        const Index k1 = std::min(k, k0 + kGemmF32KBlock);
        for (Index j0 = 0; j0 < n; j0 += kPanel) {
            const Index w = std::min(kPanel, n - j0);
            __mmask16 live[kGemmF32Vecs];
            for (Index v = 0; v < kGemmF32Vecs; ++v) {
                const Index lanes =
                    w > 16 * v ? std::min<Index>(16, w - 16 * v) : 0;
                live[v] = static_cast<__mmask16>((u32{1} << lanes) - 1);
            }
            const Index nv = (w + 15) / 16;
            for (Index i0 = 0; i0 < m; i0 += kGemmF32Rows) {
                const Index mr = std::min<Index>(kGemmF32Rows, m - i0);
                kGemmF32Tiles[mr - 1][nv - 1](a + i0 * lda, lda, b + j0,
                                              ldb, c + i0 * ldc + j0,
                                              ldc, k0, k1, live);
            }
        }
    }
}

/**
 * Row a (k values) as i16 pairs: out[p] holds a[2p] in its low half
 * and a[2p + 1] in its high half, and the last pair of an odd k holds
 * zero high. Values within kGemmInt12MaxAbs fit an i16 exactly. Kept
 * in this TU so the loop vectorises with its flags.
 */
void
packInt12Pairs(const i32 *a, Index k, u32 *out)
{
    for (Index p = 0; p < k / 2; ++p)
        out[p] = static_cast<u16>(a[2 * p])
            | static_cast<u32>(a[2 * p + 1]) << 16;
    if (k % 2 != 0)
        out[k / 2] = static_cast<u16>(a[k - 1]);
}

/** Rows of C one gemmInt12 tile keeps in registers. */
constexpr int kGemmInt12Rows = 8;

/** 16-lane vectors across one gemmInt12 tile: 32 columns. */
constexpr int kGemmInt12Vecs = 2;

/**
 * Pairs [p0, p1) of one MR-row by (16 * NV)-column gemmInt12 tile.
 * ap holds the tile's rows of A as i16 pairs, rows kp apart: pair p
 * of a row is a(2p) in the low half and a(2p + 1) in the high half.
 * Pair p of B is put together in registers from rows 2p and 2p + 1,
 * so lane j holds b(2p, j) low and b(2p + 1, j) high, and one
 * _mm512_madd_epi16 adds both products of the pair into an i32 lane.
 * The last pair of an odd k has no row 2p + 1: row 2p goes in as
 * loaded, and its high halves (sign bits) meet A's zero high halves.
 * The caller keeps p1 - p0 <= kGemmInt12FlushPairs, so no lane
 * overflows before the lanes widen into C: stored on the first block
 * (first), added on later ones. In a Ragged (last) panel, lanes
 * outside live[v] load as zero and are never stored.
 */
template <int MR, int NV, bool Ragged>
void
gemmInt12TileAvx512(const u32 *ap, Index kp, const i32 *b, Index ldb,
                    Index k, i64 *c, Index ldc, Index p0, Index p1,
                    bool first, const __mmask16 *live)
{
    const auto load = [&](const i32 *src, int v) {
        return Ragged ? _mm512_maskz_loadu_epi32(live[v], src)
                      : _mm512_loadu_si512(src);
    };
    __m512i acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = _mm512_setzero_si512();
    const auto madd = [&](Index p, const __m512i *bv) {
        for (int r = 0; r < MR; ++r) {
            const __m512i av =
                _mm512_set1_epi32(static_cast<int>(ap[r * kp + p]));
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm512_add_epi32(acc[r][v],
                                             _mm512_madd_epi16(av, bv[v]));
        }
    };
    const Index full = std::min(p1, k / 2);
    for (Index p = p0; p < full; ++p) {
        const i32 *b0 = b + 2 * p * ldb;
        __m512i bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = _mm512_mask_blend_epi16(
                0xaaaaaaaau, load(b0 + 16 * v, v),
                _mm512_slli_epi32(load(b0 + ldb + 16 * v, v), 16));
        madd(p, bv);
    }
    if (full < p1) {
        __m512i bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = load(b + 2 * full * ldb + 16 * v, v);
        madd(full, bv);
    }
    for (int r = 0; r < MR; ++r) {
        for (int v = 0; v < NV; ++v) {
            i64 *dst = c + r * ldc + 16 * v;
            const __mmask8 lo = Ragged ? static_cast<__mmask8>(live[v])
                                       : static_cast<__mmask8>(0xff);
            const __mmask8 hi = Ragged
                ? static_cast<__mmask8>(live[v] >> 8)
                : static_cast<__mmask8>(0xff);
            __m512i wlo = _mm512_cvtepi32_epi64(
                _mm512_castsi512_si256(acc[r][v]));
            __m512i whi = _mm512_cvtepi32_epi64(
                _mm512_extracti64x4_epi64(acc[r][v], 1));
            if (!first) {
                wlo = _mm512_add_epi64(wlo,
                                       _mm512_maskz_loadu_epi64(lo, dst));
                whi = _mm512_add_epi64(
                    whi, _mm512_maskz_loadu_epi64(hi, dst + 8));
            }
            _mm512_mask_storeu_epi64(dst, lo, wlo);
            _mm512_mask_storeu_epi64(dst + 8, hi, whi);
        }
    }
}

using GemmInt12Tile = void (*)(const u32 *, Index, const i32 *, Index,
                               Index, i64 *, Index, Index, Index, bool,
                               const __mmask16 *);

/** Tiles of a full 32-column panel by rows - 1. */
constexpr GemmInt12Tile kGemmInt12Tiles[kGemmInt12Rows] = {
    gemmInt12TileAvx512<1, 2, false>, gemmInt12TileAvx512<2, 2, false>,
    gemmInt12TileAvx512<3, 2, false>, gemmInt12TileAvx512<4, 2, false>,
    gemmInt12TileAvx512<5, 2, false>, gemmInt12TileAvx512<6, 2, false>,
    gemmInt12TileAvx512<7, 2, false>, gemmInt12TileAvx512<8, 2, false>,
};

/** Tiles of a ragged last panel by [rows - 1][vectors - 1]. */
constexpr GemmInt12Tile
    kGemmInt12RaggedTiles[kGemmInt12Rows][kGemmInt12Vecs] = {
        {gemmInt12TileAvx512<1, 1, true>, gemmInt12TileAvx512<1, 2, true>},
        {gemmInt12TileAvx512<2, 1, true>, gemmInt12TileAvx512<2, 2, true>},
        {gemmInt12TileAvx512<3, 1, true>, gemmInt12TileAvx512<3, 2, true>},
        {gemmInt12TileAvx512<4, 1, true>, gemmInt12TileAvx512<4, 2, true>},
        {gemmInt12TileAvx512<5, 1, true>, gemmInt12TileAvx512<5, 2, true>},
        {gemmInt12TileAvx512<6, 1, true>, gemmInt12TileAvx512<6, 2, true>},
        {gemmInt12TileAvx512<7, 1, true>, gemmInt12TileAvx512<7, 2, true>},
        {gemmInt12TileAvx512<8, 1, true>, gemmInt12TileAvx512<8, 2, true>},
};

void
gemmInt12Avx512(const i32 *a, Index lda, const i32 *b, Index ldb,
                i64 *c, Index ldc, Index m, Index k, Index n)
{
    if (k == 0) {
        for (Index i = 0; i < m; ++i)
            std::fill(c + i * ldc, c + i * ldc + n, i64{0});
        return;
    }
    const Index kp = (k + 1) / 2;
    std::vector<u32> ap(m * kp);
    for (Index i = 0; i < m; ++i)
        packInt12Pairs(a + i * lda, k, ap.data() + i * kp);
    // The fewest flush blocks, split evenly: k = 512 runs two blocks
    // of 128 pairs, not 255 and 1.
    const Index blocks =
        (kp + kGemmInt12FlushPairs - 1) / kGemmInt12FlushPairs;
    const Index per = (kp + blocks - 1) / blocks;
    constexpr Index kPanel = 16 * kGemmInt12Vecs;
    for (Index p0 = 0; p0 < kp; p0 += per) {
        const Index p1 = std::min(kp, p0 + per);
        for (Index j0 = 0; j0 < n; j0 += kPanel) {
            const Index w = std::min(kPanel, n - j0);
            __mmask16 live[kGemmInt12Vecs];
            for (Index v = 0; v < kGemmInt12Vecs; ++v) {
                const Index lanes =
                    w > 16 * v ? std::min<Index>(16, w - 16 * v) : 0;
                live[v] = static_cast<__mmask16>((u32{1} << lanes) - 1);
            }
            const Index nv = (w + 15) / 16;
            for (Index i0 = 0; i0 < m; i0 += kGemmInt12Rows) {
                const Index mr = std::min<Index>(kGemmInt12Rows, m - i0);
                const GemmInt12Tile tile = w == kPanel
                    ? kGemmInt12Tiles[mr - 1]
                    : kGemmInt12RaggedTiles[mr - 1][nv - 1];
                tile(ap.data() + i0 * kp, kp, b + j0, ldb, k,
                     c + i0 * ldc + j0, ldc, p0, p1, p0 == 0, live);
            }
        }
    }
}

/** Mask of the first min(16, n - i) lanes of a 16-lane step at i. */
__mmask16
liveLanes16(Index i, Index n)
{
    return n - i >= 16 ? static_cast<__mmask16>(0xffff)
                       : static_cast<__mmask16>((1u << (n - i)) - 1);
}

/**
 * quantizeToRange of 8 floats, widened to double: divide by scale,
 * round in the current mode (roundscale with _MM_FROUND_CUR_DIRECTION
 * is std::rint), clamp to [lo, hi] and truncate. A NaN quotient
 * clamps to hi and is then cleared to 0 by the ordered mask.
 */
__m256i
codes8(__m512d v, __m512d scale, __m512d lo, __m512d hi)
{
    const __m512d q = _mm512_roundscale_pd(_mm512_div_pd(v, scale),
                                           _MM_FROUND_CUR_DIRECTION);
    const __mmask8 ordered = _mm512_cmp_pd_mask(q, q, _CMP_ORD_Q);
    return _mm512_maskz_cvttpd_epi32(
        ordered, _mm512_max_pd(_mm512_min_pd(q, hi), lo));
}

/** lodValue per u32 lane: smear the leading one down, keep the top. */
__m512i
lodValue16(__m512i v)
{
    v = _mm512_or_si512(v, _mm512_srli_epi32(v, 1));
    v = _mm512_or_si512(v, _mm512_srli_epi32(v, 2));
    v = _mm512_or_si512(v, _mm512_srli_epi32(v, 4));
    v = _mm512_or_si512(v, _mm512_srli_epi32(v, 8));
    v = _mm512_or_si512(v, _mm512_srli_epi32(v, 16));
    return _mm512_andnot_si512(_mm512_srli_epi32(v, 1), v);
}

/**
 * lodImage per i32 lane: |v| (INT32_MIN stays 2^31 as a u32), its
 * leading one or two, and v's sign back.
 */
template <LodMode Mode>
__m512i
lodImage16(__m512i v)
{
    const __m512i mag = _mm512_abs_epi32(v);
    __m512i img = lodValue16(mag);
    if constexpr (Mode == LodMode::TwoStep)
        img = _mm512_or_si512(img, lodValue16(_mm512_andnot_si512(img, mag)));
    const __mmask16 negative =
        _mm512_cmplt_epi32_mask(v, _mm512_setzero_si512());
    return _mm512_mask_sub_epi32(img, negative, _mm512_setzero_si512(),
                                 img);
}

/**
 * 16 floats per step, the ragged tail under a mask (its spare lanes
 * load +0.0f and are never stored): two 8-lane double halves give
 * the codes, then, with Lod, their images.
 */
template <int Lod>
void
quantizeF32Avx512Impl(const float *x, Index n, double scale, i32 q_max,
                      i32 *out)
{
    const __m512d vs = _mm512_set1_pd(scale);
    const __m512d hi = _mm512_set1_pd(static_cast<double>(q_max));
    const __m512d lo = _mm512_set1_pd(-static_cast<double>(q_max) - 1.0);
    for (Index i = 0; i < n; i += 16) {
        const __mmask16 live = liveLanes16(i, n);
        const __m512 v = _mm512_maskz_loadu_ps(live, x + i);
        const __m256i c0 =
            codes8(_mm512_cvtps_pd(_mm512_castps512_ps256(v)), vs, lo, hi);
        const __m256i c1 = codes8(
            _mm512_cvtps_pd(_mm256_castpd_ps(
                _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1))),
            vs, lo, hi);
        __m512i c = _mm512_inserti64x4(_mm512_castsi256_si512(c0), c1, 1);
        if constexpr (Lod == 1)
            c = lodImage16<LodMode::Single>(c);
        else if constexpr (Lod == 2)
            c = lodImage16<LodMode::TwoStep>(c);
        _mm512_mask_storeu_epi32(out + i, live, c);
    }
}

void
quantizeF32Avx512(const float *x, Index n, double scale, i32 q_max,
                  std::optional<LodMode> lod, i32 *out)
{
    if (!lod)
        quantizeF32Avx512Impl<0>(x, n, scale, q_max, out);
    else if (*lod == LodMode::Single)
        quantizeF32Avx512Impl<1>(x, n, scale, q_max, out);
    else
        quantizeF32Avx512Impl<2>(x, n, scale, q_max, out);
}

/**
 * 16 sums per step, as two 8-lane halves: i64 to double
 * (_mm512_cvtepi64_pd, AVX-512DQ), times scale, narrowed to float,
 * each rounded in the current mode; the ragged tail under a mask.
 */
void
dequantizeI64Avx512(const i64 *s, Index n, double scale, float *out)
{
    const __m512d vs = _mm512_set1_pd(scale);
    const auto half = [&](const i64 *src, __mmask8 live) {
        return _mm512_cvtpd_ps(_mm512_mul_pd(
            _mm512_cvtepi64_pd(_mm512_maskz_loadu_epi64(live, src)), vs));
    };
    for (Index i = 0; i < n; i += 16) {
        const __mmask16 live = liveLanes16(i, n);
        const __m256 f0 = half(s + i, static_cast<__mmask8>(live));
        const __m256 f1 = half(s + i + 8, static_cast<__mmask8>(live >> 8));
        const __m512 f = _mm512_castpd_ps(_mm512_insertf64x4(
            _mm512_castps_pd(_mm512_castps256_ps512(f0)),
            _mm256_castps_pd(f1), 1));
        _mm512_mask_storeu_ps(out + i, live, f);
    }
}

u64
absGreaterMask64Avx512(const float *x, float theta, Index n)
{
    const __m512 vt = _mm512_set1_ps(theta);
    const __m512i sign = _mm512_set1_epi32(0x7fffffff);
    u64 bits = 0;
    for (Index i = 0; i < n; i += 16) {
        const __mmask16 live = liveLanes16(i, n);
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
        const __mmask16 live = liveLanes16(i, n);
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

} // namespace

const SimdKernels *
avx512Table()
{
    static const SimdKernels table = {
        "avx512",
        axpyF32Avx512,
        gemmF32Avx512,
        dotRowsF32Avx2,
        gemmInt12Avx512,
        quantizeF32Avx512,
        dequantizeI64Avx512,
        absGreaterMask64Avx512,
        cmpGeMask64Avx512,
        popcountWordsAvx512,
    };
    return &table;
}

} // namespace simd
} // namespace exion

#else // !(defined(__AVX512F__) && defined(__AVX512BW__)
      //   && defined(__AVX512DQ__))

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
