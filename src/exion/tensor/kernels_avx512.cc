/**
 * @file
 * AVX-512 kernel table (512-bit lanes; AVX-512F, BW and DQ).
 *
 * Same exactness discipline as the AVX2 table: independent-element
 * float kernels with one _mm512_fmadd_ps per term (the golden chain),
 * ordered-quiet compares, exact integer sums. The mask kernels are
 * where AVX-512 shines — _mm512_cmp_ps_mask yields the 16 compare bits
 * directly, and masked loads make the ragged tail branch-free
 * (masked-off lanes load +0.0f and are excluded from the result mask,
 * so NaN/Inf beyond the tail cannot leak in). The GEMM tiles use the
 * same masks for their ragged last column panel. The float GEMM packs
 * each panel of B contiguous just before its row tiles read it. The
 * integer GEMM multiplies i16 pairs with _mm512_madd_epi16, the one
 * AVX-512BW instruction the table needs. The masked dots (dotRowsF32)
 * run the AVX2 table's entry: a sixteen-lane form through a 16 x 16
 * transpose was not faster beyond run-to-run noise on FFN-Reuse's
 * shapes, and neither was a sixteen-lane fused form that loads four
 * rows per 128-bit lane. The Int12 dequantisation converts i64 lanes
 * to double with _mm512_cvtepi64_pd, the one AVX-512DQ instruction the
 * table needs; every other instruction here is AVX-512F, on 512-bit
 * registers.
 *
 * This TU alone is compiled with -mavx512f -mavx512bw -mavx512dq (plus
 * -ffp-contract=off, so the only fused operations are the
 * intrinsics); only called after the runtime probe confirmed
 * AVX-512F, AVX-512BW, AVX-512DQ and FMA (for the AVX2 masked dots).
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
        const __m512 o = _mm512_fmadd_ps(va, _mm512_loadu_ps(x + j),
                                         _mm512_loadu_ps(out + j));
        _mm512_storeu_ps(out + j, o);
    }
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

/** Rows of C one gemmF32 tile keeps in registers. */
constexpr int kGemmF32Rows = 8;

/** 16-lane vectors across one gemmF32 tile. */
constexpr int kGemmF32Vecs = 2;

/** Columns of one packed panel of B: one tile's width. */
constexpr Index kGemmF32Panel = 16 * kGemmF32Vecs;

/** k-steps per register pass; partial sums go through C between. */
constexpr Index kGemmF32KBlock = 256;

/**
 * Packs k-steps [0, kb) of a panel of B (rows ldb apart) into out,
 * kGemmF32Panel floats per k-step; lanes outside live[v] load and
 * store as zero.
 */
void
packGemmF32B(const float *b, Index ldb, Index kb, const __mmask16 *live,
             float *out)
{
    for (Index kk = 0; kk < kb; ++kk)
        for (int v = 0; v < kGemmF32Vecs; ++v)
            _mm512_store_ps(out + kk * kGemmF32Panel + 16 * v,
                            _mm512_maskz_loadu_ps(live[v],
                                                  b + kk * ldb + 16 * v));
}

/**
 * kb k-steps of one MR-row by (16 * NV)-column gemmF32 tile: A's rows
 * lda apart, read in place, and the panel of B, rows ldbp apart
 * (packed, or in place when no other tile reads it). The MR x NV
 * accumulators start at +0.0f on the first k-block (first) and reload
 * C's partial sums on later ones, take one fused multiply-add per
 * term, and go back to C at the end. In a Ragged (last) panel, lanes
 * outside live[v] load as zero and are never stored; full panels load
 * and store unmasked, measured 1.1x faster. The unroll pragmas keep
 * GCC from parking the accumulators on the stack every k-step.
 */
template <int MR, int NV, bool Ragged>
void
gemmF32TileAvx512(const float *a, Index lda, const float *bp, Index ldbp,
                  Index kb, float *c, Index ldc, bool first,
                  const __mmask16 *live)
{
    __mmask16 lanes[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v)
        lanes[v] = live[v];
    const auto load = [&](const float *src, int v) {
        return Ragged ? _mm512_maskz_loadu_ps(lanes[v], src)
                      : _mm512_loadu_ps(src);
    };
    __m512 acc[MR][NV];
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            acc[r][v] = first ? _mm512_setzero_ps()
                              : load(c + r * ldc + 16 * v, v);
    for (Index kk = 0; kk < kb; ++kk) {
        __m512 bv[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            bv[v] = load(bp + kk * ldbp + 16 * v, v);
#pragma GCC unroll 8
        for (int r = 0; r < MR; ++r) {
            const __m512 av = _mm512_set1_ps(a[r * lda + kk]);
#pragma GCC unroll 2
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
        }
    }
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
            float *dst = c + r * ldc + 16 * v;
            if (Ragged)
                _mm512_mask_storeu_ps(dst, lanes[v], acc[r][v]);
            else
                _mm512_storeu_ps(dst, acc[r][v]);
        }
}

using GemmF32Tile = void (*)(const float *, Index, const float *, Index,
                             Index, float *, Index, bool,
                             const __mmask16 *);

/** Tiles of a full 32-column panel by rows - 1. */
constexpr GemmF32Tile kGemmF32Tiles[kGemmF32Rows] = {
    gemmF32TileAvx512<1, 2, false>, gemmF32TileAvx512<2, 2, false>,
    gemmF32TileAvx512<3, 2, false>, gemmF32TileAvx512<4, 2, false>,
    gemmF32TileAvx512<5, 2, false>, gemmF32TileAvx512<6, 2, false>,
    gemmF32TileAvx512<7, 2, false>, gemmF32TileAvx512<8, 2, false>,
};

/** Tiles of a ragged last panel by [rows - 1][vectors - 1]. */
constexpr GemmF32Tile kGemmF32RaggedTiles[kGemmF32Rows][kGemmF32Vecs] = {
    {gemmF32TileAvx512<1, 1, true>, gemmF32TileAvx512<1, 2, true>},
    {gemmF32TileAvx512<2, 1, true>, gemmF32TileAvx512<2, 2, true>},
    {gemmF32TileAvx512<3, 1, true>, gemmF32TileAvx512<3, 2, true>},
    {gemmF32TileAvx512<4, 1, true>, gemmF32TileAvx512<4, 2, true>},
    {gemmF32TileAvx512<5, 1, true>, gemmF32TileAvx512<5, 2, true>},
    {gemmF32TileAvx512<6, 1, true>, gemmF32TileAvx512<6, 2, true>},
    {gemmF32TileAvx512<7, 1, true>, gemmF32TileAvx512<7, 2, true>},
    {gemmF32TileAvx512<8, 1, true>, gemmF32TileAvx512<8, 2, true>},
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
    // The one scratch: a k-block of one panel of B, 32 KiB on the
    // calling thread's stack. Each panel is packed just before its row
    // tiles sweep it from L1, so no call allocates and no copy of all
    // of B is ever held. With a single row tile B is read in place: a
    // packed copy would be read once.
    alignas(64) float packed[kGemmF32KBlock * kGemmF32Panel];
    const bool pack_b = m > kGemmF32Rows;
    for (Index k0 = 0; k0 < k; k0 += kGemmF32KBlock) {
        const Index kb = std::min(kGemmF32KBlock, k - k0);
        for (Index j0 = 0; j0 < n; j0 += kGemmF32Panel) {
            const Index w = std::min(kGemmF32Panel, n - j0);
            __mmask16 live[kGemmF32Vecs];
            for (Index v = 0; v < kGemmF32Vecs; ++v) {
                const Index lanes =
                    w > 16 * v ? std::min<Index>(16, w - 16 * v) : 0;
                live[v] = static_cast<__mmask16>((u32{1} << lanes) - 1);
            }
            const float *panel = b + k0 * ldb + j0;
            Index ldp = ldb;
            if (pack_b) {
                packGemmF32B(panel, ldb, kb, live, packed);
                panel = packed;
                ldp = kGemmF32Panel;
            }
            const Index nv = (w + 15) / 16;
            for (Index i0 = 0; i0 < m; i0 += kGemmF32Rows) {
                const Index mr = std::min<Index>(kGemmF32Rows, m - i0);
                const GemmF32Tile tile = w == kGemmF32Panel
                    ? kGemmF32Tiles[mr - 1]
                    : kGemmF32RaggedTiles[mr - 1][nv - 1];
                tile(a + i0 * lda + k0, lda, panel, ldp, kb,
                     c + i0 * ldc + j0, ldc, k0 == 0, live);
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
