/**
 * @file
 * AVX2 kernel table (256-bit lanes).
 *
 * Exactness discipline: float kernels vectorize across independent
 * output elements with one _mm256_fmadd_ps per term (the golden
 * chains round once per term, as std::fma does), ragged tails fall
 * back to the scalar reference chains or (gemmF32, dotRowsF32) masked
 * loads and stores, the masked dots run sixteen chains at once, two
 * overlapping groups of eight, on row data transposed in registers
 * (the AVX-512 table runs this entry too), compares are ordered-quiet
 * (_CMP_*_OQ) so NaN lanes never set mask bits, and the integer GEMM
 * (gemmInt12) is exact in any order; it multiplies i16 pairs with
 * _mm256_madd_epi16 and masks its ragged last panel. The Int12
 * quantisation runs quantizeToRange's double operations four lanes at
 * a time; the dequantisation is the scalar entry, since AVX2 has no
 * packed i64-to-double conversion.
 *
 * This TU alone is compiled with -mavx2 -mfma (plus -ffp-contract=off,
 * so the only fused operations are the intrinsics); it must only be
 * *called* after the runtime probe confirmed AVX2 and FMA.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <vector>

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
        const __m256 o = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + j),
                                         _mm256_loadu_ps(out + j));
        _mm256_storeu_ps(out + j, o);
    }
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

/** Rows of C one gemmF32 tile keeps in registers. */
constexpr int kGemmF32Rows = 6;

/** 8-lane vectors across one gemmF32 tile: 16 columns. */
constexpr int kGemmF32Vecs = 2;

/** k-steps per register pass; partial sums go through C between. */
constexpr Index kGemmF32KBlock = 128;

/**
 * B rows the tile prefetches ahead. Measured: with B rows 4-8 KiB
 * apart the hardware prefetchers miss the B stream, and a 16-column
 * tile has too little work per B line to hide the misses. The
 * AVX-512 tile does twice the work per line and did not gain.
 */
constexpr Index kGemmF32Prefetch = 4;

/**
 * k-steps [k0, k1) of one MR-row by (8 * NV)-column gemmF32 tile:
 * accumulators start at +0.0f on the first k-block and reload C's
 * partial sums on later ones, each term is one fused multiply-add,
 * and lanes outside live[v] (sign bit clear) load as zero and are
 * never stored. A and B are read in place.
 */
template <int MR, int NV>
void
gemmF32TileAvx2(const float *a, Index lda, const float *b, Index ldb,
                float *c, Index ldc, Index k0, Index k1,
                const __m256i *live)
{
    __m256 acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = k0 == 0 ? _mm256_setzero_ps()
                                : _mm256_maskload_ps(c + r * ldc + 8 * v,
                                                     live[v]);
    for (Index kk = k0; kk < k1; ++kk) {
        const float *brow = b + kk * ldb;
        // Integer address arithmetic: the rows ahead may lie past B,
        // and a prefetch never faults.
        const std::uintptr_t ahead = reinterpret_cast<std::uintptr_t>(brow)
            + kGemmF32Prefetch * ldb * sizeof(float);
        _mm_prefetch(reinterpret_cast<const char *>(ahead), _MM_HINT_T0);
        __m256 bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = _mm256_maskload_ps(brow + 8 * v, live[v]);
        for (int r = 0; r < MR; ++r) {
            const __m256 av = _mm256_set1_ps(a[r * lda + kk]);
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
    }
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            _mm256_maskstore_ps(c + r * ldc + 8 * v, live[v], acc[r][v]);
}

using GemmF32Tile = void (*)(const float *, Index, const float *, Index,
                             float *, Index, Index, Index,
                             const __m256i *);

/** Tile kernels by [rows - 1][vectors - 1]. */
constexpr GemmF32Tile kGemmF32Tiles[kGemmF32Rows][kGemmF32Vecs] = {
    {gemmF32TileAvx2<1, 1>, gemmF32TileAvx2<1, 2>},
    {gemmF32TileAvx2<2, 1>, gemmF32TileAvx2<2, 2>},
    {gemmF32TileAvx2<3, 1>, gemmF32TileAvx2<3, 2>},
    {gemmF32TileAvx2<4, 1>, gemmF32TileAvx2<4, 2>},
    {gemmF32TileAvx2<5, 1>, gemmF32TileAvx2<5, 2>},
    {gemmF32TileAvx2<6, 1>, gemmF32TileAvx2<6, 2>},
};

void
gemmF32Avx2(const float *a, Index lda, const float *b, Index ldb,
            float *c, Index ldc, Index m, Index k, Index n)
{
    if (k == 0) {
        for (Index i = 0; i < m; ++i)
            std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
        return;
    }
    constexpr Index kPanel = 8 * kGemmF32Vecs;
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (Index k0 = 0; k0 < k; k0 += kGemmF32KBlock) {
        const Index k1 = std::min(k, k0 + kGemmF32KBlock);
        for (Index j0 = 0; j0 < n; j0 += kPanel) {
            const Index w = std::min(kPanel, n - j0);
            __m256i live[kGemmF32Vecs];
            for (Index v = 0; v < kGemmF32Vecs; ++v) {
                const Index lanes =
                    w > 8 * v ? std::min<Index>(8, w - 8 * v) : 0;
                live[v] = _mm256_cmpgt_epi32(
                    _mm256_set1_epi32(static_cast<int>(lanes)), lane);
            }
            const Index nv = (w + 7) / 8;
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
 * 4 x 4 transposes within each 128-bit half: before, r[j] holds four
 * k-steps of row j in its low half (and of row j + 4 in its high
 * half); after, r[c] holds k-step c of the four rows in each half.
 * One shuffle and two blends stand in for each pair of shuffle_ps, so
 * the shuffle port takes 6 operations, not 8.
 */
inline void
transposeHalves4x4(__m256 r[4])
{
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 v0 = _mm256_shuffle_ps(t0, t2, 0x4E);
    const __m256 v1 = _mm256_shuffle_ps(t1, t3, 0x4E);
    r[0] = _mm256_blend_ps(t0, v0, 0xCC);
    r[1] = _mm256_blend_ps(v0, t2, 0xCC);
    r[2] = _mm256_blend_ps(t1, v1, 0xCC);
    r[3] = _mm256_blend_ps(v1, t3, 0xCC);
}

/**
 * k-steps [k0, k0 + 8) of eight rows as columns: afterwards col[c]
 * holds k-step k0 + c of every row, row i in lane i. Each register
 * loads row j's four k-steps in its low half and row j + 4's in its
 * high half (vinsertf128 from memory, off the shuffle port), and then
 * each half is transposed 4 x 4. With Ragged, only the first rest
 * (< 8) k-steps load; the rest read as zero.
 */
template <bool Ragged>
inline void
loadColumns(const float *const *row, Index k0, Index rest, __m256 col[8])
{
    const __m128i lane = _mm_setr_epi32(0, 1, 2, 3);
#pragma GCC unroll 2
    for (int h = 0; h < 2; ++h) {
        __m128i live = _mm_setzero_si128();
        if constexpr (Ragged)
            live = _mm_cmpgt_epi32(
                _mm_set1_epi32(static_cast<int>(rest) - 4 * h), lane);
        const auto load = [&](const float *src) {
            return Ragged ? _mm_maskload_ps(src, live) : _mm_loadu_ps(src);
        };
        __m256 *r = col + 4 * h;
#pragma GCC unroll 4
        for (int j = 0; j < 4; ++j)
            r[j] = _mm256_insertf128_ps(
                _mm256_castps128_ps256(load(row[j] + k0 + 4 * h)),
                load(row[j + 4] + k0 + 4 * h), 1);
        transposeHalves4x4(r);
    }
}

/**
 * G groups of eight golden chains, group g over rows row[8g .. 8g + 7]
 * into acc[g]. The groups' chains are independent, so their
 * multiply-adds overlap: one chain alone waits on the multiply-add's
 * latency at every k-step.
 */
template <int G>
inline void
dotRowGroups(const float *x, const float *const *row, Index d, __m256 *acc)
{
    for (int g = 0; g < G; ++g)
        acc[g] = _mm256_setzero_ps();
    Index k0 = 0;
    for (; k0 + 8 <= d; k0 += 8) {
#pragma GCC unroll 2
        for (int g = 0; g < G; ++g) {
            __m256 col[8];
            loadColumns<false>(row + 8 * g, k0, 8, col);
#pragma GCC unroll 8
            for (int c = 0; c < 8; ++c)
                acc[g] = _mm256_fmadd_ps(_mm256_broadcast_ss(x + k0 + c),
                                         col[c], acc[g]);
        }
    }
    if (k0 < d) {
        const Index rest = d - k0;
        for (int g = 0; g < G; ++g) {
            __m256 col[8];
            loadColumns<true>(row + 8 * g, k0, rest, col);
            for (Index c = 0; c < rest; ++c)
                acc[g] = _mm256_fmadd_ps(_mm256_broadcast_ss(x + k0 + c),
                                         col[c], acc[g]);
        }
    }
}

} // namespace

/**
 * Golden chains one per lane, sixteen rows at a time (two groups of
 * eight whose multiply-adds overlap), and eight for a last group of
 * at most eight rows. Each k block loads the rows' next 8 k-steps as
 * columns (loadColumns), so column c holds k-step c of every row, and
 * multiply-adds them into the lanes in ascending k, each against x's
 * k-step broadcast: one fused multiply-add per term, as the scalar
 * chain takes them. A ragged last block loads masked and adds only its
 * live columns. Spare lanes of a ragged last group repeat its last row
 * and are never stored.
 */
void
dotRowsF32Avx2(const float *x, const float *b, Index ldb,
               const Index *idx, Index n, Index d, float *out)
{
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const auto below = [&](Index count) {
        return _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(count)), lane);
    };
    for (Index i0 = 0; i0 < n;) {
        const Index lanes = std::min<Index>(16, n - i0);
        const float *row[16];
        for (Index i = 0; i < 16; ++i)
            row[i] = b + idx[i0 + std::min(i, lanes - 1)] * ldb;
        __m256 acc[2];
        if (lanes > 8) {
            dotRowGroups<2>(x, row, d, acc);
            _mm256_storeu_ps(out + i0, acc[0]);
            _mm256_maskstore_ps(out + i0 + 8, below(lanes - 8), acc[1]);
        } else {
            dotRowGroups<1>(x, row, d, acc);
            _mm256_maskstore_ps(out + i0, below(lanes), acc[0]);
        }
        i0 += lanes;
    }
}

namespace
{

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
constexpr int kGemmInt12Rows = 4;

/** 8-lane vectors across one gemmInt12 tile: 16 columns. */
constexpr int kGemmInt12Vecs = 2;

/**
 * Pairs [p0, p1) of one MR-row by 16-column gemmInt12 tile, as in the
 * AVX-512 table: ap holds the tile's rows of A as i16 pairs (kp
 * apart), each pair of B rows is put together in registers (row 2p in
 * the low halves, row 2p + 1 in the high ones; an odd k's last pair
 * is row 2p as loaded, against A's zero high halves), and
 * _mm256_madd_epi16 adds both products of a pair into an i32 lane.
 * The caller keeps p1 - p0 <= kGemmInt12FlushPairs; the lanes then
 * widen into C, stored on the first block (first) and added on later
 * ones. In a Ragged (last) panel, lanes outside live[v] (sign bit
 * clear) load as zero and are never stored; full panels load B with
 * plain loads, measured 1.1-1.3x faster than masked ones.
 */
template <int MR, bool Ragged>
void
gemmInt12TileAvx2(const u32 *ap, Index kp, const i32 *b, Index ldb,
                  Index k, i64 *c, Index ldc, Index p0, Index p1,
                  bool first, const __m256i *live)
{
    constexpr int NV = kGemmInt12Vecs;
    const auto load = [&](const i32 *src, int v) {
        return Ragged ? _mm256_maskload_epi32(src, live[v])
                      : _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(src));
    };
    __m256i acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = _mm256_setzero_si256();
    const auto madd = [&](Index p, const __m256i *bv) {
        for (int r = 0; r < MR; ++r) {
            const __m256i av =
                _mm256_set1_epi32(static_cast<int>(ap[r * kp + p]));
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm256_add_epi32(acc[r][v],
                                             _mm256_madd_epi16(av, bv[v]));
        }
    };
    const Index full = std::min(p1, k / 2);
    for (Index p = p0; p < full; ++p) {
        const i32 *b0 = b + 2 * p * ldb;
        __m256i bv[NV];
        for (int v = 0; v < NV; ++v) {
            const __m256i lo = load(b0 + 8 * v, v);
            const __m256i hi = load(b0 + ldb + 8 * v, v);
            bv[v] = _mm256_blend_epi16(lo, _mm256_slli_epi32(hi, 16),
                                       0xaa);
        }
        madd(p, bv);
    }
    if (full < p1) {
        __m256i bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = load(b + 2 * full * ldb + 8 * v, v);
        madd(full, bv);
    }
    for (int r = 0; r < MR; ++r) {
        for (int v = 0; v < NV; ++v) {
            long long *dst =
                reinterpret_cast<long long *>(c + r * ldc + 8 * v);
            const __m256i lo =
                _mm256_cvtepi32_epi64(_mm256_castsi256_si128(live[v]));
            const __m256i hi = _mm256_cvtepi32_epi64(
                _mm256_extracti128_si256(live[v], 1));
            __m256i wlo = _mm256_cvtepi32_epi64(
                _mm256_castsi256_si128(acc[r][v]));
            __m256i whi = _mm256_cvtepi32_epi64(
                _mm256_extracti128_si256(acc[r][v], 1));
            if (!first) {
                wlo = _mm256_add_epi64(wlo,
                                       _mm256_maskload_epi64(dst, lo));
                whi = _mm256_add_epi64(
                    whi, _mm256_maskload_epi64(dst + 4, hi));
            }
            _mm256_maskstore_epi64(dst, lo, wlo);
            _mm256_maskstore_epi64(dst + 4, hi, whi);
        }
    }
}

using GemmInt12Tile = void (*)(const u32 *, Index, const i32 *, Index,
                               Index, i64 *, Index, Index, Index, bool,
                               const __m256i *);

/** Tile kernels by [ragged panel][rows - 1]. */
constexpr GemmInt12Tile kGemmInt12Tiles[2][kGemmInt12Rows] = {
    {gemmInt12TileAvx2<1, false>, gemmInt12TileAvx2<2, false>,
     gemmInt12TileAvx2<3, false>, gemmInt12TileAvx2<4, false>},
    {gemmInt12TileAvx2<1, true>, gemmInt12TileAvx2<2, true>,
     gemmInt12TileAvx2<3, true>, gemmInt12TileAvx2<4, true>}};

void
gemmInt12Avx2(const i32 *a, Index lda, const i32 *b, Index ldb, i64 *c,
              Index ldc, Index m, Index k, Index n)
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
    // The fewest flush blocks, split evenly (see the AVX-512 table).
    const Index blocks =
        (kp + kGemmInt12FlushPairs - 1) / kGemmInt12FlushPairs;
    const Index per = (kp + blocks - 1) / blocks;
    constexpr Index kPanel = 8 * kGemmInt12Vecs;
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (Index p0 = 0; p0 < kp; p0 += per) {
        const Index p1 = std::min(kp, p0 + per);
        for (Index j0 = 0; j0 < n; j0 += kPanel) {
            const Index w = std::min(kPanel, n - j0);
            __m256i live[kGemmInt12Vecs];
            for (Index v = 0; v < kGemmInt12Vecs; ++v) {
                const Index lanes =
                    w > 8 * v ? std::min<Index>(8, w - 8 * v) : 0;
                live[v] = _mm256_cmpgt_epi32(
                    _mm256_set1_epi32(static_cast<int>(lanes)), lane);
            }
            for (Index i0 = 0; i0 < m; i0 += kGemmInt12Rows) {
                const Index mr = std::min<Index>(kGemmInt12Rows, m - i0);
                kGemmInt12Tiles[w < kPanel][mr - 1](
                    ap.data() + i0 * kp, kp, b + j0, ldb, k,
                    c + i0 * ldc + j0, ldc, p0, p1, p0 == 0, live);
            }
        }
    }
}

/**
 * quantizeToRange of 4 floats, widened to double: divide by scale,
 * round in the current mode (_MM_FROUND_CUR_DIRECTION is std::rint),
 * clamp to [lo, hi] and truncate. A NaN quotient clamps to hi and the
 * ordered mask clears it to +0.0 before the truncation.
 */
__m128i
codes4(__m256d v, __m256d scale, __m256d lo, __m256d hi)
{
    const __m256d q = _mm256_round_pd(_mm256_div_pd(v, scale),
                                      _MM_FROUND_CUR_DIRECTION);
    const __m256d ordered = _mm256_cmp_pd(q, q, _CMP_ORD_Q);
    return _mm256_cvttpd_epi32(_mm256_and_pd(
        ordered, _mm256_max_pd(_mm256_min_pd(q, hi), lo)));
}

/** lodValue per u32 lane: smear the leading one down, keep the top. */
__m256i
lodValue8(__m256i v)
{
    v = _mm256_or_si256(v, _mm256_srli_epi32(v, 1));
    v = _mm256_or_si256(v, _mm256_srli_epi32(v, 2));
    v = _mm256_or_si256(v, _mm256_srli_epi32(v, 4));
    v = _mm256_or_si256(v, _mm256_srli_epi32(v, 8));
    v = _mm256_or_si256(v, _mm256_srli_epi32(v, 16));
    return _mm256_andnot_si256(_mm256_srli_epi32(v, 1), v);
}

/**
 * lodImage per i32 lane: |v| (INT32_MIN stays 2^31 as a u32), its
 * leading one or two, and v's sign back (_mm256_sign_epi32 negates
 * where v < 0; v == 0 has image 0 either way).
 */
template <LodMode Mode>
__m256i
lodImage8(__m256i v)
{
    const __m256i mag = _mm256_abs_epi32(v);
    __m256i img = lodValue8(mag);
    if constexpr (Mode == LodMode::TwoStep)
        img = _mm256_or_si256(img, lodValue8(_mm256_andnot_si256(img, mag)));
    return _mm256_sign_epi32(img, v);
}

/** 8 floats per step as two 4-lane double halves; the scalar tail. */
template <int Lod>
void
quantizeF32Avx2Impl(const float *x, Index n, double scale, i32 q_max,
                    i32 *out)
{
    const __m256d vs = _mm256_set1_pd(scale);
    const __m256d hi = _mm256_set1_pd(static_cast<double>(q_max));
    const __m256d lo = _mm256_set1_pd(-static_cast<double>(q_max) - 1.0);
    Index i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(x + i);
        const __m128i c0 =
            codes4(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), vs, lo, hi);
        const __m128i c1 =
            codes4(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), vs, lo, hi);
        __m256i c = _mm256_inserti128_si256(_mm256_castsi128_si256(c0), c1, 1);
        if constexpr (Lod == 1)
            c = lodImage8<LodMode::Single>(c);
        else if constexpr (Lod == 2)
            c = lodImage8<LodMode::TwoStep>(c);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), c);
    }
}

void
quantizeF32Avx2(const float *x, Index n, double scale, i32 q_max,
                std::optional<LodMode> lod, i32 *out)
{
    if (!lod)
        quantizeF32Avx2Impl<0>(x, n, scale, q_max, out);
    else if (*lod == LodMode::Single)
        quantizeF32Avx2Impl<1>(x, n, scale, q_max, out);
    else
        quantizeF32Avx2Impl<2>(x, n, scale, q_max, out);
    const Index full = n - n % 8;
    if (full < n)
        quantizeF32Scalar(x + full, n - full, scale, q_max, lod, out + full);
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
 * The word kernel reuses the scalar body: compiled in this TU with
 * -mavx2 (which implies POPCNT), the popcount lowers to the hardware
 * instruction the baseline-ISA scalar TU cannot emit.
 */

u64
popcountWordsAvx2(const u64 *w, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(w[i]));
    return total;
}

} // namespace

const SimdKernels *
avx2Table()
{
    static const SimdKernels table = {
        "avx2",
        axpyF32Avx2,
        gemmF32Avx2,
        dotRowsF32Avx2,
        gemmInt12Avx2,
        quantizeF32Avx2,
        dequantizeI64Scalar,
        absGreaterMask64Avx2,
        cmpGeMask64Avx2,
        popcountWordsAvx2,
    };
    return &table;
}

} // namespace simd
} // namespace exion

#else // !(defined(__AVX2__) && defined(__FMA__))

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
