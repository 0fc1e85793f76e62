/**
 * @file
 * Scalar reference kernels — the golden chains every vector table is
 * measured against.
 *
 * These loops are the gemm.h accumulation contract spelled out once:
 * one fused multiply-add per term (std::fma, a single rounding),
 * ascending index order, +0.0f accumulator starts, ordered compares
 * (NaN never sets a bit). Compiled with -ffp-contract=off, so the only
 * fusion is the one the source spells. The float chains carry
 * EXION_FMA_CLONES: on x86 they are built twice, with and without the
 * FMA instruction set, and the loader picks the first build on a CPU
 * that has it. Without it std::fma is a call to fmaf, correctly
 * rounded as the instruction is, so both builds give the same bits.
 */

#include "exion/tensor/simd_dispatch.h"

#include "exion/common/fixed_point.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

namespace exion
{
namespace simd
{

EXION_FMA_CLONES void
axpyF32Scalar(float *out, const float *x, float a, Index n)
{
    for (Index j = 0; j < n; ++j)
        out[j] = std::fma(a, x[j], out[j]);
}

namespace
{

/**
 * Columns of one gemmF32Scalar panel. B's panel is packed contiguous
 * (K * 128 floats, 128 KiB at K = 256), so it stays in L2 while every
 * A row sweeps it, whatever B's row stride.
 */
constexpr Index kSweepCols = 128;

} // namespace

EXION_FMA_CLONES void
gemmF32Scalar(const float *a, Index lda, const float *b, Index ldb,
              float *c, Index ldc, Index m, Index k, Index n)
{
    // One reusable panel buffer: B[:, j0:j0+nb] packed row-major as
    // packed[kk * nb + jj], so the inner j-sweep reads contiguously.
    std::vector<float> packed(k * std::min(kSweepCols, n));
    for (Index j0 = 0; j0 < n; j0 += kSweepCols) {
        const Index nb = std::min(kSweepCols, n - j0);
        for (Index kk = 0; kk < k; ++kk)
            std::copy(b + kk * ldb + j0, b + kk * ldb + j0 + nb,
                      packed.data() + kk * nb);
        for (Index i = 0; i < m; ++i) {
            const float *arow = a + i * lda;
            float *crow = c + i * ldc + j0;
            std::fill(crow, crow + nb, 0.0f);
            // Jam four k steps per C sweep: each element still adds
            // its k terms one at a time in ascending order (four
            // fused multiply-adds, the golden chain), but C is loaded
            // and stored once per four terms.
            Index kk = 0;
            for (; kk + 4 <= k; kk += 4) {
                const float *b0 = packed.data() + kk * nb;
                const float *b1 = b0 + nb;
                const float *b2 = b1 + nb;
                const float *b3 = b2 + nb;
                const float a0 = arow[kk];
                const float a1 = arow[kk + 1];
                const float a2 = arow[kk + 2];
                const float a3 = arow[kk + 3];
                for (Index j = 0; j < nb; ++j) {
                    float acc = crow[j];
                    acc = std::fma(a0, b0[j], acc);
                    acc = std::fma(a1, b1[j], acc);
                    acc = std::fma(a2, b2[j], acc);
                    acc = std::fma(a3, b3[j], acc);
                    crow[j] = acc;
                }
            }
            for (; kk < k; ++kk)
                axpyF32Scalar(crow, packed.data() + kk * nb, arow[kk],
                              nb);
        }
    }
}

EXION_FMA_CLONES void
dotRowsF32Scalar(const float *x, const float *b, Index ldb,
                 const Index *idx, Index n, Index d, float *out)
{
    for (Index i = 0; i < n; ++i) {
        const float *row = b + idx[i] * ldb;
        float acc = 0.0f;
        for (Index k = 0; k < d; ++k)
            acc = std::fma(x[k], row[k], acc);
        out[i] = acc;
    }
}

void
gemmInt12Scalar(const i32 *a, Index lda, const i32 *b, Index ldb,
                i64 *c, Index ldc, Index m, Index k, Index n)
{
    // The reference accumulates straight into i64, so it needs no
    // flush schedule: the vector tables' i32 lanes are checked
    // against it.
    for (Index i = 0; i < m; ++i) {
        i64 *crow = c + i * ldc;
        std::fill(crow, crow + n, i64{0});
        for (Index kk = 0; kk < k; ++kk) {
            const i64 av = a[i * lda + kk];
            const i32 *brow = b + kk * ldb;
            for (Index j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
quantizeF32Scalar(const float *x, Index n, double scale, i32 q_max,
                  std::optional<LodMode> lod, i32 *out)
{
    for (Index i = 0; i < n; ++i)
        out[i] = quantizeToRange(x[i], scale, q_max);
    if (lod == LodMode::Single)
        for (Index i = 0; i < n; ++i)
            out[i] = lodImage(out[i], LodMode::Single);
    else if (lod == LodMode::TwoStep)
        for (Index i = 0; i < n; ++i)
            out[i] = lodImage(out[i], LodMode::TwoStep);
}

void
dequantizeI64Scalar(const i64 *s, Index n, double scale, float *out)
{
    for (Index i = 0; i < n; ++i)
        out[i] = static_cast<float>(s[i] * scale);
}

namespace
{

/**
 * Packs 64 one-byte flags (0 or 1) into a word, flag i to bit i. The
 * multiply moves byte j's low bit to bit 56 + j of the product, with
 * every other partial product landing on a bit of its own outside
 * bits 56..63, so no carry reaches them.
 */
u64
packFlags64(const unsigned char flags[64])
{
    static_assert(std::endian::native == std::endian::little,
                  "flag 8g + j must load as byte j of word g");
    u64 bits = 0;
    for (int g = 0; g < 8; ++g) {
        u64 w;
        std::memcpy(&w, flags + 8 * g, sizeof w);
        bits |= ((w * 0x0102040810204080ull) >> 56) << (8 * g);
    }
    return bits;
}

} // namespace

// The mask kernels compare into one byte per entry and pack the bytes
// afterwards: the compare loop has no branch and no variable shift,
// so the compiler vectorises it at the baseline ISA (SSE2 on x86-64,
// NEON on AArch64, whose table points here).

u64
absGreaterMask64Scalar(const float *x, float theta, Index n)
{
    unsigned char hit[64] = {};
    for (Index i = 0; i < n; ++i)
        hit[i] = std::abs(x[i]) > theta;
    return packFlags64(hit);
}

u64
cmpGeMask64Scalar(const float *x, float threshold, Index n)
{
    unsigned char hit[64] = {};
    for (Index i = 0; i < n; ++i)
        hit[i] = x[i] >= threshold;
    return packFlags64(hit);
}

u64
popcountWordsScalar(const u64 *w, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(std::popcount(w[i]));
    return total;
}

const SimdKernels &
scalarTable()
{
    static const SimdKernels table = {
        "scalar",
        axpyF32Scalar,
        gemmF32Scalar,
        dotRowsF32Scalar,
        gemmInt12Scalar,
        quantizeF32Scalar,
        dequantizeI64Scalar,
        absGreaterMask64Scalar,
        cmpGeMask64Scalar,
        popcountWordsScalar,
    };
    return table;
}

} // namespace simd
} // namespace exion
