/**
 * @file
 * ARM NEON kernel table (128-bit lanes).
 *
 * Exactness discipline matches the x86 tables: float kernels take one
 * fused multiply-add per term, vfmaq_f32 (FMLA, rounded once, as
 * std::fma is) — never vmlaq_f32, which rounds the product before the
 * add — ragged tails fall back to the scalar reference,
 * and compares go through the scalar kernels (NEON has no move-mask;
 * the scalar entries compare into one byte per entry and pack the
 * bytes with a multiply, a loop the compiler vectorises). gemmF32
 * points at the scalar entry: NEON is AArch64's baseline, where
 * std::fma is one FMADD, so the compiler vectorises that entry's
 * column sweep. dotRowsF32 points at the scalar entry too: no ARM
 * host has measured a transposed form. So do quantizeF32 and
 * dequantizeI64, which have no NEON form.
 *
 * Compiled with -ffp-contract=off like every kernel TU.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

namespace exion
{
namespace simd
{

namespace
{

void
axpyF32Neon(float *out, const float *x, float a, Index n)
{
    const float32x4_t va = vdupq_n_f32(a);
    Index j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(out + j,
                  vfmaq_f32(vld1q_f32(out + j), va, vld1q_f32(x + j)));
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

void
gemmInt12Neon(const i32 *a, Index lda, const i32 *b, Index ldb, i64 *c,
              Index ldc, Index m, Index k, Index n)
{
    // Row-panel axpy over 16-column panels: four i32x4 accumulators
    // per panel (integer vmla: exact in any order), widened into C
    // after at most kGemmInt12FlushSteps k-steps. The ragged column
    // tail goes to the scalar reference.
    const Index full = n - n % 16;
    for (Index i = 0; i < m; ++i) {
        const i32 *arow = a + i * lda;
        i64 *crow = c + i * ldc;
        for (Index j0 = 0; j0 < full; j0 += 16) {
            for (Index j = j0; j < j0 + 16; ++j)
                crow[j] = 0;
            for (Index k0 = 0; k0 < k; k0 += kGemmInt12FlushSteps) {
                const Index k1 =
                    k0 + kGemmInt12FlushSteps < k
                    ? k0 + kGemmInt12FlushSteps
                    : k;
                int32x4_t acc[4] = {vdupq_n_s32(0), vdupq_n_s32(0),
                                    vdupq_n_s32(0), vdupq_n_s32(0)};
                for (Index kk = k0; kk < k1; ++kk) {
                    const i32 *brow = b + kk * ldb + j0;
                    const i32 av = arow[kk];
                    for (int v = 0; v < 4; ++v)
                        acc[v] = vmlaq_n_s32(acc[v],
                                             vld1q_s32(brow + 4 * v), av);
                }
                for (int v = 0; v < 4; ++v) {
                    i64 *dst = crow + j0 + 4 * v;
                    vst1q_s64(dst,
                              vaddq_s64(vld1q_s64(dst),
                                        vmovl_s32(vget_low_s32(acc[v]))));
                    vst1q_s64(dst + 2,
                              vaddq_s64(vld1q_s64(dst + 2),
                                        vmovl_s32(vget_high_s32(acc[v]))));
                }
            }
        }
    }
    if (full < n)
        gemmInt12Scalar(a, lda, b + full, ldb, c + full, ldc, m, k,
                        n - full);
}

} // namespace

const SimdKernels *
neonTable()
{
    static const SimdKernels table = {
        "neon",
        axpyF32Neon,
        gemmF32Scalar,
        dotRowsF32Scalar,
        gemmInt12Neon,
        quantizeF32Scalar,
        dequantizeI64Scalar,
        absGreaterMask64Scalar,
        cmpGeMask64Scalar,
        popcountWordsScalar,
    };
    return &table;
}

} // namespace simd
} // namespace exion

#else // !__ARM_NEON

namespace exion
{
namespace simd
{

const SimdKernels *
neonTable()
{
    return nullptr;
}

} // namespace simd
} // namespace exion

#endif
