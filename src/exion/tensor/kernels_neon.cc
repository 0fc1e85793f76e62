/**
 * @file
 * ARM NEON kernel table (128-bit lanes).
 *
 * Exactness discipline matches the x86 tables: float kernels combine
 * separate vmulq_f32 / vaddq_f32 — never vmlaq/vfmaq, which lower to
 * fused FMLA on AArch64 and would round once where the golden chain
 * rounds twice — ragged tails fall back to the scalar reference, and
 * compares go through the scalar kernels (NEON has no move-mask; at
 * the 64-bit-word granularity the mask kernels run at, the scalar
 * chains are already cheap next to lane extraction).
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
    for (; j + 4 <= n; j += 4) {
        float32x4_t o = vld1q_f32(out + j);
        o = vaddq_f32(o, vmulq_f32(va, vld1q_f32(x + j)));
        vst1q_f32(out + j, o);
    }
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

void
axpy4F32Neon(float *out, const float *x0, const float *x1,
             const float *x2, const float *x3, float a0, float a1,
             float a2, float a3, Index n)
{
    const float32x4_t va0 = vdupq_n_f32(a0);
    const float32x4_t va1 = vdupq_n_f32(a1);
    const float32x4_t va2 = vdupq_n_f32(a2);
    const float32x4_t va3 = vdupq_n_f32(a3);
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
        float32x4_t o = vld1q_f32(out + j);
        o = vaddq_f32(o, vmulq_f32(va0, vld1q_f32(x0 + j)));
        o = vaddq_f32(o, vmulq_f32(va1, vld1q_f32(x1 + j)));
        o = vaddq_f32(o, vmulq_f32(va2, vld1q_f32(x2 + j)));
        o = vaddq_f32(o, vmulq_f32(va3, vld1q_f32(x3 + j)));
        vst1q_f32(out + j, o);
    }
    if (j < n)
        axpy4F32Scalar(out + j, x0 + j, x1 + j, x2 + j, x3 + j, a0,
                       a1, a2, a3, n - j);
}

i64
dotI32Neon(const i32 *a, const i32 *b, Index n)
{
    int64x2_t acc = vdupq_n_s64(0);
    Index k = 0;
    for (; k + 4 <= n; k += 4) {
        const int32x4_t va = vld1q_s32(a + k);
        const int32x4_t vb = vld1q_s32(b + k);
        acc = vaddq_s64(
            acc, vmull_s32(vget_low_s32(va), vget_low_s32(vb)));
        acc = vaddq_s64(
            acc, vmull_s32(vget_high_s32(va), vget_high_s32(vb)));
    }
    i64 total = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
    if (k < n)
        total += dotI32Scalar(a + k, b + k, n - k);
    return total;
}

void
gemmInt12Neon(const i32 *a, Index lda, const i32 *b, Index ldb, i64 *c,
              Index ldc, Index m, Index k, Index n)
{
    // Row-panel axpy over 16-column panels: four i32x4 accumulators
    // per panel (integer vmla: exact, unlike the float form the
    // kernels above avoid), widened into C after at most
    // kGemmInt12FlushSteps k-steps. The ragged column tail goes to
    // the scalar reference.
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
        axpy4F32Neon,
        dotI32Neon,
        gemmInt12Neon,
        absGreaterMask64Scalar,
        cmpGeMask64Scalar,
        popcountWordsScalar,
        andPopcountWordsScalar,
        orWordsScalar,
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
