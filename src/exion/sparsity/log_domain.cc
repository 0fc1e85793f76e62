#include "exion/sparsity/log_domain.h"

#include <cstdlib>
#include <vector>

namespace exion
{

i64
ldProduct(i32 a, i32 b, LodMode mode)
{
    if (a == 0 || b == 0)
        return 0;
    const bool negative = (a < 0) != (b < 0);
    const u32 ua = static_cast<u32>(std::abs(static_cast<i64>(a)));
    const u32 ub = static_cast<u32>(std::abs(static_cast<i64>(b)));

    i64 magnitude = 0;
    if (mode == LodMode::Single) {
        const int pa = leadingOne(ua);
        const int pb = leadingOne(ub);
        // The zero-operand early return above makes the sentinel
        // unreachable here, but a kNoLeadingOne (-1) position used as
        // a shift amount would be UB — guard locally so the check
        // does not depend on distant control flow.
        if (pa == kNoLeadingOne || pb == kNoLeadingOne)
            return 0;
        magnitude = i64{1} << (pa + pb);
    } else {
        const TsLod ta = twoStepLeadingOne(ua);
        const TsLod tb = twoStepLeadingOne(ub);
        const int a_bits[2] = {ta.first, ta.second};
        const int b_bits[2] = {tb.first, tb.second};
        for (int ai : a_bits) {
            if (ai == kNoLeadingOne)
                continue;
            for (int bi : b_bits) {
                if (bi == kNoLeadingOne)
                    continue;
                magnitude += i64{1} << (ai + bi);
            }
        }
    }
    return negative ? -magnitude : magnitude;
}

namespace
{

/**
 * Images of n values with the mode fixed at compile time, so the loop
 * vectorises. Returns whether any image exceeds kGemmInt12MaxAbs.
 */
template <LodMode Mode>
bool
lodImages(const i32 *src, i32 *dst, Index n)
{
    u32 wide = 0;
    for (Index i = 0; i < n; ++i) {
        dst[i] = lodImage(src[i], Mode);
        wide |= static_cast<u32>(dst[i]) + u32{kGemmInt12MaxAbs}
            > u32{2 * kGemmInt12MaxAbs};
    }
    return wide != 0;
}

} // namespace

QuantMatrix
lodTransform(const QuantMatrix &q, LodMode mode)
{
    QuantMatrix out(q.rows(), q.cols(), q.params());
    if (q.cols() == 0)
        return out;
    bool wide = false;
    for (Index r = 0; r < q.rows(); ++r) {
        i32 *dst = &out(r, 0);
        wide |= mode == LodMode::Single
            ? lodImages<LodMode::Single>(q.rowPtr(r), dst, q.cols())
            : lodImages<LodMode::TwoStep>(q.rowPtr(r), dst, q.cols());
    }
    EXION_ASSERT(!wide, "LD operand wider than Int12");
    return out;
}

Matrix
ldImageMatmul(const QuantMatrix &a_img,
              std::span<const QuantMatrix> b_imgs, SimdTier simd)
{
    EXION_ASSERT(!b_imgs.empty(), "ldImageMatmul without operands");
    const QuantMatrix &b0 = b_imgs.front();
    EXION_ASSERT(a_img.cols() == b0.rows(), "ldImageMatmul shape mismatch");
    const Index m = a_img.rows();
    const Index k = a_img.cols();
    const Index w = b0.cols();
    const Index n = w * b_imgs.size();
    for (Index h = 0; h < b_imgs.size(); ++h)
        EXION_ASSERT(b_imgs[h].rows() == k && b_imgs[h].cols() == w
                         && b_imgs[h].rowStride() == b0.rowStride()
                         && (k == 0
                             || b_imgs[h].rowPtr(0)
                                 == b0.rowPtr(0) + h * w),
                     "ldImageMatmul operand ", h,
                     " is not the next window of one image");
    Matrix c(m, n);
    if (m == 0 || n == 0 || k == 0)
        return c;
    std::vector<i64> sums(m * n);
    simdKernels(simd).gemmInt12(a_img.rowPtr(0), a_img.rowStride(),
                                b0.rowPtr(0), b0.rowStride(), sums.data(),
                                n, m, k, n);
    for (Index h = 0; h < b_imgs.size(); ++h) {
        const double out_scale = a_img.scale() * b_imgs[h].scale();
        for (Index i = 0; i < m; ++i)
            for (Index j = h * w; j < (h + 1) * w; ++j)
                c(i, j) = static_cast<float>(sums[i * n + j] * out_scale);
    }
    return c;
}

Matrix
ldMatmul(const QuantMatrix &a, const QuantMatrix &b, LodMode mode,
         SimdTier simd)
{
    EXION_ASSERT(a.cols() == b.rows(), "ldMatmul shape mismatch");
    const QuantMatrix b_img = lodTransform(b, mode);
    return ldImageMatmul(lodTransform(a, mode), {&b_img, 1}, simd);
}

Matrix
ldMatmulTransposed(const QuantMatrix &a, const QuantMatrix &b,
                   LodMode mode, SimdTier simd)
{
    EXION_ASSERT(a.cols() == b.cols(), "ldMatmulT shape mismatch");
    // The GEMM streams rows of its right operand: transpose B's image.
    const QuantMatrix b_img = lodTransform(b, mode);
    QuantMatrix bt_img(b.cols(), b.rows(), b.params());
    for (Index r = 0; r < b.rows(); ++r)
        for (Index c = 0; c < b.cols(); ++c)
            bt_img(c, r) = b_img(r, c);
    return ldImageMatmul(lodTransform(a, mode), {&bt_img, 1}, simd);
}

Matrix
ldMatmulFloat(const Matrix &a, const Matrix &b, LodMode mode,
              SimdTier simd)
{
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    return ldMatmul(qa, qb, mode, simd);
}

} // namespace exion
