#include "exion/sparsity/log_domain.h"

#include <cstdlib>
#include <vector>

#include "exion/tensor/simd_dispatch.h"

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
ldImageMatmul(std::span<const QuantMatrix> a_imgs,
              std::span<const QuantMatrix> b_imgs)
{
    EXION_ASSERT(!a_imgs.empty() && !b_imgs.empty(),
                 "ldImageMatmul without operands");
    const QuantMatrix &a0 = a_imgs.front();
    const QuantMatrix &b0 = b_imgs.front();
    EXION_ASSERT(a0.cols() == b0.rows(), "ldImageMatmul shape mismatch");
    const Index ma = a0.rows();
    const Index k = a0.cols();
    const Index w = b0.cols();
    const Index m = ma * a_imgs.size();
    const Index n = w * b_imgs.size();
    for (Index s = 0; s < a_imgs.size(); ++s)
        EXION_ASSERT(a_imgs[s].rows() == ma && a_imgs[s].cols() == k
                         && a_imgs[s].rowStride() == a0.rowStride()
                         && (ma == 0 || k == 0
                             || a_imgs[s].rowPtr(0)
                                 == a0.rowPtr(0) + s * ma * a0.rowStride()),
                     "ldImageMatmul operand A_", s,
                     " is not the next row window of one image");
    for (Index h = 0; h < b_imgs.size(); ++h)
        EXION_ASSERT(b_imgs[h].rows() == k && b_imgs[h].cols() == w
                         && b_imgs[h].rowStride() == b0.rowStride()
                         && (k == 0
                             || b_imgs[h].rowPtr(0)
                                 == b0.rowPtr(0) + h * w),
                     "ldImageMatmul operand B_", h,
                     " is not the next window of one image");
    Matrix c(m, n);
    if (m == 0 || n == 0 || k == 0)
        return c;
    const SimdKernels &kr = activeKernels();
    std::vector<i64> sums(m * n);
    kr.gemmInt12(a0.rowPtr(0), a0.rowStride(), b0.rowPtr(0),
                 b0.rowStride(), sums.data(), n, m, k, n);
    for (Index s = 0; s < a_imgs.size(); ++s)
        for (Index h = 0; h < b_imgs.size(); ++h) {
            const double out_scale = a_imgs[s].scale() * b_imgs[h].scale();
            for (Index i = s * ma; i < (s + 1) * ma; ++i)
                kr.dequantizeI64(sums.data() + i * n + h * w, w, out_scale,
                                 c.rowPtr(i) + h * w);
        }
    return c;
}

Matrix
ldMatmul(const QuantMatrix &a, const QuantMatrix &b, LodMode mode)
{
    EXION_ASSERT(a.cols() == b.rows(), "ldMatmul shape mismatch");
    const QuantMatrix a_img = lodTransform(a, mode);
    const QuantMatrix b_img = lodTransform(b, mode);
    return ldImageMatmul({&a_img, 1}, {&b_img, 1});
}

Matrix
ldMatmulFloat(const Matrix &a, const Matrix &b, LodMode mode)
{
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    return ldMatmul(qa, qb, mode);
}

} // namespace exion
