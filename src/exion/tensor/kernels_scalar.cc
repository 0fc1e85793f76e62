/**
 * @file
 * Scalar reference kernels — the golden chains every vector table is
 * measured against.
 *
 * These loops are the gemm.h accumulation contract spelled out once:
 * separate rounded multiply and add per term, ascending index order,
 * +0.0f accumulator starts, ordered compares (NaN never sets a bit).
 * Compiled with -ffp-contract=off so no toolchain fuses a chain here
 * that a vector kernel keeps unfused (or vice versa).
 */

#include "exion/tensor/simd_dispatch.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace exion
{
namespace simd
{

void
axpyF32Scalar(float *out, const float *x, float a, Index n)
{
    for (Index j = 0; j < n; ++j)
        out[j] += a * x[j];
}

void
axpy4F32Scalar(float *out, const float *x0, const float *x1,
               const float *x2, const float *x3, float a0, float a1,
               float a2, float a3, Index n)
{
    for (Index j = 0; j < n; ++j) {
        float acc = out[j];
        acc += a0 * x0[j];
        acc += a1 * x1[j];
        acc += a2 * x2[j];
        acc += a3 * x3[j];
        out[j] = acc;
    }
}

float
dotF32Scalar(const float *a, const float *b, Index n)
{
    float acc = 0.0f;
    for (Index k = 0; k < n; ++k)
        acc += a[k] * b[k];
    return acc;
}

i64
dotI32Scalar(const i32 *a, const i32 *b, Index n)
{
    i64 acc = 0;
    for (Index k = 0; k < n; ++k)
        acc += static_cast<i64>(a[k]) * b[k];
    return acc;
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

u64
absGreaterMask64Scalar(const float *x, float theta, Index n)
{
    u64 bits = 0;
    for (Index i = 0; i < n; ++i)
        if (std::abs(x[i]) > theta)
            bits |= u64{1} << i;
    return bits;
}

u64
cmpGeMask64Scalar(const float *x, float threshold, Index n)
{
    u64 bits = 0;
    for (Index i = 0; i < n; ++i)
        if (x[i] >= threshold)
            bits |= u64{1} << i;
    return bits;
}

u64
popcountWordsScalar(const u64 *w, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(std::popcount(w[i]));
    return total;
}

u64
andPopcountWordsScalar(const u64 *a, const u64 *b, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(std::popcount(a[i] & b[i]));
    return total;
}

void
orWordsScalar(u64 *dst, const u64 *src, Index n)
{
    for (Index i = 0; i < n; ++i)
        dst[i] |= src[i];
}

const SimdKernels &
scalarTable()
{
    static const SimdKernels table = {
        "scalar",
        axpyF32Scalar,
        axpy4F32Scalar,
        dotI32Scalar,
        gemmInt12Scalar,
        absGreaterMask64Scalar,
        cmpGeMask64Scalar,
        popcountWordsScalar,
        andPopcountWordsScalar,
        orWordsScalar,
    };
    return table;
}

} // namespace simd
} // namespace exion
