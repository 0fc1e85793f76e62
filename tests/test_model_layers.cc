/**
 * @file
 * Unit tests for exion/model layers: Linear, GELU, LayerNorm, Softmax,
 * timestep embedding, ResBlock.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "exion/common/rng.h"
#include "exion/model/layers.h"
#include "exion/model/resblock.h"
#include "exion/tensor/ops.h"
#include "standalone_layers.h"

namespace exion
{
namespace
{

TEST(Linear, ForwardMatchesManual)
{
    Rng rng(1);
    StandaloneLinear lin(3, 2, rng);
    Matrix x(1, 3);
    x(0, 0) = 1.0f;
    x(0, 1) = -2.0f;
    x(0, 2) = 0.5f;
    const Matrix y = lin.forward(x);
    for (Index j = 0; j < 2; ++j) {
        float expect = lin.bias()(0, j);
        for (Index k = 0; k < 3; ++k)
            expect = std::fma(x(0, k), lin.weight()(k, j), expect);
        EXPECT_NEAR(y(0, j), expect, 1e-5);
    }
}

TEST(Gelu, KnownValues)
{
    EXPECT_NEAR(geluScalar(0.0f), 0.0f, 1e-7);
    // gelu(x) -> x for large positive, -> 0 for large negative.
    EXPECT_NEAR(geluScalar(10.0f), 10.0f, 1e-3);
    EXPECT_NEAR(geluScalar(-10.0f), 0.0f, 1e-3);
    // Reference value of tanh-GELU at 1.0.
    EXPECT_NEAR(geluScalar(1.0f), 0.8412f, 1e-3);
}

TEST(Gelu, ShapeProperties)
{
    // GELU is not monotone: it dips to a single minimum near -0.75
    // and is increasing for x >= 0; it is bounded below by ~-0.17.
    float prev = geluScalar(0.0f);
    for (float x = 0.1f; x < 6.0f; x += 0.1f) {
        const float cur = geluScalar(x);
        EXPECT_GE(cur, prev - 1e-6f);
        prev = cur;
    }
    for (float x = -6.0f; x < 6.0f; x += 0.05f)
        EXPECT_GE(geluScalar(x), -0.2f);
    // Minimum sits left of zero.
    EXPECT_LT(geluScalar(-0.75f), geluScalar(0.0f));
    EXPECT_LT(geluScalar(-0.75f), geluScalar(-3.0f));
}

TEST(LayerNorm, NormalisesRows)
{
    Rng rng(3);
    Matrix x(4, 32);
    x.fillNormal(rng, 3.0f, 2.0f);
    Matrix gamma(1, 32, 1.0f), beta(1, 32, 0.0f);
    const Matrix y = layerNorm(x, gamma, beta);
    for (Index r = 0; r < 4; ++r) {
        double sum = 0.0, sq = 0.0;
        for (Index c = 0; c < 32; ++c) {
            sum += y(r, c);
            sq += static_cast<double>(y(r, c)) * y(r, c);
        }
        EXPECT_NEAR(sum / 32.0, 0.0, 1e-4);
        EXPECT_NEAR(sq / 32.0, 1.0, 1e-2);
    }
}

TEST(LayerNorm, GammaBetaApplied)
{
    Matrix x(1, 4);
    x(0, 0) = 1;
    x(0, 1) = 2;
    x(0, 2) = 3;
    x(0, 3) = 4;
    Matrix gamma(1, 4, 2.0f), beta(1, 4, 1.0f);
    const Matrix y = layerNorm(x, gamma, beta);
    Matrix unit_gamma(1, 4, 1.0f), zero_beta(1, 4, 0.0f);
    const Matrix base = layerNorm(x, unit_gamma, zero_beta);
    for (Index c = 0; c < 4; ++c)
        EXPECT_NEAR(y(0, c), 2.0f * base(0, c) + 1.0f, 1e-5);
}

TEST(Softmax, RowsSumToOne)
{
    Rng rng(5);
    Matrix x(6, 10);
    x.fillNormal(rng, 0.0f, 3.0f);
    const Matrix p = softmax(x);
    for (Index r = 0; r < 6; ++r) {
        double sum = 0.0;
        for (Index c = 0; c < 10; ++c) {
            EXPECT_GE(p(r, c), 0.0f);
            sum += p(r, c);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Softmax, DominantValueWins)
{
    Matrix x(1, 4, 0.0f);
    x(0, 2) = 20.0f;
    const Matrix p = softmax(x);
    EXPECT_GT(p(0, 2), 0.999f);
}

TEST(Softmax, MaskedRowIsZero)
{
    Matrix x(1, 3, -std::numeric_limits<float>::infinity());
    const Matrix p = softmax(x);
    for (Index c = 0; c < 3; ++c)
        EXPECT_FLOAT_EQ(p(0, c), 0.0f);
}

TEST(TimestepEmbedding, DistinctAndBounded)
{
    const Matrix e1 = timestepEmbedding(10, 64);
    const Matrix e2 = timestepEmbedding(500, 64);
    EXPECT_EQ(e1.cols(), 64u);
    EXPECT_GT(maxAbsDiff(e1, e2), 0.1);
    for (float v : e1.data())
        EXPECT_LE(std::abs(v), 1.0f + 1e-6f);
}

TEST(ResBlock, PreservesShapeAndAddsResidual)
{
    Rng rng(7);
    StandaloneResBlock res(16, rng);
    Matrix x(4, 16);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix y = res.forward(x);
    EXPECT_EQ(y.rows(), 4u);
    EXPECT_EQ(y.cols(), 16u);
    // Residual path keeps output correlated with input.
    double dot = 0.0, nx = 0.0;
    for (Index i = 0; i < x.size(); ++i) {
        dot += static_cast<double>(x.data()[i]) * y.data()[i];
        nx += static_cast<double>(x.data()[i]) * x.data()[i];
    }
    EXPECT_GT(dot / nx, 0.5);
}

} // namespace
} // namespace exion
