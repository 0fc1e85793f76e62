/**
 * @file
 * GEMM tests: the blocked kernels must be bit-identical to their
 * Reference oracles over adversarial shapes (degenerate, prime,
 * block-boundary straddling, paper-scale tall cohort stacks), and the
 * kernels must agree with each other under NaN/Inf and signed-zero
 * payloads now that matmul() no longer skips zero contributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "exion/common/rng.h"
#include "exion/tensor/gemm.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/**
 * Bitwise equality, NaN-tolerant: two matrices whose storage bytes
 * match exactly. Matrix::operator== would report NaN != NaN.
 */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && (a.size() == 0
            || std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)) == 0);
}

/** Random matrix with exact zeros sprinkled in (the former zero-skip
    territory) and an occasional negative zero. */
Matrix
randomMatrix(Index rows, Index cols, Rng &rng)
{
    Matrix m(rows, cols);
    m.fillUniform(rng, -2.0f, 2.0f);
    for (Index i = 0; i < m.size(); ++i) {
        const double u = rng.uniform();
        if (u < 0.15)
            m.data()[i] = 0.0f;
        else if (u < 0.18)
            m.data()[i] = -0.0f;
    }
    return m;
}

/** matmul() or, with blocked = false, its Reference oracle. */
Matrix
matmulBy(const Matrix &a, const Matrix &b, bool blocked)
{
    return blocked ? matmul(a, b) : matmulReference(a, b);
}

/** matmulTransposed() or its Reference oracle. */
Matrix
matmulTransposedBy(const Matrix &a, const Matrix &b, bool blocked)
{
    return blocked ? matmulTransposed(a, b)
                   : matmulTransposedReference(a, b);
}

const char *
kernelName(bool blocked)
{
    return blocked ? "blocked" : "reference";
}

struct Shape
{
    Index m, k, n;
};

/**
 * Adversarial shape set: degenerate edges, primes that divide
 * nothing, dims straddling the blocking parameters (64 rows /
 * 128 panel columns), and the tall stacked-cohort GEMMs the blocked
 * kernel exists for (N members x 8 tokens against d x d and
 * d x 4d weight panels).
 */
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},     {5, 1, 3},     {1, 257, 1},
    {0, 4, 3},    {4, 0, 3},     {4, 3, 0},
    {3, 7, 13},   {13, 31, 7},   {31, 13, 3},   {17, 19, 23},
    {63, 16, 127}, {64, 17, 128}, {65, 18, 129}, {128, 64, 256},
    {128, 256, 256}, {64, 256, 1024},
};

TEST(GemmTest, MatmulBlockedBitIdenticalAcrossShapes)
{
    Rng rng(101);
    for (const Shape &s : kShapes) {
        SCOPED_TRACE(::testing::Message()
                     << s.m << "x" << s.k << " * " << s.k << "x" << s.n);
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        EXPECT_TRUE(bitIdentical(matmulReference(a, b), matmul(a, b)));
    }
}

TEST(GemmTest, MatmulTransposedBlockedBitIdenticalAcrossShapes)
{
    Rng rng(102);
    for (const Shape &s : kShapes) {
        SCOPED_TRACE(::testing::Message()
                     << s.m << "x" << s.k << " * (" << s.n << "x" << s.k
                     << ")^T");
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.n, s.k, rng);
        EXPECT_TRUE(bitIdentical(matmulTransposedReference(a, b),
                                 matmulTransposed(a, b)));
    }
}

TEST(GemmTest, MatmulQuantBlockedBitIdenticalAcrossShapes)
{
    Rng rng(103);
    for (const Shape &s : kShapes) {
        if (s.m == 0 || s.k == 0 || s.n == 0)
            continue; // QuantMatrix::fromFloat needs data for a scale
        SCOPED_TRACE(::testing::Message()
                     << s.m << "x" << s.k << " * " << s.k << "x" << s.n);
        Matrix a(s.m, s.k), b(s.k, s.n);
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
        const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
        EXPECT_TRUE(bitIdentical(matmulQuantReference(qa, qb),
                                 matmulQuant(qa, qb)));
    }
}

/** Special-value payloads must survive blocking bit for bit too. */
TEST(GemmTest, BlockedBitIdenticalWithNanInfPayloads)
{
    Rng rng(104);
    Matrix a = randomMatrix(67, 131, rng);
    Matrix b = randomMatrix(131, 129, rng);
    a(0, 0) = kNan;
    a(3, 70) = kInf;
    a(66, 1) = -kInf;
    a(12, 12) = -0.0f;
    b(5, 5) = kNan;
    b(130, 128) = kInf;
    b(64, 64) = -0.0f;
    EXPECT_TRUE(bitIdentical(matmulReference(a, b), matmul(a, b)));
    Matrix bt = transpose(b);
    EXPECT_TRUE(bitIdentical(matmulTransposedReference(a, bt),
                             matmulTransposed(a, bt)));
}

// ---------------------------------------------------------------------
// Zero-skip regression: matmul() used to drop a == 0.0f contributions
// while matmulTransposed() computed them, so the two golden kernels
// disagreed whenever a zero activation met a NaN/Inf weight. They must
// now agree bit for bit on every input.
// ---------------------------------------------------------------------

TEST(GemmZeroSkipRegressionTest, ZeroTimesNanPropagates)
{
    // A zero activation against a NaN weight is NaN under IEEE
    // semantics (0 * NaN = NaN); the old skip silently produced 0.
    Matrix a(1, 2);
    a(0, 0) = 0.0f;
    a(0, 1) = 1.0f;
    Matrix b(2, 1);
    b(0, 0) = kNan;
    b(1, 0) = 3.0f;
    for (bool blocked : {false, true}) {
        SCOPED_TRACE(kernelName(blocked));
        const Matrix c = matmulBy(a, b, blocked);
        EXPECT_TRUE(std::isnan(c(0, 0)));
    }
}

TEST(GemmZeroSkipRegressionTest, ZeroTimesInfPropagates)
{
    // 0 * inf = NaN; -0 * -inf = NaN. Both rows were skipped before.
    Matrix a(2, 1);
    a(0, 0) = 0.0f;
    a(1, 0) = -0.0f;
    Matrix b(1, 2);
    b(0, 0) = kInf;
    b(0, 1) = -kInf;
    for (bool blocked : {false, true}) {
        SCOPED_TRACE(kernelName(blocked));
        const Matrix c = matmulBy(a, b, blocked);
        EXPECT_TRUE(std::isnan(c(0, 0)));
        EXPECT_TRUE(std::isnan(c(0, 1)));
        EXPECT_TRUE(std::isnan(c(1, 0)));
        EXPECT_TRUE(std::isnan(c(1, 1)));
    }
}

TEST(GemmZeroSkipRegressionTest, MatmulAgreesWithTransposedOnNanInf)
{
    // A * B must equal A * (B^T)^T bit for bit even when the operands
    // carry NaN, +/-inf and -0.0 — the divergence the old zero-skip
    // introduced between the two golden kernels.
    Rng rng(105);
    Matrix a = randomMatrix(11, 13, rng);
    Matrix b = randomMatrix(13, 9, rng);
    a(0, 5) = 0.0f;
    a(7, 2) = -0.0f;
    b(5, 3) = kNan;
    b(2, 8) = kInf;
    b(2, 0) = -kInf;
    b(11, 4) = -0.0f;
    const Matrix bt = transpose(b);
    for (bool blocked : {false, true}) {
        SCOPED_TRACE(kernelName(blocked));
        EXPECT_TRUE(bitIdentical(matmulBy(a, b, blocked),
                                 matmulTransposedBy(a, bt, blocked)));
    }
}

TEST(GemmZeroSkipRegressionTest, SignedZeroAccumulationAgrees)
{
    // Accumulators start at +0.0f in both kernels, so a column of
    // sign-flipping zero products and exactly-cancelling pairs must
    // land on bitwise-equal (including the sign bit) outputs.
    Matrix a(3, 4);
    a(0, 0) = -0.0f; a(0, 1) = 0.0f;  a(0, 2) = -0.0f; a(0, 3) = 0.0f;
    a(1, 0) = 1.0f;  a(1, 1) = -1.0f; a(1, 2) = 0.0f;  a(1, 3) = -0.0f;
    a(2, 0) = -1.0f; a(2, 1) = -1.0f; a(2, 2) = 1.0f;  a(2, 3) = 1.0f;
    Matrix b(4, 2);
    b(0, 0) = 5.0f;  b(0, 1) = -5.0f;
    b(1, 0) = 5.0f;  b(1, 1) = -5.0f;
    b(2, 0) = -3.0f; b(2, 1) = 3.0f;
    b(3, 0) = -0.0f; b(3, 1) = -0.0f;
    const Matrix bt = transpose(b);
    const Matrix c = matmul(a, b);
    const Matrix ct = matmulTransposed(a, bt);
    EXPECT_TRUE(bitIdentical(c, ct));
    // Row 0 is all signed zeros against finite weights: the sum of
    // +/-0.0 terms from a +0.0 start is +0.0, never -0.0.
    EXPECT_EQ(c(0, 0), 0.0f);
    EXPECT_FALSE(std::signbit(c(0, 0)));
    EXPECT_FALSE(std::signbit(c(0, 1)));
    // Row 1: 1*5 + (-1)*5 cancels to +0.0 in both kernels.
    EXPECT_EQ(c(1, 0), 0.0f);
    EXPECT_EQ(std::signbit(c(1, 0)), std::signbit(ct(1, 0)));
}

} // namespace
} // namespace exion
