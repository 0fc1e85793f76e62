/**
 * @file
 * SIMD kernel layer tests.
 *
 * Every vector table this build carries and this CPU can run is held
 * against the scalar reference table on adversarial inputs: NaN/Inf
 * payloads, signed zeros, lengths that are not a multiple of any
 * vector width, and mask words with ragged tails. Every entry (axpy,
 * GEMMs, compares, integer reductions) must be bit-identical. Every
 * float entry of every table, the scalar one included, is also held
 * to std::fma chains on inputs where a fused multiply-add and a
 * rounded product then add give different bits, so a table that
 * rounds the product fails. The
 * float GEMM every dense product runs on is checked on ragged shapes
 * with strided operands and poisoned row gaps, and so are the masked
 * dots (dotRowsF32), on ragged row counts and depths with unsorted and
 * repeated indices; the integer GEMM eager
 * prediction runs on is checked on ragged shapes (odd depths, whose
 * last i16 pair is half empty, included) and at the depths around its
 * 255-pair flush, where its i32 lanes overflow unless flushed in
 * time. The Int12 quantise and dequantise entries run NaN, infinities,
 * out-of-range values, denormals and half-way quotients at every
 * width's q_max and LOD depth, and i64 sums past a double's 53 bits,
 * at every length from 0 to 33. On top of the kernels, the level
 * plumbing (name round-trips, refusal of a bad EXION_SIMD) and
 * the Bitmask2D word-level API (words(), countOnes,
 * writeRowBits, forEachSetBit*) are covered, the latter on 63/64/65
 * column shapes so every word-boundary case is exercised.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exion/common/fixed_point.h"
#include "exion/common/rerun_self.h"
#include "exion/common/rng.h"
#include "exion/tensor/bitmask.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{
namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/**
 * Every vector table compiled into this build that this CPU can run:
 * the same __builtin_cpu_supports checks the level probe makes, so a
 * host without FMA, an AVX2-only host, or one with AVX-512F but not BW
 * or DQ, never calls a kernel it lacks. The EXION_SIMD cap is ignored
 * on purpose: a forced-scalar run still checks every vector table the
 * host has.
 */
std::vector<const SimdKernels *>
vectorTables()
{
    std::vector<const SimdKernels *> tables;
#if defined(__x86_64__) || defined(__i386__)
    if (!__builtin_cpu_supports("fma"))
        return tables;
    if (simd::avx2Table() && __builtin_cpu_supports("avx2"))
        tables.push_back(simd::avx2Table());
    if (simd::avx512Table() && __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512bw")
        && __builtin_cpu_supports("avx512dq"))
        tables.push_back(simd::avx512Table());
#endif
    if (simd::neonTable())
        tables.push_back(simd::neonTable());
    return tables;
}

/**
 * Lengths chosen so no vector width (4/8/16 lanes) divides them all:
 * empty, sub-width, exact widths, width+1, and multi-word sizes.
 */
const Index kLengths[] = {0,  1,  3,  4,  5,  7,  8,  9,  15, 16,
                          17, 31, 32, 33, 63, 64, 65, 100, 130};

/** Floats with NaN/Inf/signed-zero payloads sprinkled in. */
std::vector<float>
adversarialFloats(Index n, Rng &rng)
{
    std::vector<float> v(n);
    for (Index i = 0; i < n; ++i) {
        const double u = rng.uniform();
        if (u < 0.05)
            v[i] = kNan;
        else if (u < 0.10)
            v[i] = rng.uniform() < 0.5 ? kInf : -kInf;
        else if (u < 0.20)
            v[i] = rng.uniform() < 0.5 ? 0.0f : -0.0f;
        else
            v[i] = static_cast<float>(rng.uniform() * 4.0 - 2.0);
    }
    return v;
}

/**
 * Per-element bitwise equality, except positions where both sides
 * are NaN. Whether a value is NaN must always agree (the mul/add
 * semantics are lane-identical), but when an addition's accumulator
 * AND term are both NaN, IEEE 754 leaves the propagated payload
 * unspecified — hardware returns the first operand's payload, and
 * the compiler orders the scalar C chain's operands differently at
 * different optimisation levels — so payloads are only compared
 * when at most one side of the chain went NaN.
 */
bool
bitsEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i]))
            continue;
        unsigned ab, bb;
        std::memcpy(&ab, &a[i], sizeof ab);
        std::memcpy(&bb, &b[i], sizeof bb);
        if (ab != bb)
            return false;
    }
    return true;
}

// ------------------------------------------------------------ plumbing

TEST(SimdDispatchTest, LevelNameParseRoundTrip)
{
    for (SimdLevel l : {SimdLevel::Scalar, SimdLevel::Neon,
                        SimdLevel::Avx2, SimdLevel::Avx512}) {
        const auto parsed = parseSimdLevel(simdLevelName(l));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, l);
    }
    // Only exact level names parse. activeSimdLevel() reads "auto"
    // and empty as no cap and refuses the rest.
    for (const char *other : {"auto", "", "sse9", "scalr", "AVX2",
                              "avx512 ", " scalar", "exact"})
        EXPECT_FALSE(parseSimdLevel(other).has_value()) << other;
}

TEST(SimdDispatchTest, BogusLevelIsFatal)
{
    // The child re-runs this test under EXION_SIMD=bogus and must
    // stop right here; one that gets past it fails instead of starting
    // a child of its own.
    activeSimdLevel();
    const char *env = std::getenv("EXION_SIMD");
    ASSERT_FALSE(env != nullptr && std::string(env) == "bogus")
        << "EXION_SIMD=bogus was accepted";
    const ::testing::TestInfo &test =
        *::testing::UnitTest::GetInstance()->current_test_info();
    const ChildRun child = rerunSelf(
        {std::string("--gtest_filter=") + test.test_suite_name() + "."
         + test.name()},
        "bogus");
    EXPECT_NE(child.status, 0) << child.out;
    EXPECT_NE(child.err.find("'bogus'"), std::string::npos) << child.err;
}

TEST(SimdDispatchTest, TablesArePopulated)
{
    std::vector<const SimdKernels *> all = vectorTables();
    all.push_back(&simd::scalarTable());
    all.push_back(&activeKernels());
    for (const SimdKernels *t : all) {
        EXPECT_NE(t->name, nullptr);
        EXPECT_NE(t->axpyF32, nullptr);
        EXPECT_NE(t->gemmF32, nullptr);
        EXPECT_NE(t->dotRowsF32, nullptr);
        EXPECT_NE(t->gemmInt12, nullptr);
        EXPECT_NE(t->quantizeF32, nullptr);
        EXPECT_NE(t->dequantizeI64, nullptr);
        EXPECT_NE(t->absGreaterMask64, nullptr);
        EXPECT_NE(t->cmpGeMask64, nullptr);
        EXPECT_NE(t->popcountWords, nullptr);
    }
}

// ---------------------------------------------- float kernels (Exact)

TEST(SimdKernelTest, AxpyBitIdenticalToScalar)
{
    Rng rng(11);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : kLengths) {
            const std::vector<float> x = adversarialFloats(n, rng);
            for (float a : {1.5f, 0.0f, -0.0f, kInf, kNan}) {
                std::vector<float> ref = adversarialFloats(n, rng);
                std::vector<float> got = ref;
                simd::axpyF32Scalar(ref.data(), x.data(), a, n);
                table->axpyF32(got.data(), x.data(), a, n);
                EXPECT_TRUE(bitsEqual(ref, got))
                    << table->name << " n=" << n << " a=" << a;
            }
        }
    }
}

/** A gemmF32 operand or result laid out with a row stride. */
struct StridedFloats
{
    Index rows, cols, ld;
    std::vector<float> v;
};

/** Bits of the gap poison. */
constexpr u32 kGapPoisonBits = 0x7fc0beefu;

/**
 * Quiet NaN with a payload no operand carries, so no arithmetic
 * produces it: it marks the gaps between rows, which a kernel must
 * neither read into a result nor write.
 */
float
gapPoison()
{
    const u32 bits = kGapPoisonBits;
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

/**
 * rows x cols floats, rows ld apart, every gap poisoned. The buffer
 * ends with the last row, so a read past it leaves the allocation.
 * Values are finite with signed zeros sprinkled in, plus one NaN, one
 * +Inf and one -Inf at random positions: they reach a few rows and
 * columns of C, and every other chain stays finite, so a rounding
 * change (such as a fused multiply-add) shows in the bits instead of
 * hiding behind NaN.
 */
StridedFloats
stridedOperand(Index rows, Index cols, Index ld, Rng &rng)
{
    StridedFloats s{rows, cols, ld, {}};
    s.v.assign(rows == 0 ? 0 : (rows - 1) * ld + cols, gapPoison());
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c) {
            const double u = rng.uniform();
            s.v[r * ld + c] = u < 0.1 ? (u < 0.05 ? 0.0f : -0.0f)
                                      : static_cast<float>(
                                            rng.uniform() * 4.0 - 2.0);
        }
    if (rows * cols > 0)
        for (float special : {kNan, kInf, -kInf})
            s.v[rng.uniformInt(rows) * ld + rng.uniformInt(cols)] =
                special;
    return s;
}

/** C = A * B by one table's gemmF32 into a C poisoned everywhere. */
StridedFloats
runGemmF32(const SimdKernels &table, const StridedFloats &a,
           const StridedFloats &b, Index ldc)
{
    StridedFloats c{a.rows, b.cols, ldc, {}};
    c.v.assign(a.rows == 0 ? 0 : (a.rows - 1) * ldc + b.cols,
               gapPoison());
    table.gemmF32(a.v.data(), a.ld, b.v.data(), b.ld, c.v.data(), ldc,
                  a.rows, a.cols, b.cols);
    return c;
}

/** True when every gap between c's rows still holds the poison. */
bool
gapsUntouched(const StridedFloats &c)
{
    for (Index r = 0; r + 1 < c.rows; ++r)
        for (Index j = c.cols; j < c.ld; ++j) {
            u32 got;
            std::memcpy(&got, &c.v[r * c.ld + j], sizeof got);
            if (got != kGapPoisonBits)
                return false;
        }
    return true;
}

TEST(SimdKernelTest, GemmF32RaggedShapesMatchScalar)
{
    // Shapes straddle every tile edge (6- and 8-row tiles, 8- and
    // 16-lane vectors, 16- and 32-column panels, 128- and 256-step
    // k-blocks), empty ones included; operands carry NaN, Inf and signed zeros,
    // and every stride is longer than its row.
    Rng rng(12);
    const Index ms[] = {0, 1, 3, 4, 5, 7, 8, 9, 17, 64, 196};
    const Index ks[] = {0, 1, 127, 128, 129, 257};
    const Index ns[] = {0,  1,  7,  8,  9,  15, 16,
                        17, 31, 32, 33, 65, 196};
    for (Index m : ms) {
        for (Index k : ks) {
            for (Index n : ns) {
                SCOPED_TRACE(::testing::Message()
                             << "m=" << m << " k=" << k << " n=" << n);
                const StridedFloats a = stridedOperand(m, k, k + 3, rng);
                const StridedFloats b = stridedOperand(k, n, n + 5, rng);
                const Index ldc = n + 2;
                const StridedFloats want =
                    runGemmF32(simd::scalarTable(), a, b, ldc);
                ASSERT_TRUE(gapsUntouched(want));
                // The scalar entry against the plain triple loop.
                std::vector<float> loop(want.v.size(), gapPoison());
                for (Index i = 0; i < m; ++i)
                    for (Index j = 0; j < n; ++j) {
                        float acc = 0.0f;
                        for (Index kk = 0; kk < k; ++kk)
                            acc = std::fma(a.v[i * a.ld + kk],
                                           b.v[kk * b.ld + j], acc);
                        loop[i * ldc + j] = acc;
                    }
                ASSERT_TRUE(bitsEqual(loop, want.v));
                for (const SimdKernels *table : vectorTables()) {
                    const StridedFloats got =
                        runGemmF32(*table, a, b, ldc);
                    ASSERT_TRUE(gapsUntouched(got)) << table->name;
                    ASSERT_TRUE(bitsEqual(want.v, got.v)) << table->name;
                }
            }
        }
    }
}

/**
 * out[i] for i in [0, n) by one table's dotRowsF32, into a buffer
 * whose 16 slots past n hold the gap poison.
 */
std::vector<float>
runDotRows(const SimdKernels &table, const std::vector<float> &x,
           const StridedFloats &b, const std::vector<Index> &idx, Index d)
{
    std::vector<float> out(idx.size() + 16, gapPoison());
    table.dotRowsF32(x.data(), b.v.data(), b.ld, idx.data(), idx.size(),
                     d, out.data());
    return out;
}

/** True when every slot of out from n on still holds the poison. */
bool
poisonedFrom(const std::vector<float> &out, Index n)
{
    for (Index i = n; i < out.size(); ++i) {
        u32 got;
        std::memcpy(&got, &out[i], sizeof got);
        if (got != kGapPoisonBits)
            return false;
    }
    return true;
}

TEST(SimdKernelTest, DotRowsMatchesScalarChains)
{
    // Row counts straddle the 8- and 16-lane groups and depths the
    // 8- and 16-k blocks. Indices come unsorted and repeated, rows sit
    // ld apart with poisoned gaps (the last row is followed by one
    // too), and x is followed by poison, so a kernel that adds a term
    // past d turns its chain into NaN. B carries signed zeros, NaN and
    // +-Inf at random positions; x is finite, with signed zeros, or
    // carries one NaN or +-Inf, which reaches every chain.
    Rng rng(13);
    const Index ns[] = {0, 1, 7, 8, 9, 15, 16, 17, 33};
    const Index ds[] = {1, 15, 16, 17, 63, 64, 65, 512};
    constexpr Index kRows = 40;
    for (Index d : ds) {
        for (Index n : ns) {
            for (int x_kind = 0; x_kind < 4; ++x_kind) {
                SCOPED_TRACE(::testing::Message() << "d=" << d << " n="
                                                  << n << " x_kind="
                                                  << x_kind);
                StridedFloats b = stridedOperand(kRows, d, d + 5, rng);
                b.v.resize(kRows * b.ld, gapPoison());
                std::vector<float> x(d + 16, gapPoison());
                for (Index k = 0; k < d; ++k) {
                    const double u = rng.uniform();
                    x[k] = u < 0.1 ? (u < 0.05 ? 0.0f : -0.0f)
                                   : static_cast<float>(
                                         rng.uniform() * 4.0 - 2.0);
                }
                if (x_kind > 0)
                    x[rng.uniformInt(d)] =
                        x_kind == 1 ? kNan : x_kind == 2 ? kInf : -kInf;
                std::vector<Index> idx(n);
                for (Index i = 0; i < n; ++i)
                    idx[i] = rng.uniformInt(kRows);
                if (n > 2)
                    idx[n - 1] = idx[0]; // a repeat, whatever the draw

                const std::vector<float> want =
                    runDotRows(simd::scalarTable(), x, b, idx, d);
                // The scalar entry against the plain chain.
                std::vector<float> loop(n + 16, gapPoison());
                for (Index i = 0; i < n; ++i) {
                    float acc = 0.0f;
                    for (Index k = 0; k < d; ++k)
                        acc = std::fma(x[k], b.v[idx[i] * b.ld + k], acc);
                    loop[i] = acc;
                }
                ASSERT_TRUE(bitsEqual(loop, want));
                ASSERT_TRUE(poisonedFrom(want, n));
                for (const SimdKernels *table : vectorTables()) {
                    const std::vector<float> got =
                        runDotRows(*table, x, b, idx, d);
                    ASSERT_TRUE(poisonedFrom(got, n)) << table->name;
                    ASSERT_TRUE(bitsEqual(want, got)) << table->name;
                }
            }
        }
    }
}

// ------------------------------------------------ fusion pinning

/** The golden chain: one fused multiply-add per term, from +0.0f. */
float
fusedChain(const std::vector<float> &x, const std::vector<float> &y)
{
    float acc = 0.0f;
    for (Index k = 0; k < x.size(); ++k)
        acc = std::fma(x[k], y[k], acc);
    return acc;
}

/** The chain a kernel that rounds each product before its add runs. */
float
unfusedChain(const std::vector<float> &x, const std::vector<float> &y)
{
    float acc = 0.0f;
    for (Index k = 0; k < x.size(); ++k) {
        const volatile float product = x[k] * y[k];
        acc = acc + product;
    }
    return acc;
}

/**
 * Two depth-long factor rows, full-mantissa values of either sign in
 * [1, 2), whose fused chain ends on other bits than the unfused one
 * (redrawn until it does; a depth of at least 2 always gets there,
 * since the first term alone rounds the same either way). Scaling
 * either row by a power of two scales both chains exactly, so every
 * element of a product built from scaled copies keeps the difference.
 */
std::pair<std::vector<float>, std::vector<float>>
fusionPinningFactors(Index depth, Rng &rng)
{
    std::vector<float> x(depth), y(depth);
    do {
        for (Index k = 0; k < depth; ++k) {
            x[k] = static_cast<float>(1.0 + rng.uniform())
                * (rng.uniform() < 0.5 ? -1.0f : 1.0f);
            y[k] = static_cast<float>(1.0 + rng.uniform())
                * (rng.uniform() < 0.5 ? -1.0f : 1.0f);
        }
    } while (fusedChain(x, y) == unfusedChain(x, y));
    return {x, y};
}

/** Row or column r's power-of-two scale: 2^-2 .. 2^2. */
float
pinScale(Index r)
{
    return std::ldexp(1.0f, static_cast<int>(r % 5) - 2);
}

TEST(SimdKernelTest, AxpyFusesEachTerm)
{
    // out[j] = fma(a, x[j], out[j]) with a * x[j] one bit too long
    // for a float and out[j] cancelling its rounded value: the fused
    // result is the lost bit, the rounded product then add gives 0.
    const float a = 1.0f + std::ldexp(1.0f, -12);
    for (Index n : kLengths) {
        std::vector<float> x(n), base(n), fused(n);
        for (Index j = 0; j < n; ++j) {
            const float s = pinScale(j) * (j % 2 == 0 ? 1.0f : -1.0f);
            x[j] = a * s;
            base[j] = -(1.0f + std::ldexp(1.0f, -11)) * s;
            fused[j] = std::fma(a, x[j], base[j]);
            const volatile float product = a * x[j];
            ASSERT_NE(fused[j], product + base[j]) << "j=" << j;
        }
        std::vector<const SimdKernels *> tables = vectorTables();
        tables.push_back(&simd::scalarTable());
        for (const SimdKernels *table : tables) {
            std::vector<float> got = base;
            table->axpyF32(got.data(), x.data(), a, n);
            EXPECT_TRUE(bitsEqual(fused, got)) << table->name << " n=" << n;
        }
    }
}

TEST(SimdKernelTest, GemmF32FusesEachTerm)
{
    // Element (i, j) is the pinning chain scaled by row i's and column
    // j's powers of two, so each one differs from the unfused chain.
    // Depths straddle the 128- and 256-step k-blocks, row counts the
    // row tiles and the 256-row packing block, column counts the
    // 16- and 32-column panels.
    Rng rng(14);
    const Index ks[] = {2, 127, 128, 129, 255, 256, 257, 511, 512, 513};
    const Index ms[] = {1, 5, 8, 9, 17, 260};
    const Index ns[] = {1, 15, 16, 17, 31, 32, 33, 47};
    for (Index k : ks) {
        const auto [x, y] = fusionPinningFactors(k, rng);
        const float want = fusedChain(x, y);
        const float unfused = unfusedChain(x, y);
        for (Index m : ms) {
            for (Index n : ns) {
                SCOPED_TRACE(::testing::Message()
                             << "m=" << m << " k=" << k << " n=" << n);
                const Index lda = k + 1, ldb = n + 3, ldc = n + 2;
                std::vector<float> a(m * lda, gapPoison());
                std::vector<float> b(k * ldb, gapPoison());
                for (Index i = 0; i < m; ++i)
                    for (Index kk = 0; kk < k; ++kk)
                        a[i * lda + kk] = x[kk] * pinScale(i);
                for (Index kk = 0; kk < k; ++kk)
                    for (Index j = 0; j < n; ++j)
                        b[kk * ldb + j] = y[kk] * pinScale(j + 3);
                std::vector<const SimdKernels *> tables = vectorTables();
                tables.push_back(&simd::scalarTable());
                for (const SimdKernels *table : tables) {
                    std::vector<float> c(m * ldc, gapPoison());
                    table->gemmF32(a.data(), lda, b.data(), ldb, c.data(),
                                   ldc, m, k, n);
                    for (Index i = 0; i < m; ++i)
                        for (Index j = 0; j < n; ++j) {
                            const float scale = pinScale(i) * pinScale(j + 3);
                            ASSERT_EQ(c[i * ldc + j], want * scale)
                                << table->name << " i=" << i << " j=" << j;
                            ASSERT_NE(c[i * ldc + j], unfused * scale);
                        }
                }
            }
        }
    }
}

TEST(SimdKernelTest, DotRowsFusesEachTerm)
{
    // out[i] is the pinning chain scaled by its row's power of two,
    // over depths that straddle the 8-k blocks and row counts that
    // straddle the 8-lane groups and their pairs, with unsorted and
    // repeated indices.
    Rng rng(15);
    const Index ds[] = {2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 512};
    const Index ns[] = {1, 7, 8, 9, 15, 16, 17, 33};
    constexpr Index kRows = 12;
    for (Index d : ds) {
        const auto [x, y] = fusionPinningFactors(d, rng);
        const float want = fusedChain(x, y);
        const float unfused = unfusedChain(x, y);
        const Index ldb = d + 5;
        std::vector<float> b(kRows * ldb, gapPoison());
        for (Index r = 0; r < kRows; ++r)
            for (Index k = 0; k < d; ++k)
                b[r * ldb + k] = y[k] * pinScale(r);
        for (Index n : ns) {
            SCOPED_TRACE(::testing::Message() << "d=" << d << " n=" << n);
            std::vector<Index> idx(n);
            for (Index i = 0; i < n; ++i)
                idx[i] = (7 * i + 3) % kRows;
            std::vector<const SimdKernels *> tables = vectorTables();
            tables.push_back(&simd::scalarTable());
            for (const SimdKernels *table : tables) {
                std::vector<float> out(n, gapPoison());
                table->dotRowsF32(x.data(), b.data(), ldb, idx.data(), n, d,
                                  out.data());
                for (Index i = 0; i < n; ++i) {
                    ASSERT_EQ(out[i], want * pinScale(idx[i]))
                        << table->name << " i=" << i;
                    ASSERT_NE(out[i], unfused * pinScale(idx[i]));
                }
            }
        }
    }
}

// ----------------------------------------------------- integer GEMM

/** Runs a table's gemmInt12 on a x b (row-major, contiguous). */
std::vector<i64>
runGemmInt12(const SimdKernels &table, const std::vector<i32> &a,
             const std::vector<i32> &b, Index m, Index k, Index n)
{
    // Poison C: the kernel must overwrite, not accumulate.
    std::vector<i64> c(m * n, i64{0x5a5a5a5a5a});
    table.gemmInt12(a.data(), k, b.data(), n, c.data(), n, m, k, n);
    return c;
}

TEST(SimdKernelTest, GemmInt12RaggedShapesMatchScalar)
{
    // Shapes straddle every tile edge (4- and 8-row tiles, 8- and
    // 16-lane vectors, 16- and 32-column panels, the i16 pair and its
    // odd-k half pair, 255-pair flush blocks), including empty and
    // single-element ones; values span the whole operand range,
    // extremes included.
    Rng rng(15);
    const Index ms[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17};
    const Index ks[] = {0, 1, 2, 3, 7, 64, 509, 510, 511, 512, 513};
    const Index ns[] = {0,  1,  5,  8,  15, 16, 17, 31,
                        32, 33, 63, 64, 65, 100, 196};
    for (Index m : ms) {
        for (Index k : ks) {
            for (Index n : ns) {
                std::vector<i32> a(m * k), b(k * n);
                for (i32 &v : a)
                    v = static_cast<i32>(rng.uniformInt(4097)) - 2048;
                for (i32 &v : b)
                    v = static_cast<i32>(rng.uniformInt(4097)) - 2048;
                const std::vector<i64> want =
                    runGemmInt12(simd::scalarTable(), a, b, m, k, n);
                // The reference itself against the plain triple loop.
                for (Index i = 0; i < m; ++i)
                    for (Index j = 0; j < n; ++j) {
                        i64 sum = 0;
                        for (Index kk = 0; kk < k; ++kk)
                            sum += static_cast<i64>(a[i * k + kk])
                                * b[kk * n + j];
                        ASSERT_EQ(want[i * n + j], sum)
                            << "m=" << m << " k=" << k << " n=" << n;
                    }
                for (const SimdKernels *table : vectorTables())
                    ASSERT_EQ(want, runGemmInt12(*table, a, b, m, k, n))
                        << table->name << " m=" << m << " k=" << k
                        << " n=" << n;
            }
        }
    }
}

TEST(SimdKernelTest, GemmInt12FlushesBeforeI32Overflow)
{
    // A pair adds two products of magnitude up to 2048^2 = 2^22, so 256
    // pairs of positive products reach 2^31 and wrap an i32 lane that
    // is not flushed in time. k = 510 is 255 pairs, the most one flush
    // block may hold; 509 and 511 end on a half pair; 512 is 256 pairs
    // (two blocks); 1021 and 1024 run four. Products all positive
    // (a = b = -2048), all negative, and of mixed signs; a full panel
    // and a ragged one; 9 rows, one past an 8-row tile.
    const Index m = 9;
    for (const Index k : {Index{509}, Index{510}, Index{511}, Index{512},
                          Index{1021}, Index{1024}}) {
        for (const Index n : {Index{64}, Index{37}}) {
            for (const int signs : {0, 1, 2}) {
                SCOPED_TRACE(::testing::Message() << "k=" << k << " n=" << n
                                                  << " signs=" << signs);
                std::vector<i32> a(m * k, signs == 1 ? 2048 : -2048),
                    b(k * n, -2048);
                if (signs == 2)
                    for (Index i = 0; i < a.size(); i += 3)
                        a[i] = 2048;
                const std::vector<i64> want =
                    runGemmInt12(simd::scalarTable(), a, b, m, k, n);
                const i64 all = static_cast<i64>(k) * 2048 * 2048;
                if (signs != 2) {
                    ASSERT_EQ(want[0], signs == 0 ? all : -all);
                }
                for (const SimdKernels *table : vectorTables())
                    EXPECT_EQ(want, runGemmInt12(*table, a, b, m, k, n))
                        << table->name;
            }
        }
    }
}

// ------------------------------------------- quantise and dequantise

/** The widths' q_max: Int12, Int16 and Int32. */
const i32 kQMaxes[] = {2047, 32767, 2147483647};

/**
 * n floats for quantizeF32 at `scale`: NaN, +-inf, values far past
 * +-q_max * scale, +-0, denormals, half-way quotients (k + 0.5 times
 * the scale, k of either sign; exact when the scale has few mantissa
 * bits, as 0.5, 1.0, 3.0 and 0.75 do), the range's edges and ordinary
 * values, shuffled by rng.
 */
std::vector<float>
quantizeInputs(Index n, double scale, i32 q_max, Rng &rng)
{
    const float top = static_cast<float>(scale * q_max);
    const float pool[] = {
        kNan,
        kInf,
        -kInf,
        0.0f,
        -0.0f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::min() / 4.0f,
        std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(),
        top,
        -top,
        top * 1e6f,
        -top * 1e6f,
        static_cast<float>(2.5 * scale),
        static_cast<float>(-2.5 * scale),
        static_cast<float>(3.5 * scale),
        static_cast<float>(-0.5 * scale),
        static_cast<float>(0.5 * scale),
        static_cast<float>(1023.5 * scale),
    };
    constexpr Index kPool = sizeof(pool) / sizeof(pool[0]);
    std::vector<float> v(n);
    for (Index i = 0; i < n; ++i) {
        const double u = rng.uniform();
        const double k = static_cast<double>(rng.uniformInt(4096)) - 2048.0;
        v[i] = u < 0.4   ? pool[rng.uniformInt(kPool)]
            : u < 0.7    ? static_cast<float>((k + 0.5) * scale)
                         : static_cast<float>((rng.uniform() * 2.0 - 1.0)
                                              * 1.2 * top);
    }
    return v;
}

TEST(SimdKernelTest, QuantizeF32MatchesScalar)
{
    // Every length from 0 to 33 runs each masked or scalar tail. The
    // scales are an all-zero block's 1.0, 0.5, 3.0 and 0.75 (whose
    // half-way quotients are exact, and whose reciprocals are not
    // for the last two, so a multiply by 1 / scale rounds some of them
    // the other way), typical max-|v| / q_max scales, and extremes
    // that clamp everything or quantise everything to zero; each
    // width's q_max; no LOD, single and two-step.
    Rng rng(21);
    const std::optional<LodMode> lods[] = {std::nullopt, LodMode::Single,
                                           LodMode::TwoStep};
    for (const i32 q_max : kQMaxes) {
        for (const double scale : {1.0, 0.5, 3.0, 0.75, 3.7 / 2047.0,
                                   1.0 / 3.0, 1e-30, 1e30, 7.25e-3}) {
            for (const std::optional<LodMode> lod : lods) {
                for (Index n = 0; n <= 33; ++n) {
                    SCOPED_TRACE(::testing::Message()
                                 << "q_max=" << q_max << " scale="
                                 << scale << " lod="
                                 << (lod ? static_cast<int>(*lod) : -1)
                                 << " n=" << n);
                    const std::vector<float> x =
                        quantizeInputs(n, scale, q_max, rng);
                    // The scalar entry against quantizeToRange and
                    // lodImage per element.
                    std::vector<i32> want(n + 16, 0x5a5a5a5a);
                    simd::quantizeF32Scalar(x.data(), n, scale, q_max, lod,
                                            want.data());
                    for (Index i = 0; i < n; ++i) {
                        i32 code = quantizeToRange(x[i], scale, q_max);
                        if (lod)
                            code = lodImage(code, *lod);
                        ASSERT_EQ(want[i], code) << "x=" << x[i];
                    }
                    for (const SimdKernels *table : vectorTables()) {
                        std::vector<i32> got(n + 16, 0x5a5a5a5a);
                        table->quantizeF32(x.data(), n, scale, q_max, lod,
                                           got.data());
                        ASSERT_EQ(want, got) << table->name;
                    }
                }
            }
        }
    }
}

TEST(SimdKernelTest, DequantizeI64MatchesScalar)
{
    // Sums of 0, +-2^31, +-(2^53 + 1) (the first i64 a double cannot
    // hold), +-2^62 and the i64 extremes among random ones; scales
    // that keep floats normal, push them to denormals or zero, or
    // overflow them to inf. Every length from 0 to 33; the 16 slots
    // past n must stay as they were.
    Rng rng(22);
    const i64 p53 = i64{1} << 53;
    const i64 pool[] = {0,
                        i64{1} << 31,
                        -(i64{1} << 31),
                        p53 + 1,
                        -(p53 + 1),
                        i64{1} << 62,
                        -(i64{1} << 62),
                        std::numeric_limits<i64>::max(),
                        std::numeric_limits<i64>::min(),
                        1,
                        -1};
    constexpr Index kPool = sizeof(pool) / sizeof(pool[0]);
    const float poison = gapPoison();
    for (const double scale : {1.0, 3.3e-7, 1.0 / 3.0, 1e-45, 1e-60,
                               1e300, 0.0, -2.5e-4}) {
        for (Index n = 0; n <= 33; ++n) {
            SCOPED_TRACE(::testing::Message() << "scale=" << scale
                                              << " n=" << n);
            std::vector<i64> s(n);
            for (i64 &v : s)
                v = rng.uniform() < 0.5
                    ? pool[rng.uniformInt(kPool)]
                    : static_cast<i64>(rng.next() >> (1 + rng.uniformInt(63)))
                        * (rng.uniform() < 0.5 ? 1 : -1);
            std::vector<float> want(n + 16, poison);
            simd::dequantizeI64Scalar(s.data(), n, scale, want.data());
            for (Index i = 0; i < n; ++i)
                ASSERT_EQ(std::bit_cast<u32>(want[i]),
                          std::bit_cast<u32>(static_cast<float>(s[i] * scale)))
                    << "s=" << s[i];
            ASSERT_TRUE(poisonedFrom(want, n));
            for (const SimdKernels *table : vectorTables()) {
                std::vector<float> got(n + 16, poison);
                table->dequantizeI64(s.data(), n, scale, got.data());
                ASSERT_TRUE(poisonedFrom(got, n)) << table->name;
                for (Index i = 0; i < n; ++i)
                    ASSERT_EQ(std::bit_cast<u32>(want[i]),
                              std::bit_cast<u32>(got[i]))
                        << table->name << " s=" << s[i];
            }
        }
    }
}

// -------------------------------------------------------- mask kernels

TEST(SimdKernelTest, AbsGreaterMaskMatchesScalar)
{
    Rng rng(16);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n = 1; n <= 64; ++n) {
            std::vector<float> x = adversarialFloats(n, rng);
            // Plant exact-theta values: |x| > theta must be strict.
            const float theta = 0.75f;
            if (n > 2) {
                x[0] = theta;
                x[1] = -theta;
            }
            u64 want = 0;
            for (Index i = 0; i < n; ++i)
                if (std::abs(x[i]) > theta)
                    want |= u64{1} << i;
            EXPECT_EQ(want,
                      simd::absGreaterMask64Scalar(x.data(), theta, n))
                << "n=" << n;
            EXPECT_EQ(want, table->absGreaterMask64(x.data(), theta, n))
                << table->name << " n=" << n;
        }
    }
}

TEST(SimdKernelTest, CmpGeMaskMatchesScalar)
{
    Rng rng(17);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n = 1; n <= 64; ++n) {
            std::vector<float> x = adversarialFloats(n, rng);
            const float threshold = -0.25f;
            if (n > 2) {
                x[0] = threshold; // ties keep (>=)
                x[1] = kNan;      // ordered compare: NaN drops
            }
            u64 want = 0;
            for (Index i = 0; i < n; ++i)
                if (x[i] >= threshold)
                    want |= u64{1} << i;
            EXPECT_EQ(want,
                      simd::cmpGeMask64Scalar(x.data(), threshold, n))
                << "n=" << n;
            EXPECT_EQ(want, table->cmpGeMask64(x.data(), threshold, n))
                << table->name << " n=" << n;
        }
    }
}

TEST(SimdKernelTest, MaskKernelsIgnoreBitsPastN)
{
    // A payload past the tail that would match must not leak into
    // the result word, whatever the table (the scalar entries pack
    // one flag byte per entry).
    std::vector<float> x(64, 1000.0f);
    std::vector<const SimdKernels *> all = vectorTables();
    all.push_back(&simd::scalarTable());
    for (const SimdKernels *table : all) {
        for (Index n : {Index{1}, Index{7}, Index{31}, Index{63}}) {
            const u64 want = n >= 64 ? ~u64{0} : (u64{1} << n) - 1;
            EXPECT_EQ(want, table->absGreaterMask64(x.data(), 0.5f, n))
                << table->name << " n=" << n;
            EXPECT_EQ(want, table->cmpGeMask64(x.data(), 0.5f, n))
                << table->name << " n=" << n;
        }
    }
}

// -------------------------------------------------------- word kernels

TEST(SimdKernelTest, WordKernelsMatchScalar)
{
    Rng rng(18);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : {Index{0}, Index{1}, Index{2}, Index{3},
                        Index{7}, Index{8}, Index{9}, Index{33}}) {
            std::vector<u64> a(n);
            for (Index i = 0; i < n; ++i)
                a[i] = rng.next();
            if (n > 1) {
                a[0] = 0;
                a[n - 1] = ~u64{0};
            }
            EXPECT_EQ(simd::popcountWordsScalar(a.data(), n),
                      table->popcountWords(a.data(), n))
                << table->name << " n=" << n;
        }
    }
}

// ------------------------------------------------- bitmask word-level

/** Shapes whose rows land before/on/after every word boundary. */
const Index kRaggedCols[] = {63, 64, 65};

TEST(BitmaskWordApiTest, WordsSpanAndPaddingInvariant)
{
    Rng rng(19);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(3, cols);
        EXPECT_EQ(m.wordCount(), (3 * cols + 63) / 64);
        EXPECT_EQ(m.words().size(), m.wordCount());
        for (Index r = 0; r < 3; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.5);
        // Bits past rows*cols in the final word stay zero, so
        // word-level consumers never see garbage.
        const Index used = 3 * cols;
        if (used % 64 != 0) {
            const u64 tail = m.words()[m.wordCount() - 1];
            EXPECT_EQ(tail >> (used % 64), 0u) << "cols=" << cols;
        }
    }
}

TEST(BitmaskWordApiTest, CountOnesRaggedTails)
{
    Rng rng(20);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(5, cols);
        u64 want = 0;
        for (Index r = 0; r < 5; ++r)
            for (Index c = 0; c < cols; ++c) {
                const bool v = rng.uniform() < 0.4;
                m.set(r, c, v);
                want += v;
            }
        EXPECT_EQ(m.countOnes(), want) << "cols=" << cols;
        for (Index r = 0; r < 5; ++r) {
            u64 row_want = 0;
            for (Index c = 0; c < cols; ++c)
                row_want += m.get(r, c);
            EXPECT_EQ(m.rowOnes(r), row_want)
                << "cols=" << cols << " r=" << r;
        }
    }
}

TEST(BitmaskWordApiTest, NonEmptyColumnCount)
{
    Rng rng(28);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(5, cols);
        for (Index r = 0; r < 5; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.1);
        Index want = 0;
        for (Index c = 0; c < cols; ++c)
            want += m.columnEmpty(c) ? 0 : 1;
        EXPECT_EQ(m.nonEmptyColumnCount(), want) << "cols=" << cols;
        EXPECT_EQ(Bitmask2D(5, cols).nonEmptyColumnCount(), 0u);
    }
}

TEST(BitmaskWordApiTest, ForEachSetBitEmptyAndFull)
{
    for (Index cols : kRaggedCols) {
        Bitmask2D empty(2, cols);
        empty.forEachSetBit(
            [&](Index, Index) { FAIL() << "empty mask fired"; });

        Bitmask2D full(2, cols);
        for (Index r = 0; r < 2; ++r)
            for (Index c = 0; c < cols; ++c)
                full.set(r, c, true);
        Index count = 0;
        Index prev_bit = 0;
        full.forEachSetBit([&](Index r, Index c) {
            const Index bit = r * cols + c;
            EXPECT_TRUE(count == 0 || bit > prev_bit); // row-major
            prev_bit = bit;
            ++count;
        });
        EXPECT_EQ(count, 2 * cols) << "cols=" << cols;
    }
}

TEST(BitmaskWordApiTest, ForEachSetBitMatchesGet)
{
    Rng rng(22);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(5, cols);
        for (Index r = 0; r < 5; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.3);
        Bitmask2D rebuilt(5, cols);
        m.forEachSetBit([&](Index r, Index c) {
            ASSERT_LT(r, m.rows());
            ASSERT_LT(c, m.cols());
            EXPECT_FALSE(rebuilt.get(r, c)); // no duplicates
            rebuilt.set(r, c, true);
        });
        EXPECT_EQ(m, rebuilt) << "cols=" << cols;
    }
}

TEST(BitmaskWordApiTest, ForEachSetBitInRowRaggedRows)
{
    Rng rng(23);
    // 63/65-column rows start mid-word from row 1 on; every row of
    // each shape must see exactly its own bits, ascending.
    for (Index cols : kRaggedCols) {
        Bitmask2D m(5, cols);
        for (Index r = 0; r < 5; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.35);
        for (Index r = 0; r < 5; ++r) {
            std::vector<Index> want;
            for (Index c = 0; c < cols; ++c)
                if (m.get(r, c))
                    want.push_back(c);
            std::vector<Index> got;
            m.forEachSetBitInRow(r, [&](Index c) { got.push_back(c); });
            EXPECT_EQ(want, got) << "cols=" << cols << " r=" << r;
        }
    }
}

TEST(BitmaskWordApiTest, WriteRowBitsStraddlesWords)
{
    for (Index cols : kRaggedCols) {
        for (Index r = 0; r < 3; ++r) {
            for (Index c0 : {Index{0}, Index{1}, Index{60}}) {
                for (Index nb : {Index{1}, Index{5}, Index{3}}) {
                    if (c0 + nb > cols)
                        continue;
                    Bitmask2D m(3, cols);
                    // Pre-set neighbours to catch clobbering.
                    if (c0 > 0)
                        m.set(r, c0 - 1, true);
                    if (c0 + nb < cols)
                        m.set(r, c0 + nb, true);
                    const u64 bits = 0b10110101;
                    m.writeRowBits(r, c0, bits, nb);
                    for (Index c = 0; c < cols; ++c) {
                        bool want;
                        if (c >= c0 && c < c0 + nb)
                            want = (bits >> (c - c0)) & 1;
                        else
                            want = (c + 1 == c0)
                                || (c == c0 + nb && c < cols);
                        EXPECT_EQ(m.get(r, c), want)
                            << "cols=" << cols << " r=" << r
                            << " c0=" << c0 << " nb=" << nb
                            << " c=" << c;
                    }
                }
            }
        }
    }
}

TEST(BitmaskWordApiTest, WriteRowBitsOverwrites)
{
    // writeRowBits overwrites the range: previously-set bits inside
    // it whose new value is 0 must clear.
    Bitmask2D m(2, 65);
    for (Index c = 0; c < 65; ++c)
        m.set(1, c, true);
    m.writeRowBits(1, 60, 0, 5);
    for (Index c = 0; c < 65; ++c)
        EXPECT_EQ(m.get(1, c), c < 60) << "c=" << c;
}

TEST(BitmaskWordApiTest, FullWidthWriteRowBits)
{
    Bitmask2D m(2, 64);
    m.writeRowBits(0, 0, ~u64{0}, 64);
    EXPECT_EQ(m.rowOnes(0), 64u);
    EXPECT_EQ(m.rowOnes(1), 0u);
    m.writeRowBits(0, 0, 0, 64);
    EXPECT_EQ(m.countOnes(), 0u);
}

} // namespace
} // namespace exion
