/**
 * @file
 * Unit tests for exion/common: RNG, bit ops, fixed point, stats, table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "exion/common/bitops.h"
#include "exion/common/fixed_point.h"
#include "exion/common/rng.h"
#include "exion/common/stats.h"
#include "exion/common/table.h"

namespace exion
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(9);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i) {
        const u64 v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.normal());
    EXPECT_NEAR(stats.mean(), 0.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(BitOps, LeadingOneBasics)
{
    EXPECT_EQ(leadingOne(0), kNoLeadingOne);
    EXPECT_EQ(leadingOne(1), 0);
    EXPECT_EQ(leadingOne(2), 1);
    EXPECT_EQ(leadingOne(3), 1);
    EXPECT_EQ(leadingOne(5), 2);
    EXPECT_EQ(leadingOne(0x80000000u), 31);
}

TEST(BitOps, TwoStepLeadingOne)
{
    // Fig. 15: 3 = 0b0011 -> bits 1 and 0; 5 = 0b0101 -> bits 2 and 0.
    EXPECT_EQ(twoStepLeadingOne(3), (TsLod{1, 0}));
    EXPECT_EQ(twoStepLeadingOne(5), (TsLod{2, 0}));
    EXPECT_EQ(twoStepLeadingOne(4), (TsLod{2, kNoLeadingOne}));
    EXPECT_EQ(twoStepLeadingOne(0), (TsLod{kNoLeadingOne,
                                           kNoLeadingOne}));
    EXPECT_EQ(twoStepLeadingOne(0b1101u), (TsLod{3, 2}));
}

TEST(BitOps, LodValueNeverExceeds)
{
    Rng rng(17);
    for (int i = 0; i < 2000; ++i) {
        const u32 v = static_cast<u32>(rng.uniformInt(1u << 20)) + 1;
        EXPECT_LE(lodValue(v), v);
        EXPECT_LE(tsLodValue(v), v);
        EXPECT_GE(tsLodValue(v), lodValue(v));
        // LOD captures at least half the magnitude; TS-LOD at least
        // three quarters of what remains representable.
        EXPECT_GT(2 * lodValue(v) + 1, v);
    }
}

TEST(BitOps, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 16), 0u);
    EXPECT_EQ(ceilDiv(1, 16), 1u);
    EXPECT_EQ(ceilDiv(16, 16), 1u);
    EXPECT_EQ(ceilDiv(17, 16), 2u);
}

TEST(BitOps, ZeroInputEdgeCases)
{
    // Zero is a valid input everywhere: the LOD helpers return the
    // sentinel / zero rather than shifting by a negative amount.
    EXPECT_EQ(leadingOne(0), kNoLeadingOne);
    EXPECT_EQ(twoStepLeadingOne(0),
              (TsLod{kNoLeadingOne, kNoLeadingOne}));
    EXPECT_EQ(lodValue(0), 0u);
    EXPECT_EQ(tsLodValue(0), 0u);
    EXPECT_EQ(popcount64(0), 0);
    EXPECT_EQ(ceilDiv(0, 1), 0u);
}

TEST(BitOps, MaxValueEdgeCases)
{
    constexpr u32 kMax32 = 0xffffffffu;
    EXPECT_EQ(leadingOne(kMax32), 31);
    EXPECT_EQ(twoStepLeadingOne(kMax32), (TsLod{31, 30}));
    EXPECT_EQ(lodValue(kMax32), u32{1} << 31);
    EXPECT_EQ(tsLodValue(kMax32), (u32{1} << 31) | (u32{1} << 30));
    EXPECT_EQ(popcount64(~u64{0}), 64);
    // No overflow at the top of the range when den == 1.
    EXPECT_EQ(ceilDiv(~u64{0}, 1), ~u64{0});
}

TEST(BitOps, CeilDivZeroDenominatorPanics)
{
#if !EXION_ASSERTS_ENABLED
    GTEST_SKIP() << "EXION_ASSERT compiled out (EXION_ASSERTIONS=OFF)";
#endif
    EXPECT_DEATH(ceilDiv(5, 0), "ceilDiv by zero");
}

TEST(FixedPoint, WidthProperties)
{
    EXPECT_EQ(intWidthBits(IntWidth::Int12), 12);
    EXPECT_EQ(intWidthMax(IntWidth::Int12), 2047);
    EXPECT_EQ(intWidthMax(IntWidth::Int16), 32767);
}

TEST(FixedPoint, RoundTripWithinHalfStep)
{
    Rng rng(19);
    std::vector<float> data(512);
    for (auto &v : data)
        v = static_cast<float>(rng.normal(0.0, 2.0));
    const QuantParams params = chooseQuantParams(data, IntWidth::Int12);
    for (float v : data) {
        const float rt = quantizeDequantize(v, params);
        EXPECT_NEAR(rt, v, params.scale * 0.5 + 1e-7);
    }
}

TEST(FixedPoint, SaturatesAtRange)
{
    std::vector<float> data = {1.0f};
    const QuantParams params = chooseQuantParams(data, IntWidth::Int12);
    EXPECT_EQ(quantize(100.0f, params), 2047);
    EXPECT_EQ(quantize(-100.0f, params), -2048);
}

TEST(FixedPoint, ZeroDataGetsUnitScale)
{
    const QuantParams params = chooseQuantParams({}, IntWidth::Int12);
    EXPECT_DOUBLE_EQ(params.scale, 1.0);
}

TEST(FixedPoint, SaturatingAdd)
{
    EXPECT_EQ(saturatingAdd(2000, 100, 12), 2047);
    EXPECT_EQ(saturatingAdd(-2000, -100, 12), -2048);
    EXPECT_EQ(saturatingAdd(5, 7, 12), 12);
}

TEST(Stats, RunningStatsBasics)
{
    RunningStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable table({"model", "value"});
    table.setTitle("demo");
    table.addRow({"MLD", "1.0"});
    table.addRow({"StableDiffusion", "2.5"});
    table.addNote("a note");
    const std::string out = table.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("StableDiffusion"), std::string::npos);
    EXPECT_NE(out.find("a note"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
    EXPECT_EQ(formatRatio(379.34, 1), "379.3x");
    EXPECT_EQ(formatPercent(0.138, 1), "13.8%");
}

} // namespace
} // namespace exion
