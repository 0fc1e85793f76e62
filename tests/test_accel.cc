/**
 * @file
 * Tests for the accelerator layer: configs, the functional ConMerge
 * execution path, the sampled estimator, and the performance model.
 */

#include <gtest/gtest.h>

#include <limits>

#include "exion/accel/exion_config.h"
#include "exion/accel/functional_device.h"
#include "exion/accel/perf_model.h"
#include "exion/accel/sparsity_profile.h"
#include "exion/common/rng.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

TEST(Config, PresetsMatchTableII)
{
    EXPECT_NEAR(exion4().peakTops(), 39.2, 0.5);
    EXPECT_NEAR(exion24().peakTops(), 235.2, 2.0);
    EXPECT_EQ(exion4().numDscs, 4);
    EXPECT_EQ(exion24().numDscs, 24);
    EXPECT_DOUBLE_EQ(exion4().dramBandwidthGbs, 51.0);
    EXPECT_DOUBLE_EQ(exion24().dramBandwidthGbs, 819.0);
}

TEST(Config, AblationFlags)
{
    EXPECT_FALSE(ablationUsesEp(Ablation::Base));
    EXPECT_TRUE(ablationUsesEp(Ablation::Ep));
    EXPECT_TRUE(ablationUsesFfnReuse(Ablation::Ffnr));
    EXPECT_TRUE(ablationUsesEp(Ablation::All));
    EXPECT_TRUE(ablationUsesFfnReuse(Ablation::All));
    EXPECT_EQ(ablationName(Ablation::All), "All");
}

TEST(FunctionalDevice, SparseMatmulMatchesReferenceEverywhere)
{
    Rng rng(5);
    const Index m = 40, k = 32, n = 64;
    Matrix input(m, k), weight(k, n);
    input.fillNormal(rng, 0.0f, 1.0f);
    weight.fillNormal(rng, 0.0f, 1.0f);
    Bitmask2D mask(m, n);
    for (Index r = 0; r < m; ++r)
        for (Index c = 0; c < n; ++c)
            if (rng.bernoulli(0.12))
                mask.set(r, c, true);

    const SparseMatmulResult result =
        sparseMatmulViaConMerge(input, weight, mask);
    const Matrix reference = matmul(input, weight);
    for (Index r = 0; r < m; ++r)
        for (Index c = 0; c < n; ++c) {
            if (mask.get(r, c))
                EXPECT_NEAR(result.output(r, c), reference(r, c), 1e-3);
            else
                EXPECT_FLOAT_EQ(result.output(r, c), 0.0f);
        }
    EXPECT_GT(result.conStats.tiles, 0u);
    EXPECT_LT(result.conStats.mergedRemainingFraction(), 1.0);
}

/** Property sweep: ConMerge + SDUE equals reference at any density. */
class FunctionalDensitySweep : public ::testing::TestWithParam<double>
{
};

TEST_P(FunctionalDensitySweep, AlwaysExact)
{
    Rng rng(static_cast<u64>(GetParam() * 1000));
    const Index m = 24, k = 16, n = 40;
    Matrix input(m, k), weight(k, n);
    input.fillNormal(rng, 0.0f, 1.0f);
    weight.fillNormal(rng, 0.0f, 1.0f);
    Bitmask2D mask(m, n);
    for (Index r = 0; r < m; ++r)
        for (Index c = 0; c < n; ++c)
            if (rng.bernoulli(GetParam()))
                mask.set(r, c, true);
    const SparseMatmulResult result =
        sparseMatmulViaConMerge(input, weight, mask);
    const Matrix reference = matmul(input, weight);
    for (Index r = 0; r < m; ++r) {
        for (Index c = 0; c < n; ++c) {
            if (mask.get(r, c)) {
                ASSERT_NEAR(result.output(r, c), reference(r, c),
                            1e-3);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Densities, FunctionalDensitySweep,
                         ::testing::Values(0.01, 0.05, 0.15, 0.35, 0.6,
                                           0.9, 1.0));

TEST(Estimator, SdFfnCompactsBelowTenPercent)
{
    // The Fig. 9 anchor: SD's FFN output merges from 77.4% remaining
    // columns to single digits.
    const ConMergeSummary summary = estimateFfnConMerge(
        4096, 1280, ffnMaskParams(Benchmark::StableDiffusion), 8, 99);
    EXPECT_NEAR(summary.condenseRemainingFraction, 0.774, 0.03);
    EXPECT_LT(summary.mergedRemainingFraction, 0.12);
    EXPECT_GT(summary.mergedRemainingFraction, 0.02);
    EXPECT_GT(summary.tileOccupancy, 0.05);
}

TEST(Estimator, MldCondensesStrongly)
{
    const ConMergeSummary summary = estimateFfnConMerge(
        8, 1024, ffnMaskParams(Benchmark::MLD), 8, 99);
    EXPECT_NEAR(summary.condenseRemainingFraction, 0.138, 0.05);
}

TEST(Estimator, ScoreMaskSummarySane)
{
    const ConMergeSummary summary = estimateScoreConMerge(
        256, 256, scoreMaskParams(Benchmark::DiT), 6, 7);
    EXPECT_GT(summary.mergedRemainingFraction, 0.0);
    EXPECT_LT(summary.mergedRemainingFraction, 0.6);
}

TEST(PerfModel, AblationLatencyOrdering)
{
    // DiT (large, transformer-only) separates every ablation point.
    const ModelConfig model = makeConfig(Benchmark::DiT, Scale::Full);
    const SparsityProfile prof = profileFor(Benchmark::DiT);
    auto latency = [&](Ablation a) {
        ExionPerfModel pm(exion24(), a);
        return pm.run(model, prof).latencySeconds;
    };
    const double all = latency(Ablation::All);
    const double ep = latency(Ablation::Ep);
    const double ffnr = latency(Ablation::Ffnr);
    const double base = latency(Ablation::Base);
    EXPECT_LT(all, ep);
    EXPECT_LT(all, ffnr);
    EXPECT_LT(ep, base);
    EXPECT_LT(ffnr, base);
}

TEST(PerfModel, TinyModelLatencyNeverDegrades)
{
    // Sub-tile matrices (MLD) may not gain latency from EP, but the
    // optimisations must never cost latency.
    const ModelConfig model = makeConfig(Benchmark::MLD, Scale::Full);
    const SparsityProfile prof = profileFor(Benchmark::MLD);
    auto latency = [&](Ablation a) {
        ExionPerfModel pm(exion4(), a);
        return pm.run(model, prof).latencySeconds;
    };
    EXPECT_LE(latency(Ablation::All), latency(Ablation::Base));
    EXPECT_LE(latency(Ablation::Ep), latency(Ablation::Base));
    EXPECT_LE(latency(Ablation::Ffnr), latency(Ablation::Base));
}

TEST(PerfModel, AblationEnergyOrdering)
{
    const ModelConfig model = makeConfig(Benchmark::DiT, Scale::Full);
    const SparsityProfile prof = profileFor(Benchmark::DiT);
    ExionPerfModel all(exion24(), Ablation::All);
    ExionPerfModel base(exion24(), Ablation::Base);
    const RunStats s_all = all.run(model, prof);
    const RunStats s_base = base.run(model, prof);
    EXPECT_LT(s_all.energy, s_base.energy);
    EXPECT_GT(s_all.topsPerWatt(), s_base.topsPerWatt());
    EXPECT_EQ(s_all.denseOps, s_base.denseOps);
    EXPECT_LT(s_all.executedOps, s_base.executedOps);
}

TEST(PerfModel, PowerStaysBelowPhysicalBounds)
{
    const ModelConfig model = makeConfig(Benchmark::DiT, Scale::Full);
    ExionPerfModel pm(exion24(), Ablation::All);
    const RunStats stats = pm.run(model, profileFor(Benchmark::DiT));
    // On-chip power cannot exceed 24 fully-active DSCs (Table III).
    const double onchip_w =
        (stats.energy - stats.dramEnergy) * 1e-12
        / stats.latencySeconds;
    EXPECT_LT(onchip_w, 24 * 1.52);
    // DRAM power cannot exceed full-bandwidth streaming.
    const double dram_w = stats.dramEnergy * 1e-12
        / stats.latencySeconds;
    EXPECT_LT(dram_w, 819.0 * 8.0 * 6.0 * 1e-3 + 1.0);
    EXPECT_GT(stats.avgPowerW(), 0.5);
}

TEST(PerfModel, BiggerDeviceIsFaster)
{
    const ModelConfig model = makeConfig(Benchmark::DiT, Scale::Full);
    const SparsityProfile prof = profileFor(Benchmark::DiT);
    ExionPerfModel small(exion4(), Ablation::All);
    ExionPerfModel large(exion24(), Ablation::All);
    EXPECT_GT(small.run(model, prof).latencySeconds,
              large.run(model, prof).latencySeconds);
}

TEST(PerfModel, BatchEightCostsMoreThanBatchOne)
{
    const ModelConfig model = makeConfig(Benchmark::MDM, Scale::Full);
    const SparsityProfile prof = profileFor(Benchmark::MDM);
    ExionPerfModel pm(exion4(), Ablation::All);
    const RunStats b1 = pm.run(model, prof, 1);
    const RunStats b8 = pm.run(model, prof, 8);
    EXPECT_GT(b8.latencySeconds, b1.latencySeconds);
    // But batching amortises: not 8x slower per sample.
    EXPECT_LT(b8.latencySeconds, 8.0 * b1.latencySeconds);
}

TEST(PerfModel, LatencyFallsWithDramBandwidthUntilComputeBound)
{
    // Each block costs max(compute, dma) cycles: while DRAM streaming
    // dominates, more bandwidth cuts latency; once every block is
    // compute bound, more bandwidth changes nothing. A sum in place of
    // the max would keep shaving the DMA term past that point.
    const ModelConfig model = makeConfig(Benchmark::MLD, Scale::Full);
    const SparsityProfile prof = profileFor(Benchmark::MLD);
    auto latency = [&](double bandwidth_gbs) {
        ExionConfig cfg = exion4();
        cfg.dramBandwidthGbs = bandwidth_gbs;
        ExionPerfModel pm(cfg, Ablation::All);
        return pm.run(model, prof, 1).latencySeconds;
    };
    const double l0 = latency(0.51);
    const double l1 = latency(5.1);
    const double l2 = latency(51.0);
    const double l3 = latency(510.0);
    const double l4 = latency(5100.0);
    const double l5 = latency(51000.0);
    EXPECT_GT(l0, l1);
    EXPECT_GT(l1, l2);
    EXPECT_GT(l2, l3);
    EXPECT_GT(l3, l4);
    EXPECT_DOUBLE_EQ(l4, l5);
}

TEST(PerfModel, SparsityMultipliesDenseEquivalentEfficiency)
{
    // Skipped work shows up as dense-equivalent TOPS/W beyond what
    // the Base configuration reaches (the Fig. 18 mechanism).
    const ModelConfig model = makeConfig(Benchmark::MDM, Scale::Full);
    const SparsityProfile prof = profileFor(Benchmark::MDM);
    ExionPerfModel all(exion4(), Ablation::All);
    ExionPerfModel base(exion4(), Ablation::Base);
    const RunStats s_all = all.run(model, prof);
    const RunStats s_base = base.run(model, prof);
    // Fig. 18's own MDM ablation gain is ~1.33x (687x vs 515x over
    // the edge GPU); weight streaming bounds the benefit at batch 1.
    EXPECT_GT(s_all.topsPerWatt(), 1.3 * s_base.topsPerWatt());
    EXPECT_GT(s_all.effectiveTops(), 1.2 * s_base.effectiveTops());
}

TEST(PerfModel, DenseIntervalAtIntMaxRunsOneDenseIteration)
{
    // denseInterval + 1 overflowed an int here. At INT_MAX the period
    // outlasts any run, so iteration 0 alone is dense: the same run as
    // an interval of iterations - 1, and cheaper than iterations - 2,
    // which also runs the last iteration dense.
    ModelConfig model = makeConfig(Benchmark::MDM, Scale::Full);
    const SparsityProfile prof = profileFor(Benchmark::MDM);
    ExionPerfModel pm(exion4(), Ablation::All);
    const auto executed = [&](int interval) {
        model.ffnReuse.denseInterval = interval;
        return pm.run(model, prof).executedOps;
    };
    const int n = model.iterations;
    ASSERT_GE(n, 3);
    EXPECT_EQ(executed(std::numeric_limits<int>::max()), executed(n - 1));
    EXPECT_LT(executed(n - 1), executed(n - 2));
}

TEST(PerfModel, EnergyComponentsSumToTotal)
{
    const ModelConfig model = makeConfig(Benchmark::EDGE, Scale::Full);
    ExionPerfModel pm(exion4(), Ablation::All);
    const RunStats s = pm.run(model, profileFor(Benchmark::EDGE));
    const EnergyPj sum = s.sdueEnergy + s.epreEnergy + s.cfseEnergy
        + s.cauEnergy + s.memEnergy + s.ctrlEnergy + s.dramEnergy;
    EXPECT_NEAR(sum, s.energy, s.energy * 1e-9);
}

} // namespace
} // namespace exion
