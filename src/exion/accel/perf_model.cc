#include "exion/accel/perf_model.h"

#include <algorithm>
#include <cmath>

#include "exion/common/bitops.h"
#include "exion/common/logging.h"

namespace exion
{

namespace
{

/** Bytes of an INT12 tensor (1.5 bytes per element). */
u64
int12Bytes(u64 elements)
{
    return (elements * 3 + 1) / 2;
}

/** Fraction of CFSE cycles hidden behind SDUE execution. */
constexpr double kCfseOverlap = 0.5;

/** Irregular-gather penalty of the 2nd FFN layer's update pass. */
constexpr double kFfn2GatherOverhead = 2.0;

/** Control cycles per iteration (instruction fetch, sync). */
constexpr Cycle kIterationOverheadCycles = 1600;

/** Sampled 16-row groups per ConMerge estimate. */
constexpr Index kSampleGroups = 6;

} // namespace

double
RunStats::effectiveTops() const
{
    if (latencySeconds <= 0.0)
        return 0.0;
    return static_cast<double>(denseOps) / latencySeconds / 1e12;
}

double
RunStats::topsPerWatt() const
{
    if (energy <= 0.0)
        return 0.0;
    // ops per pJ equals TOPS per watt.
    return static_cast<double>(denseOps) / energy;
}

double
RunStats::avgPowerW() const
{
    if (latencySeconds <= 0.0)
        return 0.0;
    return energy * 1e-12 / latencySeconds;
}

ExionPerfModel::ExionPerfModel(const ExionConfig &config,
                               Ablation ablation)
    : cfg_(config), ablation_(ablation), energy_(config.dsc),
      sdue_(config.dsc), epre_(config.dsc), cfse_(config.dsc),
      dram_(config.dramType, config.dramBandwidthGbs)
{
}

Cycle
ExionPerfModel::parDenseCycles(Index m, Index k, Index n,
                               u64 *active_dpu, u64 *gated_dpu) const
{
    const SdueRunStats stats = sdue_.denseMmulStats(m, k, n);
    if (active_dpu)
        *active_dpu += stats.activeDpuCycles;
    if (gated_dpu)
        *gated_dpu += stats.gatedDpuCycles;
    const u64 k_steps = ceilDiv(k, cfg_.dsc.laneLength);
    const u64 per_dsc_tiles = ceilDiv(stats.tilePasses,
                                      static_cast<u64>(cfg_.numDscs));
    return per_dsc_tiles * k_steps;
}

const ConMergeSummary &
ExionPerfModel::ffnSummary(const StageConfig &stage, Index batch_rows,
                           const SparsityProfile &prof)
{
    const Index hid = stage.ffnMult * stage.dModel;
    const auto key = std::make_pair(batch_rows, hid);
    auto it = ffnCache_.find(key);
    if (it == ffnCache_.end()) {
        const u64 seed = 0xc0ffee ^ (batch_rows * 131) ^ hid;
        it = ffnCache_
                 .emplace(key, estimateFfnConMerge(batch_rows, hid,
                                                   prof.ffnMask,
                                                   kSampleGroups, seed))
                 .first;
    }
    return it->second;
}

const ConMergeSummary &
ExionPerfModel::scoreSummary(const StageConfig &stage,
                             const SparsityProfile &prof)
{
    const auto key = std::make_pair(stage.tokens, stage.tokens);
    auto it = scoreCache_.find(key);
    if (it == scoreCache_.end()) {
        const u64 seed = 0xdead ^ (stage.tokens * 977);
        it = scoreCache_
                 .emplace(key,
                          estimateScoreConMerge(stage.tokens,
                                                stage.tokens,
                                                prof.scoreMask,
                                                kSampleGroups, seed))
                 .first;
    }
    return it->second;
}

ExionPerfModel::BlockCost
ExionPerfModel::attentionCost(const StageConfig &stage, Index batch_rows,
                              int batch, const SparsityProfile &prof,
                              const ConMergeSummary &score_summary) const
{
    BlockCost cost;
    const Index t = stage.tokens;
    const Index d = stage.dModel;
    const Index dh = d / stage.nHeads;
    const bool use_ep = ablationUsesEp(ablation_);

    cost.denseOps += 3 * mmulOps(batch_rows, d, d); // QKV
    cost.denseOps += stage.nHeads * batch
        * (mmulOps(t, dh, t) + mmulOps(t, t, dh));
    cost.denseOps += mmulOps(batch_rows, d, d); // out proj

    // --- QKV projections. ---
    const double q_keep = use_ep ? 1.0 - prof.qRowSkip : 1.0;
    const double k_keep = use_ep ? 1.0 - prof.kColSkip : 1.0;
    const double v_keep = use_ep ? 1.0 - prof.vColSkip : 1.0;
    for (double keep : {q_keep, k_keep, v_keep}) {
        const Index rows = std::max<Index>(
            1, static_cast<Index>(std::llround(batch_rows * keep)));
        cost.sdueCycles += parDenseCycles(rows, d, d,
                                          &cost.activeDpuCycles,
                                          &cost.gatedDpuCycles);
        cost.executedOps += mmulOps(rows, d, d);
    }
    cost.weightBytes += int12Bytes(3ull * d * d);

    // --- EPRE prediction (overlapped; energy + max() in caller). ---
    if (use_ep) {
        const Cycle predict =
            epre_.predictAttentionCycles(t, d, stage.nHeads)
            * static_cast<Cycle>(batch);
        cost.epreCycles += ceilDiv(predict,
                                   static_cast<u64>(cfg_.numDscs));
    }

    // --- Attention scores. ---
    const double keep_ratio = use_ep ? prof.scoreMask.keepRatio : 1.0;
    const double onehot = use_ep ? prof.scoreMask.oneHotFraction : 0.0;
    if (use_ep) {
        // Output-sparse MMUL through ConMerge-merged tiles.
        const double groups =
            static_cast<double>(ceilDiv(t, kLanes)) * batch
            * stage.nHeads;
        const u64 tiles = static_cast<u64>(
            std::ceil(groups * score_summary.tilesPerGroup));
        const u64 k_steps = ceilDiv(dh, cfg_.dsc.laneLength);
        cost.sdueCycles +=
            ceilDiv(tiles, static_cast<u64>(cfg_.numDscs)) * k_steps;
        const u64 tile_dpu_cycles = tiles * k_steps
            * cfg_.dsc.dpuRows * cfg_.dsc.dpuCols;
        cost.activeDpuCycles += static_cast<u64>(
            tile_dpu_cycles * score_summary.tileOccupancy);
        cost.gatedDpuCycles += static_cast<u64>(
            tile_dpu_cycles * (1.0 - score_summary.tileOccupancy));
        cost.cauCycles += static_cast<Cycle>(
            std::ceil(groups * score_summary.mergeCyclesPerGroup
                      / cfg_.numDscs));
        cost.executedOps += static_cast<OpCount>(
            stage.nHeads * batch
            * mmulOps(t, dh, t)
            * (1.0 - onehot) * keep_ratio);
    } else {
        for (Index h = 0; h < stage.nHeads; ++h) {
            cost.sdueCycles += static_cast<Cycle>(batch)
                * parDenseCycles(t, dh, t, &cost.activeDpuCycles,
                                 &cost.gatedDpuCycles);
        }
        cost.executedOps += stage.nHeads * batch * mmulOps(t, dh, t);
    }

    // --- Softmax on the CFSE (kept entries only under EP). ---
    const u64 score_elems = static_cast<u64>(
        static_cast<double>(batch) * stage.nHeads * t * t
        * (1.0 - onehot) * keep_ratio);
    cost.cfseCycles += ceilDiv(
        cfse_.opCycles(CfseOp::Softmax, score_elems),
        static_cast<u64>(cfg_.numDscs));

    // --- Attention x V (probability matrix is row-sparse under EP). --
    const Index av_rows = std::max<Index>(
        1, static_cast<Index>(std::llround(
               static_cast<double>(t) * (1.0 - onehot))));
    const Index av_k = std::max<Index>(
        1,
        static_cast<Index>(std::llround(
            static_cast<double>(t) * keep_ratio)));
    for (Index h = 0; h < stage.nHeads; ++h) {
        cost.sdueCycles += static_cast<Cycle>(batch)
            * parDenseCycles(av_rows, av_k, dh, &cost.activeDpuCycles,
                             &cost.gatedDpuCycles);
    }
    cost.executedOps += stage.nHeads * batch * mmulOps(av_rows, av_k,
                                                       dh);

    // --- Output projection (dense). ---
    cost.sdueCycles += parDenseCycles(batch_rows, d, d,
                                      &cost.activeDpuCycles,
                                      &cost.gatedDpuCycles);
    cost.executedOps += mmulOps(batch_rows, d, d);
    cost.weightBytes += int12Bytes(static_cast<u64>(d) * d);

    // --- LayerNorm + residual + requantisation. ---
    const u64 token_elems = static_cast<u64>(batch_rows) * d;
    Cycle cfse = cfse_.opCycles(CfseOp::LayerNorm, token_elems)
        + cfse_.opCycles(CfseOp::ResidualAdd, token_elems)
        + cfse_.opCycles(CfseOp::Quantize, token_elems);
    cost.cfseCycles += ceilDiv(cfse, static_cast<u64>(cfg_.numDscs));

    cost.activationBytes += 2 * int12Bytes(token_elems);
    return cost;
}

ExionPerfModel::BlockCost
ExionPerfModel::ffnCost(const StageConfig &stage, Index batch_rows,
                        bool geglu, bool sparse_iteration,
                        const SparsityProfile &prof,
                        const ConMergeSummary &ffn_summary) const
{
    BlockCost cost;
    const Index d = stage.dModel;
    const Index hid = stage.ffnMult * d;
    const int ffn1_paths = geglu ? 2 : 1;

    cost.denseOps += ffn1_paths * mmulOps(batch_rows, d, hid);
    cost.denseOps += mmulOps(batch_rows, hid, d);

    const u64 token_elems = static_cast<u64>(batch_rows) * d;
    const u64 hidden_elems = static_cast<u64>(batch_rows) * hid;

    if (!sparse_iteration) {
        // Dense iteration: full FFN; CAU sorts/merges in the shadow of
        // the SDUE sweep (its cycles surface via cauCycles).
        for (int path = 0; path < ffn1_paths; ++path) {
            cost.sdueCycles += parDenseCycles(batch_rows, d, hid,
                                              &cost.activeDpuCycles,
                                              &cost.gatedDpuCycles);
            cost.executedOps += mmulOps(batch_rows, d, hid);
        }
        cost.sdueCycles += parDenseCycles(batch_rows, hid, d,
                                          &cost.activeDpuCycles,
                                          &cost.gatedDpuCycles);
        cost.executedOps += mmulOps(batch_rows, hid, d);
        cost.weightBytes +=
            int12Bytes(static_cast<u64>(ffn1_paths + 1) * d * hid);
        cost.cfseCycles += ceilDiv(
            cfse_.opCycles(CfseOp::Gelu, hidden_elems),
            static_cast<u64>(cfg_.numDscs));
        if (ablationUsesFfnReuse(ablation_)) {
            const double groups = static_cast<double>(
                ceilDiv(batch_rows, kLanes));
            cost.cauCycles += static_cast<Cycle>(std::ceil(
                groups * ffn_summary.mergeCyclesPerGroup
                / cfg_.numDscs));
        }
    } else {
        // Sparse iteration: 1st layer through merged tiles.
        const double groups =
            static_cast<double>(ceilDiv(batch_rows, kLanes));
        const u64 tiles = static_cast<u64>(
            std::ceil(groups * ffn_summary.tilesPerGroup));
        const u64 k_steps = ceilDiv(d, cfg_.dsc.laneLength);
        cost.sdueCycles += static_cast<Cycle>(ffn1_paths)
            * ceilDiv(tiles, static_cast<u64>(cfg_.numDscs)) * k_steps;
        const u64 tile_dpu = static_cast<u64>(ffn1_paths) * tiles
            * k_steps * cfg_.dsc.dpuRows * cfg_.dsc.dpuCols;
        cost.activeDpuCycles += static_cast<u64>(
            tile_dpu * ffn_summary.tileOccupancy);
        cost.gatedDpuCycles += static_cast<u64>(
            tile_dpu * (1.0 - ffn_summary.tileOccupancy));
        const double density = prof.ffnMask.density;
        cost.executedOps += static_cast<OpCount>(
            ffn1_paths * mmulOps(batch_rows, d, hid) * density);

        // GELU only on recomputed elements.
        cost.cfseCycles += ceilDiv(
            cfse_.opCycles(CfseOp::Gelu,
                           static_cast<u64>(hidden_elems * density)),
            static_cast<u64>(cfg_.numDscs));

        // 2nd layer: accumulate updates onto cached partial sums.
        const Index k_eff = std::max<Index>(
            1, static_cast<Index>(std::ceil(
                   static_cast<double>(hid) * density
                   * kFfn2GatherOverhead)));
        cost.sdueCycles += parDenseCycles(batch_rows, k_eff, d,
                                          &cost.activeDpuCycles,
                                          &cost.gatedDpuCycles);
        cost.executedOps += static_cast<OpCount>(
            mmulOps(batch_rows, hid, d) * density);

        // Weight fetch shrinks to the condensed column set.
        const double col_keep = ffn_summary.condenseRemainingFraction;
        cost.weightBytes += static_cast<u64>(
            int12Bytes(static_cast<u64>(ffn1_paths + 1) * d * hid)
            * col_keep);
        // Cached partial sums stream through the scratchpad.
        cost.activationBytes += 2 * int12Bytes(token_elems);
    }

    Cycle cfse = cfse_.opCycles(CfseOp::LayerNorm, token_elems)
        + cfse_.opCycles(CfseOp::ResidualAdd, token_elems)
        + cfse_.opCycles(CfseOp::Quantize, token_elems);
    cost.cfseCycles += ceilDiv(cfse, static_cast<u64>(cfg_.numDscs));
    cost.activationBytes += 2 * int12Bytes(token_elems);
    return cost;
}

ExionPerfModel::BlockCost
ExionPerfModel::resBlockCost(const StageConfig &stage,
                             Index batch_rows) const
{
    BlockCost cost;
    const Index d = stage.dModel;
    // Two 3x3 convs as im2col GEMMs; no sparsity optimisation.
    for (int conv = 0; conv < 2; ++conv) {
        cost.sdueCycles += parDenseCycles(batch_rows, 9 * d, d,
                                          &cost.activeDpuCycles,
                                          &cost.gatedDpuCycles);
        cost.denseOps += mmulOps(batch_rows, 9 * d, d);
        cost.executedOps += mmulOps(batch_rows, 9 * d, d);
        cost.weightBytes += int12Bytes(9ull * d * d);
    }
    const u64 token_elems = static_cast<u64>(batch_rows) * d;
    Cycle cfse = cfse_.opCycles(CfseOp::Gelu, token_elems)
        + cfse_.opCycles(CfseOp::ResidualAdd, token_elems);
    cost.cfseCycles += ceilDiv(cfse, static_cast<u64>(cfg_.numDscs));
    cost.activationBytes += 2 * int12Bytes(token_elems);
    return cost;
}

RunStats
ExionPerfModel::run(const ModelConfig &model, const SparsityProfile &prof,
                    int batch)
{
    EXION_ASSERT(batch >= 1, "batch ", batch);
    RunStats stats;

    const bool use_ffnr = ablationUsesFfnReuse(ablation_);
    // In 64 bits, as FfnReuse::isDenseIteration: INT_MAX + 1 would
    // overflow an int.
    const i64 interval = i64{model.ffnReuse.denseInterval} + 1;
    int dense_iters = 0;
    int sparse_iters = 0;
    for (int i = 0; i < model.iterations; ++i) {
        if (!use_ffnr || i % interval == 0)
            ++dense_iters;
        else
            ++sparse_iters;
    }

    // Per-DPU energies for occupancy-weighted accounting.
    const double per_dpu_active =
        energy_.activeEnergyPerCycle(DscComponent::Sdue)
        / static_cast<double>(cfg_.dsc.dpuRows * cfg_.dsc.dpuCols);
    const double per_dpu_gated =
        per_dpu_active * EnergyModel::kGatedFraction;

    // Model weights are refetched per iteration unless they fit in
    // the shared scratchpad.
    u64 weight_bytes_once = 0;

    auto accumulate = [&](const BlockCost &cost, int times) {
        if (times == 0)
            return;
        const double n = static_cast<double>(times);
        // Visible latency: SDUE serialises with the non-overlapped
        // CFSE share; EPRE and CAU run in the pipeline shadow.
        const Cycle visible_cfse = static_cast<Cycle>(std::max(
            0.0, static_cast<double>(cost.cfseCycles)
                     - kCfseOverlap
                           * static_cast<double>(cost.sdueCycles)));
        const Cycle compute = std::max(
            cost.sdueCycles + visible_cfse,
            std::max(cost.epreCycles, cost.cauCycles));
        const u64 dma_bytes = cost.weightBytes + cost.activationBytes;
        const Cycle dma = dram_.transferCycles(dma_bytes,
                                               cfg_.dsc.clockGhz);
        stats.wallCycles += static_cast<Cycle>(
            n * static_cast<double>(std::max(compute, dma)));

        stats.sdueEnergy += n
            * (static_cast<double>(cost.activeDpuCycles) * per_dpu_active
               + static_cast<double>(cost.gatedDpuCycles)
                   * per_dpu_gated);
        stats.epreEnergy += n * static_cast<double>(cost.epreCycles)
            * cfg_.numDscs
            * energy_.activeEnergyPerCycle(DscComponent::Epre);
        stats.cfseEnergy += n * static_cast<double>(cost.cfseCycles)
            * cfg_.numDscs
            * energy_.activeEnergyPerCycle(DscComponent::Cfse);
        stats.cauEnergy += n * static_cast<double>(cost.cauCycles)
            * cfg_.numDscs
            * energy_.activeEnergyPerCycle(DscComponent::Cau);
        stats.dramEnergy += n * dram_.transferEnergy(dma_bytes);
        stats.dramBytes += static_cast<u64>(n) * dma_bytes;
        stats.denseOps += static_cast<OpCount>(n) * cost.denseOps;
        stats.executedOps +=
            static_cast<OpCount>(n) * cost.executedOps;
    };

    for (const auto &stage : model.stages) {
        const Index batch_rows = stage.tokens * batch;
        const ConMergeSummary &ffn_sum = use_ffnr
            ? ffnSummary(stage, batch_rows, prof)
            : ConMergeSummary{};
        const ConMergeSummary &score_sum = ablationUsesEp(ablation_)
            ? scoreSummary(stage, prof)
            : ConMergeSummary{};

        // Transformer blocks.
        if (stage.nBlocks > 0) {
            const BlockCost attn = attentionCost(stage, batch_rows,
                                                 batch, prof, score_sum);
            accumulate(attn, static_cast<int>(stage.nBlocks)
                                 * model.iterations);
            const BlockCost ffn_dense = ffnCost(stage, batch_rows,
                                                model.geglu, false,
                                                prof, ffn_sum);
            accumulate(ffn_dense,
                       static_cast<int>(stage.nBlocks) * dense_iters);
            if (sparse_iters > 0) {
                const BlockCost ffn_sparse = ffnCost(
                    stage, batch_rows, model.geglu, true, prof,
                    ffn_sum);
                accumulate(ffn_sparse, static_cast<int>(stage.nBlocks)
                                           * sparse_iters);
            }
            weight_bytes_once += stage.nBlocks
                * int12Bytes(
                      (4ull + (model.geglu ? 3ull : 2ull) * stage.ffnMult)
                      * stage.dModel * stage.dModel);
        }
        // ResBlocks.
        if (stage.nResBlocks > 0) {
            const BlockCost res = resBlockCost(stage, batch_rows);
            accumulate(res, static_cast<int>(stage.nResBlocks)
                                * model.iterations);
            weight_bytes_once += stage.nResBlocks
                * int12Bytes(18ull * stage.dModel * stage.dModel);
        }
    }

    // In/out latent projections (etc.), dense each iteration.
    {
        BlockCost proj;
        const Index rows = model.latentTokens * batch;
        proj.sdueCycles += parDenseCycles(rows, model.latentDim,
                                          model.stages.front().dModel,
                                          &proj.activeDpuCycles,
                                          &proj.gatedDpuCycles);
        proj.sdueCycles += parDenseCycles(rows,
                                          model.stages.back().dModel,
                                          model.latentDim,
                                          &proj.activeDpuCycles,
                                          &proj.gatedDpuCycles);
        proj.denseOps += mmulOps(rows, model.latentDim,
                                 model.stages.front().dModel)
            + mmulOps(rows, model.stages.back().dModel,
                      model.latentDim);
        proj.executedOps = proj.denseOps;
        proj.activationBytes += 2 * int12Bytes(
            static_cast<u64>(rows) * model.latentDim);
        accumulate(proj, model.iterations);
    }

    stats.wallCycles += static_cast<Cycle>(model.iterations)
        * kIterationOverheadCycles;

    // Idle/background energy: memories + control draw a constant
    // fraction across the run; idle fractions for compute units.
    const double wall = static_cast<double>(stats.wallCycles);
    stats.memEnergy += wall * cfg_.numDscs
        * energy_.activeEnergyPerCycle(DscComponent::OnChipMemories)
        * 0.6;
    stats.ctrlEnergy += wall * cfg_.numDscs
        * energy_.activeEnergyPerCycle(DscComponent::ControlDmaEtc)
        * 0.6;
    for (DscComponent c : {DscComponent::Sdue, DscComponent::Epre,
                           DscComponent::Cfse, DscComponent::Cau}) {
        const EnergyPj idle = wall * cfg_.numDscs
            * energy_.activeEnergyPerCycle(c)
            * EnergyModel::kIdleFraction;
        switch (c) {
          case DscComponent::Sdue:
            stats.sdueEnergy += idle;
            break;
          case DscComponent::Epre:
            stats.epreEnergy += idle;
            break;
          case DscComponent::Cfse:
            stats.cfseEnergy += idle;
            break;
          default:
            stats.cauEnergy += idle;
            break;
        }
    }

    // Whole-model weight refetch when the GSC cannot hold the model.
    if (weight_bytes_once > cfg_.gscBytes) {
        // Already charged per block per iteration above.
    } else if (model.iterations > 1) {
        // Weights stay resident: refund the refetches after the first
        // iteration (approximate — per-block charges assumed uniform).
        const double refund_fraction =
            static_cast<double>(model.iterations - 1)
            / static_cast<double>(model.iterations);
        const u64 weight_traffic = static_cast<u64>(
            static_cast<double>(stats.dramBytes) * 0.7
            * refund_fraction);
        stats.dramBytes -= std::min(stats.dramBytes, weight_traffic);
        stats.dramEnergy -= dram_.transferEnergy(weight_traffic);
    }

    stats.latencySeconds = static_cast<double>(stats.wallCycles)
        / (cfg_.dsc.clockGhz * 1e9);
    stats.energy = stats.sdueEnergy + stats.epreEnergy
        + stats.cfseEnergy + stats.cauEnergy + stats.memEnergy
        + stats.ctrlEnergy + stats.dramEnergy;
    return stats;
}

} // namespace exion
