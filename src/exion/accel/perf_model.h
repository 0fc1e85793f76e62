/**
 * @file
 * EXION device performance/energy model.
 *
 * Rolls per-layer cycle and energy costs up to whole-workload latency
 * and energy for a given device instance and ablation. Tile-level
 * costs come from the same formulas the detailed Sdue/Epre/Cfse models
 * use, but no test compares the two: the PerfModel tests check
 * orderings and bounds only (ablation latency and energy order,
 * device and batch size, power limits, energy components summing to
 * the total). Sparsity behaviour comes from calibrated
 * SparsityProfiles with ConMerge effects measured by running the real
 * pipeline on sampled groups.
 *
 * Reporting conventions follow the paper: "TOPS" is dense-equivalent
 * work over time (optimisations can push it past peak), and TOPS/W is
 * dense-equivalent work per energy.
 */

#ifndef EXION_ACCEL_PERF_MODEL_H_
#define EXION_ACCEL_PERF_MODEL_H_

#include <map>

#include "exion/accel/conmerge_estimator.h"
#include "exion/accel/exion_config.h"
#include "exion/accel/sparsity_profile.h"
#include "exion/model/op_counter.h"
#include "exion/sim/cfse.h"
#include "exion/sim/dram.h"
#include "exion/sim/energy.h"
#include "exion/sim/epre.h"
#include "exion/sim/sdue.h"

namespace exion
{

/** Whole-run performance and energy result. */
struct RunStats
{
    double latencySeconds = 0.0;
    EnergyPj energy = 0.0;
    OpCount denseOps = 0;    //!< dense-equivalent ops of the workload
    OpCount executedOps = 0; //!< ops actually computed
    Cycle wallCycles = 0;

    EnergyPj sdueEnergy = 0.0;
    EnergyPj epreEnergy = 0.0;
    EnergyPj cfseEnergy = 0.0;
    EnergyPj cauEnergy = 0.0;
    EnergyPj memEnergy = 0.0;
    EnergyPj ctrlEnergy = 0.0;
    EnergyPj dramEnergy = 0.0;
    u64 dramBytes = 0;

    /** Dense-equivalent throughput in TOPS. */
    double effectiveTops() const;

    /** Dense-equivalent energy efficiency in TOPS/W (= ops per pJ). */
    double topsPerWatt() const;

    /** Average power draw in watts. */
    double avgPowerW() const;
};

/**
 * Analytic device model for one (config, ablation) pair.
 */
class ExionPerfModel
{
  public:
    ExionPerfModel(const ExionConfig &config, Ablation ablation);

    /**
     * Models a full diffusion run of the benchmark.
     *
     * @param model full-scale model configuration
     * @param prof  calibrated sparsity profile
     * @param batch batch size (Fig. 18/19 use 1 and 8)
     */
    RunStats run(const ModelConfig &model, const SparsityProfile &prof,
                 int batch = 1);

    /** Device configuration. */
    const ExionConfig &config() const { return cfg_; }

    /** Active ablation. */
    Ablation ablation() const { return ablation_; }

  private:
    struct BlockCost
    {
        Cycle sdueCycles = 0; //!< per-device wall cycles on the SDUE
        Cycle epreCycles = 0;
        Cycle cfseCycles = 0;
        Cycle cauCycles = 0;
        u64 activeDpuCycles = 0;
        u64 gatedDpuCycles = 0;
        u64 weightBytes = 0;
        u64 activationBytes = 0;
        OpCount denseOps = 0;
        OpCount executedOps = 0;
    };

    /** Wall cycles of a dense MMUL, parallelised over DSCs. */
    Cycle parDenseCycles(Index m, Index k, Index n, u64 *active_dpu,
                         u64 *gated_dpu) const;

    BlockCost attentionCost(const StageConfig &stage, Index batch_rows,
                            int batch, const SparsityProfile &prof,
                            const ConMergeSummary &score_summary) const;
    BlockCost ffnCost(const StageConfig &stage, Index batch_rows,
                      bool geglu, bool sparse_iteration,
                      const SparsityProfile &prof,
                      const ConMergeSummary &ffn_summary) const;
    BlockCost resBlockCost(const StageConfig &stage,
                           Index batch_rows) const;

    const ConMergeSummary &ffnSummary(const StageConfig &stage,
                                      Index batch_rows,
                                      const SparsityProfile &prof);
    const ConMergeSummary &scoreSummary(const StageConfig &stage,
                                        const SparsityProfile &prof);

    ExionConfig cfg_;
    Ablation ablation_;
    EnergyModel energy_;
    Sdue sdue_;
    Epre epre_;
    Cfse cfse_;
    DramModel dram_;
    std::map<std::pair<Index, Index>, ConMergeSummary> ffnCache_;
    std::map<std::pair<Index, Index>, ConMergeSummary> scoreCache_;
};

} // namespace exion

#endif // EXION_ACCEL_PERF_MODEL_H_
