/**
 * @file
 * Denoising networks (Fig. 3a).
 *
 * One generic implementation covers the three published shapes:
 * a flat transformer stack (type 3), a transformer UNet with skip
 * connections (type 1), and a UNet with ResBlocks (type 2). Stages at
 * different token counts are connected by average-pool downsampling /
 * repeat upsampling plus channel projections.
 */

#ifndef EXION_MODEL_NETWORK_H_
#define EXION_MODEL_NETWORK_H_

#include <memory>
#include <vector>

#include "exion/model/config.h"
#include "exion/model/resblock.h"
#include "exion/model/transformer_block.h"

namespace exion
{

/** Average-pools token groups of size factor. @pre factor divides rows. */
Matrix downsampleTokens(const Matrix &x, Index factor);

/** Repeats each token factor times. */
Matrix upsampleTokens(const Matrix &x, Index factor);

/**
 * The diffusion denoiser: predicts the noise of a latent at timestep t.
 */
class WeightStore;

class DenoisingNetwork
{
  public:
    /** The network over WeightStore::build(cfg), a store seeded
        deterministically from cfg.seed. */
    explicit DenoisingNetwork(const ModelConfig &cfg);

    /**
     * Builds the network over an existing (typically mmap'd, shared)
     * store: every layer borrows the store's tensors, so N networks
     * over one store share one physical copy of the weights and
     * construction does no Rng work.
     * @throws WeightStoreError when a tensor the config implies is
     *         missing or has another shape or width
     */
    explicit DenoisingNetwork(std::shared_ptr<const WeightStore> store);

    /**
     * Predicts noise for a stack of latents at one (training)
     * timestep, in one pass over the weights.
     *
     * x carries exec.memberCount() row segments of latentTokens rows
     * each, one per member of the executor's current step (one after
     * beginIteration() or on a fresh executor), and the timestep
     * conditions every segment: a cohort's members step in lockstep.
     * Row-independent layers (projections, norms, FFN linears,
     * pooling) run on the tall matrix directly; token mixing
     * (attention) and per-request sparsity state are the executor's,
     * which runs one member per segment. Every output row segment is
     * bit-identical to a forward of that segment alone.
     *
     * @param x        memberCount x latentTokens rows, latentDim wide
     * @param timestep scheduler timestep (conditions the time embedding)
     * @param exec     execution strategy for transformer blocks
     * @throws std::invalid_argument unless x holds exec.memberCount()
     *         segments of latentTokens x latentDim: a stack its
     *         executor did not announce would attend across members
     */
    Matrix forward(const Matrix &x, int timestep,
                   BlockExecutor &exec) const;

    /** Model configuration. */
    const ModelConfig &config() const { return cfg_; }

    /** Access to block i in execution order. */
    const TransformerBlock &block(Index i) const { return *blockPtrs_[i]; }

    /** The weight store this network views. */
    const std::shared_ptr<const WeightStore> &store() const
    {
        return store_;
    }

  private:
    struct Stage
    {
        StageConfig cfg;
        std::vector<ResBlock> resBlocks;
        std::vector<TransformerBlock> blocks;
        Linear channelProj; //!< previous d -> this d (empty when equal)
        Linear timeProj;    //!< time embedding -> this d
    };

    ModelConfig cfg_;
    /** Keeps every borrowed view below alive. */
    std::shared_ptr<const WeightStore> store_;
    Linear inProj_;
    Linear outProj_;
    Matrix condEmbed_;
    std::vector<Stage> stages_;
    std::vector<const TransformerBlock *> blockPtrs_;
};

} // namespace exion

#endif // EXION_MODEL_NETWORK_H_
