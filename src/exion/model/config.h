/**
 * @file
 * Benchmark model configurations.
 *
 * The paper evaluates seven diffusion models spanning the three network
 * types of Fig. 3. We mirror their public architectures at Scale::Full
 * (used for op counting and cycle/energy roll-ups) and provide
 * Scale::Reduced variants whose full numerics run in seconds (used for
 * accuracy experiments and sparsity-structure calibration).
 *
 * Sparsity knobs (dense interval N, FFN threshold target, EP q_th and
 * top-k ratio) follow Table I of the paper exactly.
 */

#ifndef EXION_MODEL_CONFIG_H_
#define EXION_MODEL_CONFIG_H_

#include <string>
#include <vector>

#include "exion/common/types.h"

namespace exion
{

/** Width of the sinusoidal timestep embedding every network uses. */
inline constexpr Index kTimeEmbedDim = 64;

/** The three diffusion network shapes of Fig. 3(a). */
enum class NetworkType
{
    UNetNoRes,       //!< type 1: UNet built from transformer blocks only
    UNetRes,         //!< type 2: UNet with ResBlocks + transformer blocks
    TransformerOnly, //!< type 3: a flat stack of transformer blocks
};

/** The seven benchmark workloads. */
enum class Benchmark
{
    MLD,             //!< text-to-motion, latent transformer
    MDM,             //!< text-to-motion, transformer encoder
    EDGE,            //!< music-to-motion
    MakeAnAudio,     //!< text-to-audio latent UNet
    StableDiffusion, //!< text-to-image latent UNet
    DiT,             //!< class-to-image diffusion transformer (XL/2)
    VideoCrafter2,   //!< text-to-video latent UNet
};

/** All benchmarks in paper order. */
const std::vector<Benchmark> &allBenchmarks();

/** Short display name, e.g. "MLD", "StableDiff". */
std::string benchmarkName(Benchmark b);

/** Model scale selector. */
enum class Scale
{
    Full,    //!< paper dimensions; analytic accounting only
    Reduced, //!< shrunk dims; full numerics run in seconds
};

/**
 * One resolution stage of a denoising network.
 *
 * TransformerOnly models have a single stage; UNet models list their
 * encoder/bottleneck/decoder stages in execution order.
 */
struct StageConfig
{
    Index tokens = 0;    //!< sequence length at this stage
    Index dModel = 0;    //!< embedding width
    Index nHeads = 1;    //!< attention heads
    Index ffnMult = 4;   //!< FFN hidden dim = ffnMult * dModel
    Index nBlocks = 0;   //!< transformer blocks in this stage
    Index nResBlocks = 0; //!< ResBlocks (conv3x3 pairs) in this stage
    /**
     * Attention score temperature (multiplies scaled QK^T). Trained
     * attention is peaked; reduced-scale models with random weights
     * can raise this to reproduce realistic softmax concentration.
     */
    double scoreTemp = 1.0;
};

/** Eager-prediction configuration (Table I). */
struct EpConfig
{
    double qTh = 0.5;  //!< one-hot threshold on (top1 - top2)
    double topK = 0.5; //!< keep ratio k per predicted-score row
};

/** FFN-Reuse configuration (Table I / Fig. 6). */
struct FfnReuseConfig
{
    int denseInterval = 4;        //!< N sparse iterations per dense one
    double targetSparsity = 0.95; //!< calibration quantile for theta
};

/**
 * Complete description of one benchmark at one scale.
 */
struct ModelConfig
{
    std::string name;
    Benchmark benchmark = Benchmark::MLD;
    NetworkType type = NetworkType::TransformerOnly;
    Scale scale = Scale::Full;

    std::vector<StageConfig> stages;
    Index latentTokens = 0; //!< tokens of the network input/output
    Index latentDim = 0;    //!< channels of the network input/output
    bool geglu = false;     //!< GEGLU (two first-layer paths) vs GELU

    int iterations = 50;    //!< denoising steps

    FfnReuseConfig ffnReuse;
    EpConfig ep;
    double intraTargetSparsity = 0.5; //!< Table I's reported intra level

    u64 seed = 1;

    /** Total transformer blocks across all stages. */
    Index totalBlocks() const;
};

/** Returns the configuration of a benchmark at the given scale. */
ModelConfig makeConfig(Benchmark b, Scale scale);

/** Convenience: a tiny single-stage config for unit tests. */
ModelConfig makeTinyConfig(Index tokens = 8, Index d_model = 16,
                           Index n_blocks = 2, int iterations = 8);

} // namespace exion

#endif // EXION_MODEL_CONFIG_H_
