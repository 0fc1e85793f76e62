#include "exion/model/op_counter.h"

namespace exion
{

double
OpBreakdown::transformerShare() const
{
    const OpCount t = total();
    if (t == 0)
        return 0.0;
    return static_cast<double>(qkv + attn + ffn)
        / static_cast<double>(t);
}

double
OpBreakdown::ffnShareOfTransformer() const
{
    const OpCount tr = qkv + attn + ffn;
    if (tr == 0)
        return 0.0;
    return static_cast<double>(ffn) / static_cast<double>(tr);
}

OpBreakdown
countBlockOps(const StageConfig &stage, bool geglu)
{
    OpBreakdown out;
    const OpCount t = stage.tokens;
    const OpCount d = stage.dModel;
    const OpCount hid = stage.ffnMult * stage.dModel;

    out.qkv = 3 * mmulOps(t, d, d);
    // Per-head scores and AV sum to 2 * T^2 * d MACs in total.
    out.attn = mmulOps(t, d, t) + mmulOps(t, t, d) + mmulOps(t, d, d);
    out.ffn = (geglu ? 3 : 2) * mmulOps(t, d, hid);
    return out;
}

OpBreakdown
countOpsPerIteration(const ModelConfig &cfg)
{
    OpBreakdown out;
    for (const auto &stage : cfg.stages) {
        const OpBreakdown blk = countBlockOps(stage, cfg.geglu);
        out.qkv += blk.qkv * stage.nBlocks;
        out.attn += blk.attn * stage.nBlocks;
        out.ffn += blk.ffn * stage.nBlocks;
        // ResBlocks: two 3x3 convs over tokens x d channels.
        out.etc += stage.nResBlocks * 2
            * mmulOps(stage.tokens, 9 * stage.dModel, stage.dModel);
    }
    // Input/output projections on the latent.
    out.etc += mmulOps(cfg.latentTokens, cfg.latentDim,
                       cfg.stages.front().dModel);
    out.etc += mmulOps(cfg.latentTokens, cfg.stages.back().dModel,
                       cfg.latentDim);
    return out;
}

} // namespace exion
