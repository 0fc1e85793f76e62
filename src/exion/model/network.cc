#include "exion/model/network.h"

#include <stdexcept>
#include <string>

#include "exion/model/weight_store.h"
#include "exion/tensor/ops.h"

namespace exion
{

Matrix
downsampleTokens(const Matrix &x, Index factor)
{
    EXION_ASSERT(factor > 0 && x.rows() % factor == 0,
                 "pool factor ", factor, " vs rows ", x.rows());
    Matrix out(x.rows() / factor, x.cols());
    const float inv = 1.0f / static_cast<float>(factor);
    for (Index r = 0; r < out.rows(); ++r) {
        for (Index c = 0; c < x.cols(); ++c) {
            float acc = 0.0f;
            for (Index f = 0; f < factor; ++f)
                acc += x(r * factor + f, c);
            out(r, c) = acc * inv;
        }
    }
    return out;
}

Matrix
upsampleTokens(const Matrix &x, Index factor)
{
    Matrix out(x.rows() * factor, x.cols());
    for (Index r = 0; r < x.rows(); ++r)
        for (Index f = 0; f < factor; ++f)
            for (Index c = 0; c < x.cols(); ++c)
                out(r * factor + f, c) = x(r, c);
    return out;
}

DenoisingNetwork::DenoisingNetwork(const ModelConfig &cfg)
    : DenoisingNetwork(WeightStore::build(cfg))
{
}

DenoisingNetwork::DenoisingNetwork(std::shared_ptr<const WeightStore> store)
    : cfg_(store->config()), store_(std::move(store))
{
    EXION_ASSERT(!cfg_.stages.empty(), "network needs at least one stage");
    const WeightStore &ws = *store_;

    const Index d_in = cfg_.stages.front().dModel;
    inProj_ = Linear::fromStore(ws, "inProj", cfg_.latentDim, d_in);
    outProj_ = Linear::fromStore(ws, "outProj", cfg_.stages.back().dModel,
                                 cfg_.latentDim);
    condEmbed_ = ws.matrix("condEmbed", 1, d_in);

    int block_id = 0;
    Index prev_d = d_in;
    Index stage_id = 0;
    for (const auto &sc : cfg_.stages) {
        const std::string sp = "s" + std::to_string(stage_id++);
        Stage stage;
        stage.cfg = sc;
        if (sc.dModel != prev_d)
            stage.channelProj = Linear::fromStore(ws, sp + ".channelProj",
                                                  prev_d, sc.dModel);
        stage.timeProj = Linear::fromStore(ws, sp + ".timeProj",
                                           kTimeEmbedDim, sc.dModel);
        for (Index i = 0; i < sc.nResBlocks; ++i)
            stage.resBlocks.emplace_back(
                ws, sp + ".res" + std::to_string(i), sc.dModel);
        for (Index i = 0; i < sc.nBlocks; ++i)
            stage.blocks.emplace_back(block_id++, sc, cfg_.geglu, ws);
        prev_d = sc.dModel;
        stages_.push_back(std::move(stage));
    }
    for (const auto &stage : stages_)
        for (const auto &blk : stage.blocks)
            blockPtrs_.push_back(&blk);
}

Matrix
DenoisingNetwork::forward(const Matrix &x, int timestep,
                          BlockExecutor &exec) const
{
    // A throw, not an assertion: with the stack and the members out of
    // step, attention would mix members' tokens without a sign.
    const Index segments = exec.memberCount();
    if (x.rows() != segments * cfg_.latentTokens
        || x.cols() != cfg_.latentDim)
        throw std::invalid_argument(
            "forward over a " + std::to_string(x.rows()) + "x"
            + std::to_string(x.cols()) + " stack on an executor stepping "
            + std::to_string(segments) + " members of "
            + std::to_string(cfg_.latentTokens) + "x"
            + std::to_string(cfg_.latentDim) + " latents");
    Matrix h = inProj_.forward(x);
    addRowVector(h, condEmbed_);
    const Matrix t_emb = timestepEmbedding(timestep, kTimeEmbedDim);

    const bool unet = cfg_.type != NetworkType::TransformerOnly
        && stages_.size() >= 3;
    std::vector<Matrix> skips;

    Index cur_tokens = cfg_.latentTokens;
    for (Index s = 0; s < stages_.size(); ++s) {
        const Stage &stage = stages_[s];
        const Index want = stage.cfg.tokens;

        // Skip connection: decoder stages mirror encoder stages.
        const bool upsampling = want > cur_tokens;

        if (want < cur_tokens) {
            if (unet)
                skips.push_back(h);
            const Index factor = cur_tokens / want;
            // Pool groups must not straddle segment boundaries, or a
            // stacked pool would mix members' tokens.
            EXION_ASSERT(cur_tokens % factor == 0,
                         "pool factor ", factor, " straddles segments "
                         "of ", cur_tokens, " tokens");
            h = downsampleTokens(h, factor);
        } else if (want > cur_tokens) {
            h = upsampleTokens(h, want / cur_tokens);
        }
        cur_tokens = want;

        if (stage.channelProj.inDim() != 0)
            h = stage.channelProj.forward(h);

        if (unet && upsampling && !skips.empty()) {
            const Matrix &skip = skips.back();
            if (skip.rows() == h.rows() && skip.cols() == h.cols()) {
                h = add(h, skip);
                skips.pop_back();
            }
        }

        // Members step in lockstep: one time projection conditions
        // every segment.
        addRowVector(h, stage.timeProj.forward(t_emb));

        for (const auto &res : stage.resBlocks)
            h = res.forward(h);
        for (const auto &blk : stage.blocks)
            h = blk.forward(h, exec);
    }

    return outProj_.forward(h);
}

} // namespace exion
