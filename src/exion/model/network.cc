#include "exion/model/network.h"

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
    EXION_ASSERT(x.rows() == cfg_.latentTokens
                     && x.cols() == cfg_.latentDim,
                 "latent shape (", x.rows(), ",", x.cols(), ") vs config");
    return forwardImpl(x, &timestep, /*segments=*/1, exec);
}

Matrix
DenoisingNetwork::forward(const Matrix &x,
                          const std::vector<int> &timesteps,
                          BlockExecutor &exec) const
{
    const Index segments = timesteps.size();
    EXION_ASSERT(segments > 0, "cohort forward needs >= 1 segment");
    EXION_ASSERT(x.rows() == segments * cfg_.latentTokens
                     && x.cols() == cfg_.latentDim,
                 "stacked latent shape (", x.rows(), ",", x.cols(),
                 ") vs ", segments, " segments of config");
    return forwardImpl(x, timesteps.data(), segments, exec);
}

Matrix
DenoisingNetwork::forwardImpl(const Matrix &x, const int *timesteps,
                              Index segments, BlockExecutor &exec) const
{
    Matrix h = inProj_.forward(x);
    addRowVector(h, condEmbed_);

    // Per-segment timestep embeddings. Cohort members usually step in
    // lockstep, so consecutive equal timesteps share one embedding —
    // bit-identical to recomputing it (the function is
    // deterministic), but computed once per distinct value.
    std::vector<Matrix> t_embs(segments);
    for (Index m = 0; m < segments; ++m) {
        t_embs[m] = m > 0 && timesteps[m] == timesteps[m - 1]
            ? t_embs[m - 1]
            : timestepEmbedding(timesteps[m], kTimeEmbedDim);
    }

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

        // Time conditioning per segment; lockstep members share one
        // projection (amortised weight traversal, identical bits).
        Matrix t_proj;
        for (Index m = 0; m < segments; ++m) {
            if (m == 0 || timesteps[m] != timesteps[m - 1])
                t_proj = stage.timeProj.forward(t_embs[m]);
            addRowVectorToRows(h, t_proj, m * cur_tokens, cur_tokens);
        }

        for (const auto &res : stage.resBlocks)
            h = res.forward(h);
        for (const auto &blk : stage.blocks)
            h = blk.forward(h, exec);
    }

    return outProj_.forward(h);
}

} // namespace exion
