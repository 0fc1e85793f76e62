#include "exion/model/transformer_block.h"

#include "exion/common/rng.h"
#include "exion/model/weight_store.h"
#include "exion/tensor/ops.h"

namespace exion
{

TransformerBlock::TransformerBlock(int id, Index d_model, Index n_heads,
                                   Index ffn_mult, bool geglu, Rng &rng,
                                   double score_temp)
    : id_(id), dModel_(d_model), nHeads_(n_heads), geglu_(geglu),
      scoreTemp_(score_temp),
      wq_(d_model, d_model, rng), wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng), wo_(d_model, d_model, rng),
      ffn1_(d_model, ffn_mult * d_model, rng),
      ffn2_(ffn_mult * d_model, d_model, rng),
      ln1Gamma_(1, d_model, 1.0f), ln1Beta_(1, d_model, 0.0f),
      ln2Gamma_(1, d_model, 1.0f), ln2Beta_(1, d_model, 0.0f)
{
    EXION_ASSERT(d_model % n_heads == 0,
                 "d_model ", d_model, " not divisible by heads ", n_heads);
    if (geglu_)
        ffn1Value_ = Linear(d_model, ffn_mult * d_model, rng);
}

TransformerBlock::TransformerBlock(int id, Index d_model, Index n_heads,
                                   bool geglu, double score_temp,
                                   const WeightStore &ws)
    : id_(id), dModel_(d_model), nHeads_(n_heads), geglu_(geglu),
      scoreTemp_(score_temp),
      ln1Gamma_(1, d_model, 1.0f), ln1Beta_(1, d_model, 0.0f),
      ln2Gamma_(1, d_model, 1.0f), ln2Beta_(1, d_model, 0.0f)
{
    EXION_ASSERT(d_model % n_heads == 0,
                 "d_model ", d_model, " not divisible by heads ", n_heads);
    const std::string bp = "blk" + std::to_string(id);
    wq_ = Linear::fromStore(ws, bp + ".wq");
    wk_ = Linear::fromStore(ws, bp + ".wk");
    wv_ = Linear::fromStore(ws, bp + ".wv");
    wo_ = Linear::fromStore(ws, bp + ".wo");
    ffn1_ = Linear::fromStore(ws, bp + ".ffn1");
    ffn2_ = Linear::fromStore(ws, bp + ".ffn2");
    ffnAtRest_.w1t = ws.matrix(bp + ".ffn1.wT");
    ffnAtRest_.qw1t = ws.quant(bp + ".ffn1.wT.q");
    if (geglu_) {
        ffn1Value_ = Linear::fromStore(ws, bp + ".ffn1v");
        ffnAtRest_.w1vt = ws.matrix(bp + ".ffn1v.wT");
        ffnAtRest_.qw1vt = ws.quant(bp + ".ffn1v.wT.q");
    }
    EXION_ASSERT(wq_.inDim() == dModel_ && ffn1_.inDim() == dModel_,
                 "store shapes disagree with block ", id, " config");
}

namespace
{

/** Fills images with the LOD images of w's head slices. */
void
buildProjectionImages(const Matrix &w, Index n_heads, LodMode mode,
                      std::vector<i32> &values,
                      std::vector<QuantMatrix> &heads)
{
    const Index d = w.rows();
    const Index dh = w.cols() / n_heads;
    values.assign(d * w.cols(), 0);
    heads.clear();
    for (Index h = 0; h < n_heads; ++h) {
        const QuantMatrix q = QuantMatrix::fromFloat(
            sliceCols(w, h * dh, dh), IntWidth::Int12);
        for (Index r = 0; r < d; ++r)
            for (Index c = 0; c < dh; ++c)
                values[r * w.cols() + h * dh + c] =
                    lodImage(q(r, c), mode);
        heads.push_back(QuantMatrix::borrowStrided(
            values.data() + h * dh, d, dh, w.cols(), q.params()));
    }
}

} // namespace

const EpWeightImages &
TransformerBlock::epWeightImages(LodMode mode) const
{
    const int slot = mode == LodMode::Single ? 0 : 1;
    EpImageCache &cache = *epImages_;
    std::call_once(cache.once[slot], [&] {
        EpWeightImages &img = cache.images[slot];
        buildProjectionImages(wq_.weight(), nHeads_, mode, img.wqValues,
                              img.wq);
        buildProjectionImages(wk_.weight(), nHeads_, mode, img.wkValues,
                              img.wk);
    });
    return cache.images[slot];
}

Matrix
TransformerBlock::forward(const Matrix &x, BlockExecutor &exec) const
{
    const Matrix x_norm = layerNorm(x, ln1Gamma_, ln1Beta_);
    const Matrix attn = exec.attention(*this, x_norm);
    const Matrix h = add(x, attn);
    const Matrix h_norm = layerNorm(h, ln2Gamma_, ln2Beta_);
    const Matrix f = exec.ffn(*this, h_norm);
    return add(h, f);
}

} // namespace exion
