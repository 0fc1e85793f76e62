#include "exion/model/transformer_block.h"

#include "exion/model/weight_store.h"
#include "exion/tensor/ops.h"

namespace exion
{

TransformerBlock::TransformerBlock(int id, const StageConfig &stage,
                                   bool geglu, const WeightStore &ws)
    : id_(id), dModel_(stage.dModel), nHeads_(stage.nHeads), geglu_(geglu),
      scoreTemp_(stage.scoreTemp)
{
    const std::string bp = "blk" + std::to_string(id);
    const Index d = dModel_;
    const Index hid = stage.ffnMult * d;
    if (nHeads_ == 0 || d % nHeads_ != 0)
        throw WeightStoreError("weight store: " + bp + " has "
                               + std::to_string(nHeads_)
                               + " heads, which do not divide d_model "
                               + std::to_string(d));
    wq_ = Linear::fromStore(ws, bp + ".wq", d, d);
    wk_ = Linear::fromStore(ws, bp + ".wk", d, d);
    wv_ = Linear::fromStore(ws, bp + ".wv", d, d);
    wo_ = Linear::fromStore(ws, bp + ".wo", d, d);
    ffn1_ = Linear::fromStore(ws, bp + ".ffn1", d, hid);
    ffn2_ = Linear::fromStore(ws, bp + ".ffn2", hid, d);
    if (geglu_)
        ffn1Value_ = Linear::fromStore(ws, bp + ".ffn1v", d, hid);
    ln1Gamma_ = Matrix(1, d, 1.0f);
    ln1Beta_ = Matrix(1, d, 0.0f);
    ln2Gamma_ = Matrix(1, d, 1.0f);
    ln2Beta_ = Matrix(1, d, 0.0f);
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

const TransformerBlock::FfnTransposes &
TransformerBlock::ffn1Transposed() const
{
    DerivedCache &cache = *derived_;
    std::call_once(cache.ffnOnce, [&] {
        cache.ffn.w1t = transpose(ffn1_.weight());
        if (geglu_)
            cache.ffn.w1vt = transpose(ffn1Value_.weight());
    });
    return cache.ffn;
}

const EpWeightImages &
TransformerBlock::epWeightImages(LodMode mode) const
{
    const int slot = mode == LodMode::Single ? 0 : 1;
    DerivedCache &cache = *derived_;
    std::call_once(cache.epOnce[slot], [&] {
        EpWeightImages &img = cache.epImages[slot];
        buildProjectionImages(wq_.weight(), nHeads_, mode, img.wqValues,
                              img.wq);
        buildProjectionImages(wk_.weight(), nHeads_, mode, img.wkValues,
                              img.wk);
    });
    return cache.epImages[slot];
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
