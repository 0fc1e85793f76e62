#include "exion/model/resblock.h"

#include "exion/tensor/ops.h"

namespace exion
{

ResBlock::ResBlock(const WeightStore &ws, const std::string &prefix,
                   Index d_model)
    : conv1_(Linear::fromStore(ws, prefix + ".conv1", d_model, d_model)),
      conv2_(Linear::fromStore(ws, prefix + ".conv2", d_model, d_model)),
      normGamma_(1, d_model, 1.0f), normBeta_(1, d_model, 0.0f)
{
}

Matrix
ResBlock::forward(const Matrix &x) const
{
    const Matrix n = layerNorm(x, normGamma_, normBeta_);
    const Matrix h = gelu(conv1_.forward(n));
    const Matrix out = conv2_.forward(h);
    return add(x, out);
}

} // namespace exion
