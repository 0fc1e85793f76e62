#include "exion/model/resblock.h"

#include "exion/common/rng.h"
#include "exion/tensor/ops.h"

namespace exion
{

ResBlock::ResBlock(Index d_model, Rng &rng)
    : conv1_(d_model, d_model, rng), conv2_(d_model, d_model, rng),
      normGamma_(1, d_model, 1.0f), normBeta_(1, d_model, 0.0f)
{
}

ResBlock::ResBlock(const WeightStore &ws, const std::string &prefix)
    : conv1_(Linear::fromStore(ws, prefix + ".conv1")),
      conv2_(Linear::fromStore(ws, prefix + ".conv2")),
      normGamma_(1, conv1_.inDim(), 1.0f),
      normBeta_(1, conv1_.inDim(), 0.0f)
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
