/**
 * @file
 * Residual convolution block of type-2 (UNet w/ ResBlock) networks.
 *
 * Functionally modelled as two channel-mixing linears with GELU and a
 * residual connection (the 1x1-equivalent of the paper's conv pairs).
 * ResBlocks receive no sparsity optimisation in EXION (Section V-C);
 * op counting at full scale uses the 3x3-kernel cost analytically in
 * OpCounter.
 */

#ifndef EXION_MODEL_RESBLOCK_H_
#define EXION_MODEL_RESBLOCK_H_

#include "exion/model/layers.h"

namespace exion
{

/**
 * Residual block: x + Conv(GELU(Conv(GN(x)))).
 */
class ResBlock
{
  public:
    /**
     * d x d block viewing a WeightStore's "<prefix>.conv1" /
     * "<prefix>.conv2" layers. Borrows storage: the store must outlive
     * the block.
     * @throws WeightStoreError as Linear::fromStore does
     */
    ResBlock(const WeightStore &ws, const std::string &prefix,
             Index d_model);

    /**
     * Applies the block to x (tokens x d_model). Every op here
     * (norm, channel-mixing linears, GELU, residual) is
     * row-independent, so a cohort stack of several members' tokens
     * passes through unchanged — each member's rows equal a solo
     * forward bit for bit.
     */
    Matrix forward(const Matrix &x) const;

    /** Channel width. */
    Index dModel() const { return conv1_.inDim(); }

  private:
    Linear conv1_;
    Linear conv2_;
    Matrix normGamma_;
    Matrix normBeta_;
};

} // namespace exion

#endif // EXION_MODEL_RESBLOCK_H_
