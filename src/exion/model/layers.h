/**
 * @file
 * Primitive neural-network layers of the transformer block (Fig. 3b).
 */

#ifndef EXION_MODEL_LAYERS_H_
#define EXION_MODEL_LAYERS_H_

#include <string>

#include "exion/tensor/matrix.h"

namespace exion
{

class WeightStore;

/**
 * Fully connected layer: y = x W + b, viewing a WeightStore.
 */
class Linear
{
  public:
    /** Empty layer (an absent projection). */
    Linear() = default;

    /**
     * Layer viewing a WeightStore's in x out weight "<name>.w" and its
     * 1 x out bias "<name>.b". Borrows storage: the store must outlive
     * the layer. A quantized product quantises weight() where it runs
     * (execMatmul), so no integer image is stored.
     * @throws WeightStoreError when a tensor is missing or has another
     *         shape
     */
    static Linear fromStore(const WeightStore &ws, const std::string &name,
                            Index in, Index out);

    /** Applies the layer to x (rows = tokens). */
    Matrix forward(const Matrix &x) const;

    /** Weight matrix (in x out). */
    const Matrix &weight() const { return weight_; }

    /** Bias row vector (1 x out). */
    const Matrix &bias() const { return bias_; }

    /** Input width. */
    Index inDim() const { return weight_.rows(); }

    /** Output width. */
    Index outDim() const { return weight_.cols(); }

  private:
    Matrix weight_;
    Matrix bias_;
};

/** GELU activation (tanh approximation, matching common deployments). */
float geluScalar(float x);

/** Elementwise GELU. */
Matrix gelu(const Matrix &x);

/** Row-wise layer normalisation with learned gamma/beta (1 x cols). */
Matrix layerNorm(const Matrix &x, const Matrix &gamma,
                 const Matrix &beta);

/** Row-wise softmax. Entries equal to -inf produce probability 0. */
Matrix softmax(const Matrix &x);

/** Sinusoidal timestep embedding of width dim. */
Matrix timestepEmbedding(int timestep, Index dim);

} // namespace exion

#endif // EXION_MODEL_LAYERS_H_
