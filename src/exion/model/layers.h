/**
 * @file
 * Primitive neural-network layers of the transformer block (Fig. 3b).
 */

#ifndef EXION_MODEL_LAYERS_H_
#define EXION_MODEL_LAYERS_H_

#include <string>

#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

class Rng;
class WeightStore;

/**
 * Fully connected layer: y = x W + b.
 */
class Linear
{
  public:
    /** Uninitialised (empty) layer. */
    Linear() = default;

    /** in x out layer with N(0, 1/sqrt(in)) weights, zero bias. */
    Linear(Index in, Index out, Rng &rng);

    /**
     * Layer viewing a WeightStore's tensors "<name>.w" / "<name>.b",
     * with the at-rest INT12 image "<name>.w.q" attached when present.
     * Borrows storage: the store must outlive the layer.
     */
    static Linear fromStore(const WeightStore &ws,
                            const std::string &name);

    /** Applies the layer to x (rows = tokens). */
    Matrix forward(const Matrix &x) const;

    /** Weight matrix (in x out). */
    const Matrix &weight() const { return weight_; }

    /** Bias row vector (1 x out). */
    const Matrix &bias() const { return bias_; }

    /**
     * Quantized-at-rest INT12 weight image (empty unless the layer
     * came from a WeightStore). Identical to
     * QuantMatrix::fromFloat(weight(), IntWidth::Int12) — the store
     * snapshots the same deterministic quantisation — so consumers
     * skip the per-request quantisation, not change its numerics.
     */
    const QuantMatrix &quantWeight() const { return quantWeight_; }

    /** Whether an at-rest quantized weight image is attached. */
    bool hasQuantWeight() const
    {
        return quantWeight_.rows() == weight_.rows()
            && quantWeight_.cols() == weight_.cols()
            && weight_.size() != 0;
    }

    /** Mutable weight access (tests / custom initialisation; never
        paired with an at-rest quant image). */
    Matrix &weight() { return weight_; }

    /** Mutable bias access. */
    Matrix &bias() { return bias_; }

    /** Input width. */
    Index inDim() const { return weight_.rows(); }

    /** Output width. */
    Index outDim() const { return weight_.cols(); }

  private:
    Matrix weight_;
    Matrix bias_;
    QuantMatrix quantWeight_;
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
