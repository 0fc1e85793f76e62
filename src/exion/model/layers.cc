#include "exion/model/layers.h"

#include <cmath>
#include <limits>

#include "exion/model/weight_store.h"
#include "exion/tensor/ops.h"

namespace exion
{

Linear
Linear::fromStore(const WeightStore &ws, const std::string &name, Index in,
                  Index out)
{
    Linear lin;
    lin.weight_ = ws.matrix(name + ".w", in, out);
    lin.bias_ = ws.matrix(name + ".b", 1, out);
    return lin;
}

Matrix
Linear::forward(const Matrix &x) const
{
    Matrix y = matmul(x, weight_);
    addRowVector(y, bias_);
    return y;
}

float
geluScalar(float x)
{
    // tanh approximation of GELU.
    const float c = 0.7978845608028654f; // sqrt(2/pi)
    const float inner = c * (x + 0.044715f * x * x * x);
    return 0.5f * x * (1.0f + std::tanh(inner));
}

Matrix
gelu(const Matrix &x)
{
    Matrix y(x.rows(), x.cols());
    for (Index i = 0; i < x.size(); ++i)
        y.data()[i] = geluScalar(x.data()[i]);
    return y;
}

Matrix
layerNorm(const Matrix &x, const Matrix &gamma, const Matrix &beta)
{
    EXION_ASSERT(gamma.rows() == 1 && gamma.cols() == x.cols()
                     && beta.rows() == 1 && beta.cols() == x.cols(),
                 "layerNorm parameter shape mismatch");
    Matrix y(x.rows(), x.cols());
    const float eps = 1e-5f;
    for (Index r = 0; r < x.rows(); ++r) {
        const float *row = x.rowPtr(r);
        double sum = 0.0;
        for (Index c = 0; c < x.cols(); ++c)
            sum += row[c];
        const double mu = sum / static_cast<double>(x.cols());
        double var = 0.0;
        for (Index c = 0; c < x.cols(); ++c) {
            const double d = row[c] - mu;
            var += d * d;
        }
        var /= static_cast<double>(x.cols());
        const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
        float *out = y.rowPtr(r);
        for (Index c = 0; c < x.cols(); ++c) {
            out[c] = (row[c] - static_cast<float>(mu)) * inv
                * gamma(0, c) + beta(0, c);
        }
    }
    return y;
}

Matrix
softmax(const Matrix &x)
{
    Matrix y(x.rows(), x.cols());
    for (Index r = 0; r < x.rows(); ++r) {
        const float *row = x.rowPtr(r);
        float max_v = -std::numeric_limits<float>::infinity();
        for (Index c = 0; c < x.cols(); ++c)
            max_v = std::max(max_v, row[c]);
        float *out = y.rowPtr(r);
        if (max_v == -std::numeric_limits<float>::infinity()) {
            // Whole row masked: define output as zeros.
            for (Index c = 0; c < x.cols(); ++c)
                out[c] = 0.0f;
            continue;
        }
        double denom = 0.0;
        for (Index c = 0; c < x.cols(); ++c) {
            const float e = std::exp(row[c] - max_v);
            out[c] = e;
            denom += e;
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (Index c = 0; c < x.cols(); ++c)
            out[c] *= inv;
    }
    return y;
}

Matrix
timestepEmbedding(int timestep, Index dim)
{
    Matrix emb(1, dim);
    const Index half = dim / 2;
    for (Index i = 0; i < half; ++i) {
        const double freq = std::exp(
            -std::log(10000.0) * static_cast<double>(i)
            / static_cast<double>(half));
        const double angle = timestep * freq;
        emb(0, i) = static_cast<float>(std::sin(angle));
        emb(0, half + i) = static_cast<float>(std::cos(angle));
    }
    return emb;
}

} // namespace exion
