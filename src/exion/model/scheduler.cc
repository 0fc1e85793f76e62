#include "exion/model/scheduler.h"

#include <cmath>

#include "exion/common/logging.h"

namespace exion
{

DdimScheduler::DdimScheduler(int inference_steps, int train_steps)
{
    EXION_ASSERT(inference_steps > 0 && train_steps >= inference_steps,
                 "scheduler steps ", inference_steps, "/", train_steps);

    // Linear beta schedule (DDPM defaults).
    const double beta_start = 1e-4;
    const double beta_end = 0.02;
    alphaBar_.resize(train_steps);
    double prod = 1.0;
    for (int t = 0; t < train_steps; ++t) {
        const double beta = beta_start
            + (beta_end - beta_start) * t
                / static_cast<double>(train_steps - 1);
        prod *= 1.0 - beta;
        alphaBar_[t] = prod;
    }

    // Evenly spaced timesteps, descending from the noisiest.
    steps_.resize(inference_steps);
    for (int i = 0; i < inference_steps; ++i) {
        const double frac = static_cast<double>(inference_steps - 1 - i)
            / static_cast<double>(inference_steps);
        steps_[i] = static_cast<int>(frac * (train_steps - 1));
    }
}

int
DdimScheduler::timestep(int i) const
{
    EXION_ASSERT(i >= 0 && i < inferenceSteps(), "iteration ", i);
    return steps_[i];
}

double
DdimScheduler::alphaBar(int t) const
{
    EXION_ASSERT(t >= 0 && t < static_cast<int>(alphaBar_.size()),
                 "timestep ", t);
    return alphaBar_[t];
}

void
DdimScheduler::stepRowsInPlace(Matrix &x, const Matrix &eps_hat, int i,
                               Index r0, Index rows) const
{
    EXION_ASSERT(x.rows() == eps_hat.rows()
                     && x.cols() == eps_hat.cols()
                     && r0 + rows <= x.rows(),
                 "stepRowsInPlace shape/range mismatch");
    const int t = timestep(i);
    const bool last = (i + 1 >= inferenceSteps());
    const double ab_t = alphaBar(t);
    const double ab_next = last ? 1.0 : alphaBar(timestep(i + 1));

    const float sqrt_ab_t = static_cast<float>(std::sqrt(ab_t));
    const float sqrt_1m_ab_t =
        static_cast<float>(std::sqrt(1.0 - ab_t));
    const float sqrt_ab_next = static_cast<float>(std::sqrt(ab_next));
    const float sqrt_1m_ab_next =
        static_cast<float>(std::sqrt(1.0 - ab_next));
    // x0 prediction (eps*s, subtract, multiply by the reciprocal),
    // then the deterministic DDIM update (two scaled terms added), per
    // element and allocation-free.
    const float inv_sqrt_ab_t = 1.0f / sqrt_ab_t;

    for (Index r = r0; r < r0 + rows; ++r) {
        float *xrow = x.rowPtr(r);
        const float *erow = eps_hat.rowPtr(r);
        for (Index c = 0; c < x.cols(); ++c) {
            const float e = erow[c];
            const float x0 = (xrow[c] - e * sqrt_1m_ab_t)
                * inv_sqrt_ab_t;
            xrow[c] = x0 * sqrt_ab_next + e * sqrt_1m_ab_next;
        }
    }
}

} // namespace exion
