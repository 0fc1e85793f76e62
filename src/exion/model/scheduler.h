/**
 * @file
 * Deterministic DDIM reverse-denoising scheduler.
 *
 * Only the inference-phase reverse process matters for EXION
 * (Section II-A); we use DDIM with eta = 0 so runs are reproducible and
 * the latent evolves smoothly between iterations — the property
 * FFN-Reuse exploits.
 */

#ifndef EXION_MODEL_SCHEDULER_H_
#define EXION_MODEL_SCHEDULER_H_

#include <vector>

#include "exion/tensor/matrix.h"

namespace exion
{

/** Length of the training schedule every pipeline samples from. */
inline constexpr int kTrainSteps = 1000;

/**
 * DDIM scheduler over a linear-beta training schedule.
 */
class DdimScheduler
{
  public:
    /**
     * @param inference_steps denoising iterations at inference, at
     *                        most train_steps
     * @param train_steps     training-schedule length
     */
    explicit DdimScheduler(int inference_steps,
                           int train_steps = kTrainSteps);

    /** Number of inference iterations. */
    int inferenceSteps() const { return static_cast<int>(steps_.size()); }

    /** Training timestep executed at inference iteration i. */
    int timestep(int i) const;

    /**
     * One reverse step: x_{t_next} from x_t and predicted noise.
     *
     * @param x_t      current latent
     * @param eps_hat  network-predicted noise at timestep(i)
     * @param i        inference iteration index (0 = most noisy)
     */
    Matrix step(const Matrix &x_t, const Matrix &eps_hat, int i) const;

    /**
     * In-place reverse step on rows [r0, r0+rows) of a stacked
     * latent, reading the same rows of eps_hat. The per-element
     * arithmetic is identical to step(), so stepping one member's
     * row-segment of a cohort stack is bit-identical to step() on
     * that member's solo latent — without materialising the five
     * temporaries step() allocates.
     */
    void stepRowsInPlace(Matrix &x, const Matrix &eps_hat, int i,
                         Index r0, Index rows) const;

    /** Cumulative alpha-bar at a training timestep. */
    double alphaBar(int t) const;

  private:
    std::vector<int> steps_;       //!< descending training timesteps
    std::vector<double> alphaBar_; //!< cumulative products, size train
};

} // namespace exion

#endif // EXION_MODEL_SCHEDULER_H_
