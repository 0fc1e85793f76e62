/**
 * @file
 * Deterministic DDIM reverse-denoising scheduler.
 *
 * Only the inference-phase reverse process matters for EXION
 * (Section II-A); we use DDIM with eta = 0 so runs are reproducible and
 * the latent evolves smoothly between iterations — the property
 * FFN-Reuse exploits.
 *
 * One step function, in place over every row, serves solo runs and
 * cohorts: a cohort's members step in lockstep, so one call steps the
 * whole stack with the same per-element arithmetic as a solo run.
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
     * One reverse step, in place: x_{t_next} from x_t and the
     * predicted noise. The arithmetic is per element, so each row
     * segment of a stacked cohort latent steps bit-identically to its
     * solo run.
     *
     * @param x       current latent(s), overwritten
     * @param eps_hat network-predicted noise at timestep(i), x's shape
     * @param i       inference iteration index (0 = most noisy)
     */
    void stepInPlace(Matrix &x, const Matrix &eps_hat, int i) const;

    /** Cumulative alpha-bar at a training timestep. */
    double alphaBar(int t) const;

  private:
    std::vector<int> steps_;       //!< descending training timesteps
    std::vector<double> alphaBar_; //!< cumulative products, size train
};

} // namespace exion

#endif // EXION_MODEL_SCHEDULER_H_
