/**
 * @file
 * Deterministic DDIM reverse-denoising scheduler.
 *
 * Only the inference-phase reverse process matters for EXION
 * (Section II-A); we use DDIM with eta = 0 so runs are reproducible and
 * the latent evolves smoothly between iterations — the property
 * FFN-Reuse exploits.
 *
 * One step function, in place over a row range, serves solo runs (all
 * rows) and cohorts (each member's segment), so the two share their
 * arithmetic by construction.
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
     * One reverse step, in place, on rows [r0, r0+rows) of x:
     * x_{t_next} from x_t and the same rows of the predicted noise.
     * A solo run steps all of its rows; a cohort steps each member's
     * row segment of its stack, with the same per-element arithmetic,
     * so each member's rows are bit-identical to its solo run.
     *
     * @param x       current latent(s), overwritten
     * @param eps_hat network-predicted noise at timestep(i)
     * @param i       inference iteration index (0 = most noisy)
     * @param r0      first row stepped
     * @param rows    number of rows stepped
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
