/**
 * @file
 * End-to-end diffusion inference pipeline.
 *
 * Owns a denoising network and a scheduler; runs the reverse process
 * from seeded noise to the generated latent under a caller-provided
 * executor — either one request at a time (run()) or as a cohort of
 * requests stepping the reverse process in lockstep with their latents
 * stacked into one tall matrix per iteration (CohortRun). Any
 * BlockExecutor runs either way.
 */

#ifndef EXION_MODEL_PIPELINE_H_
#define EXION_MODEL_PIPELINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "exion/model/network.h"
#include "exion/model/scheduler.h"

namespace exion
{

/**
 * Per-request run parameters.
 *
 * Everything that varies between two denoising requests against the
 * same pipeline lives here, so one immutable pipeline can serve many
 * concurrent requests.
 */
struct RunOptions
{
    /** Seed for the initial Gaussian latent. */
    u64 noiseSeed = 7;
    /** Optional per-iteration hook (iteration index, current latent). */
    std::function<void(int, const Matrix &)> onIteration;
};

/**
 * Diffusion inference driver.
 *
 * After construction the pipeline is immutable (all weights fixed);
 * run() is const and safe to call from multiple threads concurrently
 * as long as each caller brings its own executor. Per-run hooks go in
 * RunOptions.
 */
class DiffusionPipeline
{
  public:
    /** The pipeline over WeightStore::build(cfg). */
    explicit DiffusionPipeline(const ModelConfig &cfg);

    /**
     * Builds the pipeline over an existing WeightStore: every layer
     * borrows the (possibly mmap'd, possibly shared-across-engines)
     * store's tensors.
     * @throws WeightStoreError as DenoisingNetwork's store constructor
     */
    explicit DiffusionPipeline(std::shared_ptr<const WeightStore> store);

    /**
     * Runs the full reverse process.
     *
     * @param exec       block execution strategy
     * @param noise_seed seed for the initial Gaussian latent
     * @return           final generated latent
     */
    Matrix run(BlockExecutor &exec, u64 noise_seed = 7) const;

    /**
     * Runs the full reverse process with per-request options.
     *
     * Thread-safe: touches no pipeline state besides the immutable
     * network/scheduler.
     */
    Matrix run(BlockExecutor &exec, const RunOptions &opts) const;

    /** Underlying network. */
    const DenoisingNetwork &network() const { return network_; }

    /** Underlying scheduler. */
    const DdimScheduler &scheduler() const { return scheduler_; }

    /** Model configuration. */
    const ModelConfig &config() const { return network_.config(); }

    /** The weight store backing the network. */
    const std::shared_ptr<const WeightStore> &store() const
    {
        return network_.store();
    }

  private:
    DenoisingNetwork network_;
    DdimScheduler scheduler_;
};

/**
 * A cohort of denoising requests stepping the reverse process in one
 * stacked pass per iteration.
 *
 * Members join with their own noise seed before the first step(); the
 * cohort then steps in lockstep. Each step() runs every active
 * member's latent, stacked into one tall matrix, through one network
 * forward at the cohort's one timestep and one scheduler step, so all
 * members finish on the same step. leave() removes a member mid-flight
 * (e.g. a cancelled request); removing one member never perturbs the
 * others' rows.
 *
 * Bit-identity contract: a member's final latent equals a solo
 * DiffusionPipeline::run() with the same seed and an executor built
 * alike, in every execution mode.
 *
 * Not thread-safe; one driver thread steps a cohort.
 */
class CohortRun
{
  public:
    /**
     * @param pipe the pipeline whose reverse process the cohort steps
     * @param exec the executor; each member's state is its
     *             slotContext() under the slot id join() returns
     */
    CohortRun(const DiffusionPipeline &pipe, BlockExecutor &exec);

    /**
     * Adds a member seeded with its own initial Gaussian latent.
     * @return the member's slot id
     * @throws std::logic_error once the cohort has stepped: members
     *         step in lockstep, so a late joiner would need its own
     *         timestep
     */
    Index join(u64 noise_seed);

    /**
     * Removes an unfinished member mid-flight; its rows leave the
     * stack at the next step(). Finished members need no leave().
     */
    void leave(Index slot);

    /**
     * One denoising iteration for every active member.
     *
     * @return slots of members that finished during this step: none,
     *         or every active member after the last iteration
     */
    std::vector<Index> step();

    /** True when no member has work left. */
    bool done() const { return activeCount() == 0; }

    /** Members still stepping. */
    Index activeCount() const;

    /** Whether a member is still stepping. */
    bool isActive(Index slot) const;

    /** Whether a member completed all iterations. */
    bool isFinished(Index slot) const;

    /** Iterations the cohort has completed so far. */
    int iteration() const { return iteration_; }

    /** Moves a finished member's final latent out. */
    Matrix takeResult(Index slot);

  private:
    enum class State
    {
        Active,
        Finished,
        Left,
    };

    /**
     * Active members' rows live in the persistent stacked_ matrix
     * (no per-iteration restacking); latent holds the final result
     * once a member finishes.
     */
    struct Member
    {
        Matrix latent;
        State state = State::Active;
    };

    const DiffusionPipeline *pipe_;
    BlockExecutor *exec_;
    std::vector<Member> members_;
    Matrix stacked_;                //!< active latents, in stack order
    std::vector<Index> stackOrder_; //!< slot ids of stacked_ segments
    int iteration_ = 0;             //!< every member's next iteration
};

} // namespace exion

#endif // EXION_MODEL_PIPELINE_H_
