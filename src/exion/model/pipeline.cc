#include "exion/model/pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "exion/common/rng.h"
#include "exion/tensor/ops.h"

namespace exion
{

DiffusionPipeline::DiffusionPipeline(const ModelConfig &cfg)
    : network_(cfg), scheduler_(cfg.iterations)
{
}

DiffusionPipeline::DiffusionPipeline(
    std::shared_ptr<const WeightStore> store)
    : network_(std::move(store)),
      scheduler_(network_.config().iterations)
{
}

Matrix
DiffusionPipeline::run(BlockExecutor &exec, u64 noise_seed) const
{
    RunOptions opts;
    opts.noiseSeed = noise_seed;
    return run(exec, opts);
}

Matrix
DiffusionPipeline::run(BlockExecutor &exec, const RunOptions &opts) const
{
    const ModelConfig &cfg = network_.config();
    Rng rng(opts.noiseSeed);
    Matrix x(cfg.latentTokens, cfg.latentDim);
    x.fillNormal(rng, 0.0f, 1.0f);

    for (int i = 0; i < scheduler_.inferenceSteps(); ++i) {
        exec.beginIteration(i);
        const Matrix eps = network_.forward(x, scheduler_.timestep(i),
                                            exec);
        scheduler_.stepInPlace(x, eps, i);
        if (opts.onIteration)
            opts.onIteration(i, x);
    }
    return x;
}

CohortRun::CohortRun(const DiffusionPipeline &pipe, BlockExecutor &exec)
    : pipe_(&pipe), exec_(&exec)
{
}

Index
CohortRun::join(u64 noise_seed)
{
    if (iteration_ > 0)
        throw std::logic_error(
            "cohort join after step " + std::to_string(iteration_)
            + ": members step in lockstep");
    const ModelConfig &cfg = pipe_->config();
    const Index tokens = cfg.latentTokens;
    // Seed exactly like a solo run so the member's rows are
    // bit-identical to DiffusionPipeline::run(noise_seed).
    Rng rng(noise_seed);
    Matrix latent(tokens, cfg.latentDim);
    latent.fillNormal(rng, 0.0f, 1.0f);

    const Index slot = members_.size();
    Matrix grown(stacked_.rows() + tokens, cfg.latentDim);
    std::copy(stacked_.data().begin(), stacked_.data().end(),
              grown.data().begin());
    pasteRows(grown, latent, stacked_.rows());
    stacked_ = std::move(grown);
    stackOrder_.push_back(slot);
    members_.push_back(Member{});
    return slot;
}

void
CohortRun::leave(Index slot)
{
    EXION_ASSERT(slot < members_.size(), "cohort slot ", slot);
    Member &member = members_[slot];
    if (member.state != State::Active)
        return;
    member.state = State::Left;
    // Cut the member's rows out of the stack.
    const Index pos = std::find(stackOrder_.begin(), stackOrder_.end(), slot)
        - stackOrder_.begin();
    const Index tokens = pipe_->config().latentTokens;
    Matrix shrunk(stacked_.rows() - tokens, stacked_.cols());
    const auto &src = stacked_.data();
    auto &dst = shrunk.data();
    const Index cut = pos * tokens * stacked_.cols();
    const Index cut_len = tokens * stacked_.cols();
    std::copy(src.begin(), src.begin() + cut, dst.begin());
    std::copy(src.begin() + cut + cut_len, src.end(),
              dst.begin() + cut);
    stacked_ = std::move(shrunk);
    stackOrder_.erase(stackOrder_.begin() + pos);
}

std::vector<Index>
CohortRun::step()
{
    const ModelConfig &cfg = pipe_->config();
    const DdimScheduler &sched = pipe_->scheduler();
    const Index tokens = cfg.latentTokens;

    std::vector<Index> finished;
    if (stackOrder_.empty())
        return finished;
    exec_->beginCohortStep(
        stackOrder_, std::vector<int>(stackOrder_.size(), iteration_));
    const Matrix eps = pipe_->network().forward(
        stacked_, sched.timestep(iteration_), *exec_);
    sched.stepInPlace(stacked_, eps, iteration_);
    if (++iteration_ < sched.inferenceSteps())
        return finished;

    // The last iteration: every member finishes.
    for (Index pos = 0; pos < stackOrder_.size(); ++pos) {
        Member &member = members_[stackOrder_[pos]];
        member.latent = sliceRows(stacked_, pos * tokens, tokens);
        member.state = State::Finished;
    }
    finished.swap(stackOrder_);
    stacked_ = Matrix();
    return finished;
}

Index
CohortRun::activeCount() const
{
    return stackOrder_.size();
}

bool
CohortRun::isActive(Index slot) const
{
    EXION_ASSERT(slot < members_.size(), "cohort slot ", slot);
    return members_[slot].state == State::Active;
}

bool
CohortRun::isFinished(Index slot) const
{
    EXION_ASSERT(slot < members_.size(), "cohort slot ", slot);
    return members_[slot].state == State::Finished;
}

Matrix
CohortRun::takeResult(Index slot)
{
    EXION_ASSERT(slot < members_.size()
                     && members_[slot].state == State::Finished,
                 "takeResult of unfinished cohort slot ", slot);
    return std::move(members_[slot].latent);
}

} // namespace exion
