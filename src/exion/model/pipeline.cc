#include "exion/model/pipeline.h"

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
        scheduler_.stepRowsInPlace(x, eps, i, 0, x.rows());
        if (opts.onIteration)
            opts.onIteration(i, x);
    }
    return x;
}

std::vector<Matrix>
DiffusionPipeline::runCohort(CohortBlockExecutor &exec,
                             const std::vector<u64> &seeds) const
{
    CohortRun run(*this, exec);
    std::vector<Index> slots;
    slots.reserve(seeds.size());
    for (u64 seed : seeds)
        slots.push_back(run.join(seed));
    while (!run.done())
        run.step();
    std::vector<Matrix> outputs;
    outputs.reserve(seeds.size());
    for (Index slot : slots)
        outputs.push_back(run.takeResult(slot));
    return outputs;
}

CohortRun::CohortRun(const DiffusionPipeline &pipe,
                     CohortBlockExecutor &exec)
    : pipe_(&pipe), exec_(&exec)
{
}

Index
CohortRun::join(u64 noise_seed)
{
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
CohortRun::removeFromStack(Index pos)
{
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

void
CohortRun::leave(Index slot)
{
    EXION_ASSERT(slot < members_.size(), "cohort slot ", slot);
    Member &member = members_[slot];
    if (member.state != State::Active)
        return;
    member.state = State::Left;
    for (Index pos = 0; pos < stackOrder_.size(); ++pos) {
        if (stackOrder_[pos] == slot) {
            removeFromStack(pos);
            break;
        }
    }
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
    std::vector<int> iterations;
    std::vector<int> timesteps;
    iterations.reserve(stackOrder_.size());
    timesteps.reserve(stackOrder_.size());
    for (Index slot : stackOrder_) {
        iterations.push_back(members_[slot].iteration);
        timesteps.push_back(sched.timestep(members_[slot].iteration));
    }

    exec_->beginCohortStep(stackOrder_, iterations);
    const Matrix eps = pipe_->network().forward(stacked_, timesteps,
                                                *exec_);

    for (Index m = 0; m < stackOrder_.size(); ++m) {
        Member &member = members_[stackOrder_[m]];
        sched.stepRowsInPlace(stacked_, eps, member.iteration,
                              m * tokens, tokens);
        ++member.iteration;
        if (member.iteration >= sched.inferenceSteps())
            finished.push_back(stackOrder_[m]);
    }
    // Extract finished members' rows and compact the stack, from the
    // back so earlier positions stay valid.
    for (Index i = finished.size(); i-- > 0;) {
        const Index slot = finished[i];
        Index pos = 0;
        while (stackOrder_[pos] != slot)
            ++pos;
        Member &member = members_[slot];
        member.latent = sliceRows(stacked_, pos * tokens, tokens);
        member.state = State::Finished;
        removeFromStack(pos);
    }
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

int
CohortRun::iterationOf(Index slot) const
{
    EXION_ASSERT(slot < members_.size(), "cohort slot ", slot);
    return members_[slot].iteration;
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
