/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses.
 */

#ifndef EXION_BENCH_BENCH_UTIL_H_
#define EXION_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <string>
#include <vector>

#include "exion/metrics/frechet.h"
#include "exion/metrics/metrics.h"
#include "exion/model/pipeline.h"
#include "exion/sparsity/sparse_executor.h"

namespace exion
{
namespace bench
{

/** Variants of Table I's accuracy evaluation. */
enum class Variant
{
    Vanilla,
    FfnReuse,
    FfnReuseEp,
    FfnReuseEpQuant,
    EpLodOnly,   //!< Fig. 15 ablation: EP with single-step LOD
    EpTsLodOnly, //!< Fig. 15 ablation: EP with two-step LOD
};

inline std::string
variantName(Variant v)
{
    switch (v) {
      case Variant::Vanilla:
        return "Vanilla";
      case Variant::FfnReuse:
        return "FFN-Reuse";
      case Variant::FfnReuseEp:
        return "FFN-Reuse+EP";
      case Variant::FfnReuseEpQuant:
        return "FFN-Reuse+EP+Quant";
      case Variant::EpLodOnly:
        return "EP w/ LOD";
      case Variant::EpTsLodOnly:
        return "EP w/ TS-LOD";
    }
    return "?";
}

/** One accuracy run's outcome. */
struct VariantResult
{
    Matrix output;
    ExecStats stats;
};

/** Runs one pipeline variant on the model. */
inline VariantResult
runVariant(const DiffusionPipeline &pipe, Variant v, u64 noise_seed)
{
    const ModelConfig &cfg = pipe.config();
    VariantResult result;
    if (v == Variant::Vanilla) {
        DenseExecutor exec;
        result.output = pipe.run(exec, noise_seed);
        result.stats = exec.stats();
        return result;
    }
    bool ffnr = true, ep = true, quant = false;
    LodMode mode = LodMode::TwoStep;
    switch (v) {
      case Variant::FfnReuse:
        ep = false;
        break;
      case Variant::FfnReuseEp:
        break;
      case Variant::FfnReuseEpQuant:
        quant = true;
        break;
      case Variant::EpLodOnly:
        ffnr = false;
        mode = LodMode::Single;
        break;
      case Variant::EpTsLodOnly:
        ffnr = false;
        break;
      default:
        break;
    }
    SparseExecutor exec(
        SparseExecutor::fromConfig(cfg, ffnr, ep, quant, mode));
    result.output = pipe.run(exec, noise_seed);
    result.stats = exec.stats();
    return result;
}

/** True when argv contains --quick (shrinks iteration counts). */
inline bool
quickMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--quick")
            return true;
    return false;
}

/**
 * Reduced-scale config for a benchmark, with iterations capped in
 * quick mode — the construction prologue nearly every harness used
 * to spell out by hand.
 */
inline ModelConfig
reducedConfig(Benchmark b, bool quick, int quick_iterations = 16)
{
    ModelConfig cfg = makeConfig(b, Scale::Reduced);
    if (quick)
        cfg.iterations = std::min(cfg.iterations, quick_iterations);
    return cfg;
}

} // namespace bench
} // namespace exion

#endif // EXION_BENCH_BENCH_UTIL_H_
