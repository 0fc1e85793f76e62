/**
 * @file
 * The one place exion_bench sets kernel and delivery knobs.
 *
 * Every engine it builds and every executor its correctness checks and
 * replays build passes through useEngineDefaults(), which sets each
 * knob the options struct still has to the value a default-constructed
 * BatchEngine serves with. A knob is touched only if it exists
 * (`if constexpr (requires ...)`), so deleting one from the library
 * needs no change here, and replays keep running exactly the kernels
 * the engine ran.
 */

#ifndef EXION_BENCH_KNOBS_H_
#define EXION_BENCH_KNOBS_H_

#include "exion/serve/batch_engine.h"

namespace exion::bench
{

template <class Opts, class Engine = BatchEngine::Options>
void
useEngineDefaults(Opts &o)
{
    const Engine engine{};
    if constexpr (requires { o.gemmBackend = engine.gemmBackend; })
        o.gemmBackend = engine.gemmBackend;
    if constexpr (requires { o.gemm = engine.gemmBackend; })
        o.gemm = engine.gemmBackend;
    if constexpr (requires { o.simdTier = engine.simdTier; })
        o.simdTier = engine.simdTier;
    if constexpr (requires { o.simd = engine.simdTier; })
        o.simd = engine.simdTier;
    if constexpr (requires { o.tensorParallel = engine.tensorParallel; })
        o.tensorParallel = engine.tensorParallel;
    // An executor's slice context defaults to inactive, which is what
    // an engine at its default tensorParallel (1) hands its executors.
    if constexpr (requires { o.tp = {}; })
        o.tp = {};
    // Results are consumed through the completion callback only, as
    // exion_serve deploys the engine; a queue nobody pops would only
    // hold a copy of every output.
    if constexpr (requires { o.queueResults = false; })
        o.queueResults = false;
}

} // namespace exion::bench

#endif // EXION_BENCH_KNOBS_H_
