/**
 * @file
 * Deterministic random number generation.
 *
 * Xoshiro256++ keeps every experiment reproducible across platforms
 * (std::mt19937 distributions are implementation-defined). All draws in
 * the repository go through this class so a single seed pins a run.
 */

#ifndef EXION_COMMON_RNG_H_
#define EXION_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "exion/common/types.h"

namespace exion
{

/**
 * One SplitMix64 step: advances x and returns the mixed word.
 *
 * The seeding primitive behind Rng; exposed so other deterministic
 * seed derivations (e.g. per-task streams) share one implementation.
 */
u64 splitMix64(u64 &x);

/**
 * Xoshiro256++ generator with convenience draws.
 *
 * Gaussian draws use Box-Muller on the uniform stream, so sequences
 * are bit-identical across standard libraries.
 */
class Rng
{
  public:
    /** Box-Muller pairs between the generator copies a NormalDraw
        keeps: the unit of work fillNormals() hands to a thread. */
    static constexpr size_t kNormalChunkPairs = size_t{1} << 15;

    /**
     * n normal draws that planNormals() took from a generator and
     * fillNormals() writes: out[i] gets the
     * static_cast<float>(normal(mean, stddev)) the i-th of n serial
     * calls returned.
     */
    struct NormalDraw
    {
        float *out = nullptr; //!< n floats; set before fillNormals()
        size_t n = 0;
        double mean = 0.0;
        double stddev = 1.0;
        std::optional<float> head; //!< out[0]: the cached normal
        size_t pairs = 0;          //!< full pairs after the head
        std::vector<Rng> chunkStarts; //!< generator at every chunk
        std::optional<float> tail;    //!< out[n - 1] of an odd rest
    };

    /** Seeds the four-word state with SplitMix64 expansion of seed. */
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit word. */
    u64 next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    u64 uniformInt(u64 n);

    /** Standard normal draw (Box-Muller, cached pair). */
    double normal();

    /** Normal draw with explicit mean/stddev. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /**
     * out[0, n) = static_cast<float>(normal(mean, stddev)) in order,
     * bit for bit, leaving the generator as those n calls would
     * (cached normal included): planNormals() then fillNormals().
     */
    void fillNormal(float *out, size_t n, double mean, double stddev);

    /**
     * Step one of a normal fill, serial: takes n normal(mean, stddev)
     * draws from this generator without computing the pairs, replaying
     * the uniforms each pair consumes (normal()'s u1 <= 0 rejection
     * included), and keeps a copy of the generator at the start of
     * every kNormalChunkPairs pairs. A cached normal on entry becomes
     * the head; an odd rest is drawn now and leaves its sine cached.
     */
    NormalDraw planNormals(size_t n, double mean, double stddev);

    /** Progress of fillNormals(): filled(d, k) says draws [0, d) and
        the first k floats of draw d are written. */
    using Filled = std::function<void(size_t draw, size_t written)>;

    /**
     * Step two: writes every planned draw to its out, regenerating each
     * chunk of pairs from its generator copy through the helper
     * normal() uses. Runs on up to min(hardware_concurrency(), 8)
     * threads, all joined before it returns, and on the caller alone
     * when the draws hold at most one chunk of pairs in all. The
     * caller fills beside the threads it starts; given filled, it
     * fills nothing and instead calls filled in order as the chunks
     * complete, so it can read what is written while the rest is
     * filled. The draws' outs must not overlap.
     */
    static void fillNormals(std::span<const NormalDraw> draws,
                            const Filled &filled = {});

  private:
    static u64 rotl(u64 x, int k);

    /** u1 in (0, 1) (redrawn while 0), then u2: what a pair takes. */
    std::pair<double, double> pairUniforms();

    /** The next Box-Muller pair: the cosine branch, then the sine. */
    std::pair<double, double> normalPair();

    std::array<u64, 4> state_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace exion

#endif // EXION_COMMON_RNG_H_
