#include "exion/common/rng.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "exion/common/logging.h"

namespace exion
{

u64
splitMix64(u64 &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Rng::Rng(u64 seed)
{
    u64 s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

u64
Rng::rotl(u64 x, int k)
{
    return (x << k) | (x >> (64 - k));
}

u64
Rng::next()
{
    const u64 result = rotl(state_[0] + state_[3], 23) + state_[0];
    const u64 t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

u64
Rng::uniformInt(u64 n)
{
    EXION_ASSERT(n > 0, "uniformInt needs a positive bound");
    // Rejection sampling removes modulo bias.
    const u64 threshold = (~n + 1) % n;
    u64 draw;
    do {
        draw = next();
    } while (draw < threshold);
    return draw % n;
}

std::pair<double, double>
Rng::pairUniforms()
{
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    return {u1, uniform()};
}

std::pair<double, double>
Rng::normalPair()
{
    const auto [u1, u2] = pairUniforms();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    return {radius * std::cos(angle), radius * std::sin(angle)};
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    const auto [cos_branch, sin_branch] = normalPair();
    cachedNormal_ = sin_branch;
    hasCachedNormal_ = true;
    return cos_branch;
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng::NormalDraw
Rng::planNormals(size_t n, double mean, double stddev)
{
    NormalDraw d;
    d.n = n;
    d.mean = mean;
    d.stddev = stddev;
    size_t rest = n;
    if (rest > 0 && hasCachedNormal_) {
        d.head = static_cast<float>(normal(mean, stddev));
        --rest;
    }
    d.pairs = rest / 2;
    d.chunkStarts.reserve((d.pairs + kNormalChunkPairs - 1)
                          / kNormalChunkPairs);
    for (size_t p = 0; p < d.pairs; ++p) {
        if (p % kNormalChunkPairs == 0)
            d.chunkStarts.push_back(*this);
        pairUniforms();
    }
    if (rest % 2 != 0)
        d.tail = static_cast<float>(normal(mean, stddev));
    return d;
}

void
Rng::fillNormals(std::span<const NormalDraw> draws, const Filled &filled)
{
    struct Chunk
    {
        size_t draw;    //!< index into draws
        size_t first;   //!< first pair
        size_t last;    //!< one past the last pair
        size_t written; //!< floats of the draw written once it is done
    };
    std::vector<Chunk> chunks;
    size_t pairs = 0;
    for (size_t i = 0; i < draws.size(); ++i) {
        const NormalDraw &d = draws[i];
        EXION_ASSERT(d.out != nullptr || d.n == 0,
                     "normal draw without a destination");
        if (d.head)
            d.out[0] = *d.head;
        if (d.tail)
            d.out[d.n - 1] = *d.tail;
        for (size_t first = 0; first < d.pairs; first += kNormalChunkPairs) {
            const size_t last = std::min(d.pairs, first + kNormalChunkPairs);
            const size_t written =
                last == d.pairs ? d.n : (d.head ? 1 : 0) + 2 * last;
            chunks.push_back({i, first, last, written});
        }
        pairs += d.pairs;
    }

    std::atomic<size_t> taken{0};
    std::vector<std::atomic<bool>> done(chunks.size());
    const auto work = [&] {
        for (size_t i = taken.fetch_add(1, std::memory_order_relaxed);
             i < chunks.size();
             i = taken.fetch_add(1, std::memory_order_relaxed)) {
            const Chunk &c = chunks[i];
            const NormalDraw &d = draws[c.draw];
            Rng g = d.chunkStarts[c.first / kNormalChunkPairs];
            float *out = d.out + (d.head ? 1 : 0);
            for (size_t p = c.first; p < c.last; ++p) {
                const auto [cos_branch, sin_branch] = g.normalPair();
                out[2 * p] =
                    static_cast<float>(d.mean + d.stddev * cos_branch);
                out[2 * p + 1] =
                    static_cast<float>(d.mean + d.stddev * sin_branch);
            }
            done[i].store(true, std::memory_order_release);
            done[i].notify_one();
        }
    };
    const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
    const size_t threads = pairs <= kNormalChunkPairs
        ? 1
        : std::min<size_t>({hardware, 8, chunks.size()});
    // The caller fills beside its helpers, unless it follows them.
    const size_t started = filled && threads > 1 ? threads : threads - 1;
    std::vector<std::jthread> helpers;
    helpers.reserve(started);
    for (size_t t = 0; t < started; ++t)
        helpers.emplace_back(work);
    if (started < threads)
        work();
    if (filled) {
        for (size_t i = 0; i < chunks.size(); ++i) {
            done[i].wait(false, std::memory_order_acquire);
            filled(chunks[i].draw, chunks[i].written);
        }
    }
}

void
Rng::fillNormal(float *out, size_t n, double mean, double stddev)
{
    NormalDraw d = planNormals(n, mean, stddev);
    d.out = out;
    fillNormals({&d, 1});
}

} // namespace exion
