/**
 * @file
 * Sample statistics, digests and key mixes of exion_bench. Every
 * helper here is asserted by `exion_bench --self-check`.
 */

#ifndef EXION_BENCH_STATS_H_
#define EXION_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "exion/common/stats.h"

namespace exion::bench
{

/**
 * Whether n samples support the p-th percentile (p in [0, 100], as
 * exion::percentile takes it): at least ten samples lie beyond it, so
 * one outlier cannot move it alone.
 */
inline bool
percentileSupported(size_t n, double p)
{
    return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles as Python's statistics.quantiles(v, n=4) computes them
 * (the "exclusive" method), so the spreads this tool reports are the
 * spreads a Python reader of the same values gets.
 */
inline Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {};
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld == 1)
        return {v[0], v[0], v[0]};
    double q[3];
    const long m = ld + 1;
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta)
                    + v[j] * static_cast<double>(delta))
            / 4.0;
    }
    return {q[0], q[1], q[2]};
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** (q3 - q1) / median: the run-to-run spread of a metric. */
inline double
relativeSpread(const std::vector<double> &v)
{
    const Quartiles q = quartiles(v);
    return q.median != 0.0 ? (q.q3 - q.q1) / std::fabs(q.median) : 0.0;
}

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** FNV-1a over raw bytes, continuing from h. */
inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** splitmix64: the bench's only random source, seeded by --seed. */
class SeedStream
{
  public:
    explicit SeedStream(uint64_t seed) : state_(seed) {}

    uint64_t next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Noise seed of a request: small enough to cross JSON exactly. */
    uint64_t requestSeed() { return next() & 0x7fffffffULL; }

  private:
    uint64_t state_;
};

/**
 * n key indices in random order holding each key k exactly
 * round(weights[k] * n) times (largest remainder, so the counts sum to
 * n). A fixed mix keeps a percentile of a multi-modal latency mix from
 * moving with the luck of the draw.
 */
inline std::vector<size_t>
keyOrder(const std::vector<double> &weights, size_t n, SeedStream &rng)
{
    std::vector<size_t> count(weights.size());
    std::vector<std::pair<double, size_t>> remainder;
    size_t assigned = 0;
    for (size_t k = 0; k < weights.size(); ++k) {
        const double exact = weights[k] * static_cast<double>(n);
        count[k] = static_cast<size_t>(exact);
        assigned += count[k];
        remainder.emplace_back(exact - static_cast<double>(count[k]), k);
    }
    std::stable_sort(remainder.begin(), remainder.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (size_t i = 0; assigned < n; ++i, ++assigned)
        ++count[remainder[i % remainder.size()].second];
    std::vector<size_t> order;
    for (size_t k = 0; k < count.size(); ++k)
        order.insert(order.end(), count[k], k);
    for (size_t i = order.size(); i > 1; --i) // Fisher-Yates
        std::swap(order[i - 1], order[rng.next() % i]);
    return order;
}

} // namespace exion::bench

#endif // EXION_BENCH_STATS_H_
