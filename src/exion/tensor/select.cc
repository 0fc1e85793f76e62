#include "exion/tensor/select.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "exion/tensor/simd_dispatch.h"

namespace exion
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();

/** Order-preserving image of a non-NaN float; -0.0 sits just below +0.0. */
u32
orderKey(float f)
{
    const u32 b = std::bit_cast<u32>(f);
    return (b & 0x80000000u) != 0 ? ~b : b | 0x80000000u;
}

/** Inverse of orderKey. */
float
fromOrderKey(u32 key)
{
    return std::bit_cast<float>((key & 0x80000000u) != 0
                                    ? key & 0x7fffffffu
                                    : ~key);
}

/** What an entry ranks as. */
template <RankBy By>
float
ranked(float v)
{
    return By == RankBy::Value ? v : std::abs(v);
}

/** Candidates few enough to rank one against another. */
constexpr Index kFewCandidates = 16;

template <RankBy By>
float
kthLargestBy(const float *row, Index n, Index keep_k,
             std::vector<u64> &masks)
{
    // Smallest and largest non-NaN entry, in eight independent
    // (vector) lanes; (+inf, -inf) when every entry is NaN.
    float lane_lo[8];
    float lane_hi[8];
    std::fill(lane_lo, lane_lo + 8, kInf);
    std::fill(lane_hi, lane_hi + 8, -kInf);
    Index c = 0;
    for (; c + 8 <= n; c += 8)
        for (int l = 0; l < 8; ++l) {
            const float v = ranked<By>(row[c + l]);
            lane_lo[l] = std::min(lane_lo[l], v);
            lane_hi[l] = std::max(lane_hi[l], v);
        }
    for (; c < n; ++c) {
        const float v = ranked<By>(row[c]);
        lane_lo[0] = std::min(lane_lo[0], v);
        lane_hi[0] = std::max(lane_hi[0], v);
    }
    float lo = *std::min_element(lane_lo, lane_lo + 8);
    float hi = *std::max_element(lane_hi, lane_hi + 8);
    if (!(lo <= hi))
        return hi; // every entry is NaN
    if (keep_k == n)
        return lo;

    const SimdKernels &kr = activeKernels();
    const Index words = (n + 63) / 64;
    const auto width = [&](Index w) {
        return std::min<Index>(64, n - 64 * w);
    };
    // Bits of word w's entries that reach t. A magnitude is never
    // below +0.0, so every t here is at least +0.0, and |v| >= t is
    // |v| > the float just below t.
    const auto cut = [](float t) {
        return By == RankBy::Value ? t : std::nextafter(t, -kInf);
    };
    const auto reaching = [&](Index w, float t_cut) {
        return By == RankBy::Value
            ? kr.cmpGeMask64(row + 64 * w, t_cut, width(w))
            : kr.absGreaterMask64(row + 64 * w, t_cut, width(w));
    };
    masks.resize(2 * words);
    u64 *cand = masks.data();
    u64 *reached = cand + words;
    Index above = 0; // entries reaching hi
    const float hi_cut = cut(hi);
    for (Index w = 0; w < words; ++w) {
        const u64 ge = reaching(w, hi_cut);
        above += std::popcount(ge);
        cand[w] = ~ge & (~u64{0} >> (64 - width(w)));
    }
    if (above >= keep_k)
        return hi;
    Index left = n - above; // candidates
    int stalled = 0;
    while (left > kFewCandidates) {
        if (stalled == 2) {
            float cmin = hi;
            float cmax = lo;
            for (Index w = 0; w < words; ++w)
                for (u64 bits = cand[w]; bits != 0; bits &= bits - 1) {
                    const float v =
                        ranked<By>(row[64 * w + std::countr_zero(bits)]);
                    cmin = std::min(cmin, v);
                    cmax = std::max(cmax, v);
                }
            if (!(cmin < cmax))
                return cmin;
            lo = cmin;
            hi = std::nextafter(cmax, kInf);
            stalled = 0;
        }
        float mid =
            static_cast<float>(lo + (static_cast<double>(hi) - lo) / 2);
        if (!(lo < mid && mid < hi)) {
            // Infinite ends, or hi one or two floats above lo.
            const u32 klo = orderKey(lo);
            const u32 khi = orderKey(hi);
            if (khi - klo <= 1)
                return lo;
            mid = fromOrderKey(klo + (khi - klo) / 2);
        }
        const float mid_cut = cut(mid);
        Index reach = above; // entries reaching mid
        for (Index w = 0; w < words; ++w) {
            reached[w] =
                cand[w] == 0 ? 0 : reaching(w, mid_cut) & cand[w];
            reach += std::popcount(reached[w]);
        }
        const bool up = reach >= keep_k;
        for (Index w = 0; w < words; ++w)
            cand[w] = up ? reached[w] : cand[w] & ~reached[w];
        const Index was = left;
        if (up) {
            lo = mid;
            left = reach - above;
        } else {
            hi = mid;
            left -= reach - above;
            above = reach;
        }
        stalled = left == was ? stalled + 1 : 0;
    }
    // The answer is the candidate v with fewer than `rank` candidates
    // above it and at least `rank` at or above it.
    float few[kFewCandidates];
    Index m = 0;
    for (Index w = 0; w < words; ++w)
        for (u64 bits = cand[w]; bits != 0; bits &= bits - 1)
            few[m++] = ranked<By>(row[64 * w + std::countr_zero(bits)]);
    const Index rank = keep_k - above;
    for (Index i = 0; i < m; ++i) {
        Index gt = 0;
        Index ge = 0;
        for (Index j = 0; j < m; ++j) {
            gt += few[j] > few[i];
            ge += few[j] >= few[i];
        }
        if (gt < rank && rank <= ge)
            return few[i];
    }
    return lo; // only a NaN candidate leaves the rank unheld
}

} // namespace

float
kthLargest(const float *row, Index n, Index keep_k, RankBy by,
           std::vector<u64> &scratch)
{
    return by == RankBy::Value
        ? kthLargestBy<RankBy::Value>(row, n, keep_k, scratch)
        : kthLargestBy<RankBy::Magnitude>(row, n, keep_k, scratch);
}

} // namespace exion
