#include "exion/tensor/bitmask.h"

#include "exion/tensor/simd_dispatch.h"

namespace exion
{

namespace
{

/** Low-n-bits mask; n <= 64. */
u64
lowBits(Index n)
{
    return n >= 64 ? ~u64{0} : (u64{1} << n) - 1;
}

} // namespace

Bitmask2D::Bitmask2D(Index rows, Index cols)
    : rows_(rows), cols_(cols), words_((rows * cols + 63) / 64, 0)
{
}

u64
Bitmask2D::countOnes() const
{
    return activeKernels().popcountWords(words_.data(),
                                         words_.size());
}

double
Bitmask2D::sparsity() const
{
    const u64 total = static_cast<u64>(rows_) * cols_;
    if (total == 0)
        return 0.0;
    return 1.0 - static_cast<double>(countOnes())
        / static_cast<double>(total);
}

Index
Bitmask2D::nonEmptyColumnCount() const
{
    std::vector<u8> seen(cols_, 0);
    forEachSetBit([&](Index, Index c) { seen[c] = 1; });
    Index n = 0;
    for (u8 v : seen)
        n += v;
    return n;
}

u64
Bitmask2D::columnOnes(Index c) const
{
    u64 total = 0;
    for (Index r = 0; r < rows_; ++r)
        total += get(r, c) ? 1 : 0;
    return total;
}

u64
Bitmask2D::rowOnes(Index r) const
{
    EXION_ASSERT(r < rows_, "bitmask row out of range");
    // A row is a contiguous bit range: popcount whole words with the
    // first and last masked to the row's span.
    const Index b0 = r * cols_;
    const Index b1 = b0 + cols_;
    u64 total = 0;
    for (Index wi = b0 >> 6; wi < (b1 + 63) >> 6; ++wi) {
        u64 w = words_[wi];
        if (wi == b0 >> 6)
            w &= ~u64{0} << (b0 & 63);
        if (wi == b1 >> 6 && (b1 & 63) != 0)
            w &= lowBits(b1 & 63);
        total += static_cast<u64>(std::popcount(w));
    }
    return total;
}

u16
Bitmask2D::columnSlice16(Index c, Index row0) const
{
    u16 out = 0;
    for (Index i = 0; i < 16; ++i) {
        const Index r = row0 + i;
        if (r >= rows_)
            break;
        if (get(r, c))
            out |= static_cast<u16>(1u << i);
    }
    return out;
}

void
Bitmask2D::writeRowBits(Index r, Index c0, u64 bits, Index nbits)
{
    EXION_ASSERT(r < rows_ && nbits <= 64 && c0 + nbits <= cols_,
                 "writeRowBits range out of row");
    if (nbits == 0)
        return;
    const Index start = r * cols_ + c0;
    const Index wi = start >> 6;
    const Index off = start & 63;
    const Index lo_n = nbits < 64 - off ? nbits : 64 - off;
    const u64 lo_mask = lowBits(lo_n);
    words_[wi] = (words_[wi] & ~(lo_mask << off))
        | ((bits & lo_mask) << off);
    if (nbits > lo_n) {
        const u64 hi_mask = lowBits(nbits - lo_n);
        words_[wi + 1] = (words_[wi + 1] & ~hi_mask)
            | ((bits >> lo_n) & hi_mask);
    }
}

} // namespace exion
