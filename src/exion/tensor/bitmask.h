/**
 * @file
 * Packed two-dimensional bitmask.
 *
 * The currency of EXION's sparsity machinery: FFN-Reuse emits a
 * recompute mask over the first FFN layer's output; eager prediction
 * emits a keep mask over the attention score. ConMerge consumes these
 * column-by-column (Fig. 13's 16-bit lane bitmasks are column slices of
 * this structure).
 */

#ifndef EXION_TENSOR_BITMASK_H_
#define EXION_TENSOR_BITMASK_H_

#include <bit>
#include <span>
#include <vector>

#include "exion/common/logging.h"
#include "exion/common/types.h"

namespace exion
{

/**
 * rows x cols bitmask packed 64 bits per word, row-major.
 *
 * Bit semantics follow the paper: 1 = non-sparse (compute / keep),
 * 0 = sparse (skip / reuse).
 */
class Bitmask2D
{
  public:
    /** Empty mask. */
    Bitmask2D() = default;

    /** rows x cols mask of all zeros. */
    Bitmask2D(Index rows, Index cols);

    /** Number of rows. */
    Index rows() const { return rows_; }

    /** Number of columns. */
    Index cols() const { return cols_; }

    /** Reads bit (r, c). */
    bool
    get(Index r, Index c) const
    {
        EXION_ASSERT(r < rows_ && c < cols_, "bitmask index out of range");
        const Index bit = r * cols_ + c;
        return (words_[bit >> 6] >> (bit & 63)) & 1u;
    }

    /** Writes bit (r, c). */
    void
    set(Index r, Index c, bool v)
    {
        EXION_ASSERT(r < rows_ && c < cols_, "bitmask index out of range");
        const Index bit = r * cols_ + c;
        const u64 mask = u64{1} << (bit & 63);
        if (v)
            words_[bit >> 6] |= mask;
        else
            words_[bit >> 6] &= ~mask;
    }

    /**
     * The packed words, row-major, 64 bits per word. Bits past
     * rows() * cols() in the final word are always zero — word-level
     * consumers (popcounts, masked loads) may read the full span
     * without per-bit edge checks.
     */
    std::span<const u64> words() const { return words_; }

    /** Number of packed words. */
    Index wordCount() const { return words_.size(); }

    /** Number of set bits. */
    u64 countOnes() const;

    /**
     * Overwrites bits (r, c0) .. (r, c0 + nbits - 1) with the low
     * nbits of `bits` (bit i -> column c0 + i). nbits <= 64 and the
     * range must stay inside the row — the word-granular sink for the
     * cmpGeMask64 / absGreaterMask64 kernels.
     */
    void writeRowBits(Index r, Index c0, u64 bits, Index nbits);

    /**
     * Calls f(r, c) for every set bit in row-major order. Word-at-a-
     * time: whole zero words cost one test, set bits are located with
     * countr_zero instead of a per-column get() sweep.
     */
    template <typename F>
    void
    forEachSetBit(F &&f) const
    {
        for (Index wi = 0; wi < words_.size(); ++wi) {
            u64 w = words_[wi];
            while (w != 0) {
                const Index bit =
                    wi * 64 + static_cast<Index>(std::countr_zero(w));
                f(bit / cols_, bit % cols_);
                w &= w - 1;
            }
        }
    }

    /** Calls f(c) for every set bit of row r, ascending c. */
    template <typename F>
    void
    forEachSetBitInRow(Index r, F &&f) const
    {
        EXION_ASSERT(r < rows_, "bitmask row out of range");
        if (cols_ == 0)
            return;
        const Index b0 = r * cols_;
        const Index b1 = b0 + cols_;
        for (Index wi = b0 >> 6; wi < (b1 + 63) >> 6; ++wi) {
            u64 w = words_[wi];
            if (wi == b0 >> 6)
                w &= ~u64{0} << (b0 & 63);
            if (wi == b1 >> 6 && (b1 & 63) != 0)
                w &= (u64{1} << (b1 & 63)) - 1;
            while (w != 0) {
                const Index bit =
                    wi * 64 + static_cast<Index>(std::countr_zero(w));
                f(bit - b0);
                w &= w - 1;
            }
        }
    }

    /** Fraction of zero bits (the paper's "output sparsity"). */
    double sparsity() const;

    /** Number of set bits in column c. */
    u64 columnOnes(Index c) const;

    /** True when every bit in column c is zero. */
    bool columnEmpty(Index c) const { return columnOnes(c) == 0; }

    /**
     * Number of columns with at least one set bit. Word-at-a-time
     * (one forEachSetBit sweep) instead of a strided per-bit scan
     * per column.
     */
    Index nonEmptyColumnCount() const;

    /** Number of set bits in row r. */
    u64 rowOnes(Index r) const;

    /**
     * 16-bit lane slice of column c covering rows [row0, row0+16).
     *
     * Rows past the matrix edge read as zero. Bit i corresponds to row
     * row0 + i — exactly the per-DPU-lane bitmask the CAU receives.
     */
    u16 columnSlice16(Index c, Index row0) const;

    /** True when shapes and bits match. */
    bool operator==(const Bitmask2D &other) const = default;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<u64> words_;
};

} // namespace exion

#endif // EXION_TENSOR_BITMASK_H_
