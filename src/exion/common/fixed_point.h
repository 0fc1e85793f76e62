/**
 * @file
 * Integer quantisation helpers.
 *
 * EXION's post-training quantisation (Section V-A) reduces MMUL
 * operands to INT12 (SDUE/EPRE) and keeps special functions in INT16 or
 * INT32 on the CFSE. We model symmetric per-tensor quantisation with a
 * power-free scale: q = clamp(round(x / scale)) and x' = q * scale.
 */

#ifndef EXION_COMMON_FIXED_POINT_H_
#define EXION_COMMON_FIXED_POINT_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "exion/common/types.h"

namespace exion
{

/** Bit widths the EXION datapath uses. */
enum class IntWidth
{
    Int12, //!< SDUE / EPRE MMUL operands
    Int16, //!< CFSE two-way mode
    Int32, //!< CFSE one-way mode
};

/** Number of magnitude+sign bits for a width. */
int intWidthBits(IntWidth width);

/** Max representable value for a signed integer of the given width. */
i32 intWidthMax(IntWidth width);

/** Symmetric per-tensor quantisation parameters. */
struct QuantParams
{
    double scale = 1.0;   //!< real value represented by integer 1
    IntWidth width = IntWidth::Int12;
};

/**
 * Picks a scale so max(|x|) maps to the top of the integer range.
 *
 * @param data   values to cover
 * @param width  target width
 * @return       parameters with scale = maxAbs / intMax (1.0 if empty)
 */
QuantParams chooseQuantParams(std::span<const float> data,
                              IntWidth width);

/**
 * chooseQuantParams over rows x cols values whose rows sit stride
 * elements apart, such as one head's columns of a wider row-major
 * block, read in place. max |x| does not depend on the order it is
 * taken in, so the params equal those of the window's copy.
 */
QuantParams chooseQuantParams(const float *data, Index rows, Index cols,
                              Index stride, IntWidth width);

/**
 * Quantises one value: clamp(round(x / scale)), defined for every
 * input. Rounds in the current rounding mode (half to even by
 * default) with std::rint, which gives the same value as
 * std::nearbyint in every mode but, unlike it, GCC expands inline
 * instead of calling libm. NaN
 * quantises to 0; +-inf and every other out-of-range value clamp to
 * the width's range.
 */
i32 quantize(float x, const QuantParams &params);

/**
 * quantize() with the width's top value q_max = intWidthMax(width)
 * already looked up: element loops such as QuantMatrix::fromFloat
 * call this, so no call or width switch is left per element.
 */
inline i32
quantizeToRange(float x, double scale, i32 q_max)
{
    const double scaled = std::rint(x / scale);
    if (std::isnan(scaled))
        return 0;
    return static_cast<i32>(
        std::clamp(scaled, -static_cast<double>(q_max) - 1.0,
                   static_cast<double>(q_max)));
}

/** Dequantises one value: q * scale. */
float dequantize(i32 q, const QuantParams &params);

/** Round-trips a value through the integer grid. */
float quantizeDequantize(float x, const QuantParams &params);

/** Saturating add for an accumulator of the given width. */
i64 saturatingAdd(i64 a, i64 b, int bits);

} // namespace exion

#endif // EXION_COMMON_FIXED_POINT_H_
