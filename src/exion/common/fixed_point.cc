#include "exion/common/fixed_point.h"

#include <algorithm>
#include <cmath>

#include "exion/common/logging.h"

namespace exion
{

int
intWidthBits(IntWidth width)
{
    switch (width) {
      case IntWidth::Int12:
        return 12;
      case IntWidth::Int16:
        return 16;
      case IntWidth::Int32:
        return 32;
    }
    EXION_PANIC("unhandled IntWidth");
}

i32
intWidthMax(IntWidth width)
{
    const int bits = intWidthBits(width);
    return static_cast<i32>((i64{1} << (bits - 1)) - 1);
}

QuantParams
chooseQuantParams(std::span<const float> data, IntWidth width)
{
    return chooseQuantParams(data.data(), 1, data.size(), data.size(),
                             width);
}

QuantParams
chooseQuantParams(const float *data, Index rows, Index cols, Index stride,
                  IntWidth width)
{
    QuantParams params;
    params.width = width;
    // Eight independent lanes: the maximum is the same in any order
    // (a NaN never replaces a lane), without one long compare chain.
    float lane[8] = {};
    for (Index r = 0; r < rows; ++r) {
        const float *row = data + r * stride;
        Index i = 0;
        for (; i + 8 <= cols; i += 8)
            for (Index l = 0; l < 8; ++l)
                lane[l] = std::max(lane[l], std::abs(row[i + l]));
        for (; i < cols; ++i)
            lane[0] = std::max(lane[0], std::abs(row[i]));
    }
    const float max_abs = *std::max_element(lane, lane + 8);
    if (max_abs == 0.0f) {
        params.scale = 1.0;
    } else {
        params.scale = static_cast<double>(max_abs) / intWidthMax(width);
    }
    return params;
}

i32
quantize(float x, const QuantParams &params)
{
    return quantizeToRange(x, params.scale, intWidthMax(params.width));
}

float
dequantize(i32 q, const QuantParams &params)
{
    return static_cast<float>(q * params.scale);
}

float
quantizeDequantize(float x, const QuantParams &params)
{
    return dequantize(quantize(x, params), params);
}

i64
saturatingAdd(i64 a, i64 b, int bits)
{
    EXION_ASSERT(bits >= 2 && bits <= 63, "accumulator width ", bits);
    const i64 max_v = (i64{1} << (bits - 1)) - 1;
    const i64 min_v = -max_v - 1;
    const i64 sum = a + b;
    return std::clamp(sum, min_v, max_v);
}

} // namespace exion
