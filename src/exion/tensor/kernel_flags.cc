#include "exion/tensor/kernel_flags.h"

namespace exion
{

namespace
{

constexpr const char *kSimdValues = "scalar|exact";

} // namespace

KernelFlagStatus
tryConsumeKernelFlag(int argc, const char *const *argv, int &i,
                     KernelFlags &flags, std::string &error)
{
    const std::string arg = argv[i];
    if (arg != "--simd")
        return KernelFlagStatus::NotMine;

    if (i + 1 >= argc) {
        error = arg + " needs a value (" + kSimdValues + ")";
        return KernelFlagStatus::Error;
    }
    const std::string value = argv[++i];
    const auto parsed = parseSimdTier(value);
    if (!parsed) {
        error = "unknown --simd tier '" + value + "' (expected "
            + std::string(kSimdValues) + ")";
        return KernelFlagStatus::Error;
    }
    flags.simd = *parsed;
    return KernelFlagStatus::Consumed;
}

const char *
kernelFlagsUsage()
{
    return "[--simd scalar|exact]";
}

} // namespace exion
