/**
 * @file
 * Shared command-line parsing for the kernel-selection flag.
 *
 * Every binary that exposes --simd used to hand-roll the same
 * parse-validate-report sequence; this helper owns it once. Callers
 * keep their own argv loop and offer each position to
 * tryConsumeKernelFlag(), which consumes the flag (and its value)
 * when it is ours and reports malformed values with the full list of
 * accepted spellings.
 */

#ifndef EXION_TENSOR_KERNEL_FLAGS_H_
#define EXION_TENSOR_KERNEL_FLAGS_H_

#include <string>

#include "exion/tensor/simd_dispatch.h"

namespace exion
{

/** Kernel selection shared by every CLI. */
struct KernelFlags
{
    /** --simd value (Scalar and Exact are bit-identical). */
    SimdTier simd = SimdTier::Exact;
};

/** Outcome of offering one argv position to the kernel-flag parser. */
enum class KernelFlagStatus
{
    NotMine,  //!< argv[i] is not a kernel flag; caller handles it
    Consumed, //!< flag and value consumed; i advanced past the value
    Error     //!< kernel flag with a missing/unknown value; see error
};

/**
 * Attempts to consume the kernel flag at argv[i].
 *
 * On Consumed, i is advanced to the flag's value (so the caller's
 * ++i moves past the pair) and the parsed value is stored in flags.
 * On Error, error holds a complete message listing the accepted
 * values. On NotMine, nothing changes.
 */
KernelFlagStatus tryConsumeKernelFlag(int argc, const char *const *argv,
                                      int &i, KernelFlags &flags,
                                      std::string &error);

/** Usage fragment advertising the kernel flag. */
const char *kernelFlagsUsage();

} // namespace exion

#endif // EXION_TENSOR_KERNEL_FLAGS_H_
