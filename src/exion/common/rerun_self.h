/**
 * @file
 * Re-running the current executable under another EXION_SIMD value.
 *
 * A process runs one kernel table (simd_dispatch.h), so comparing the
 * active table with the scalar reference takes two processes: the
 * differential tests and bench_batch_throughput's SIMD gate re-run
 * themselves under EXION_SIMD=scalar and compare what the child
 * printed with their own results. Linux-only (/proc/self/exe).
 */

#ifndef EXION_COMMON_RERUN_SELF_H_
#define EXION_COMMON_RERUN_SELF_H_

#include <string>
#include <vector>

namespace exion
{

/** How a child run ended and what it printed. */
struct ChildRun
{
    int status = -1; //!< exit status; -1 if a signal ended it
    std::string out; //!< everything it wrote to stdout
    std::string err; //!< everything it wrote to stderr
};

/**
 * Runs /proc/self/exe with args (argv[1..]) and EXION_SIMD=simd, the
 * rest of the environment inherited, and waits for it to end. A
 * failing system call stops the process with EXION_FATAL.
 */
ChildRun rerunSelf(const std::vector<std::string> &args,
                   const std::string &simd = "scalar");

} // namespace exion

#endif // EXION_COMMON_RERUN_SELF_H_
