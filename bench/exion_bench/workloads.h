/**
 * @file
 * exion_bench's four workloads. Each runs in its own process (see
 * exion_bench.cc), builds the engine it measures from the seed-derived
 * requests only, checks the outputs, and returns its metrics.
 */

#ifndef EXION_BENCH_WORKLOADS_H_
#define EXION_BENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "exion/common/types.h"

namespace exion::bench
{

struct RunConfig
{
    /** Seeds noise seeds and key draws. */
    u64 seed = 1;
    /** Length of one measured phase. */
    double seconds = 15.0;
    /** Per-layer mode: an untraced phase, a traced phase, a replay. */
    bool trace = false;
    /** Smoke-test sizes: one set-up, no warm-up. */
    bool quick = false;
    /** Engine workers (and replay threads). */
    int workers = 4;
    /** Chrome trace process id of this workload. */
    int tracePid = 1;
};

struct WorkloadOutcome
{
    /** Every checked output matched its solo recomputation. */
    bool correct = true;
    u64 attempted = 0;
    /** Refused + errored + mismatched requests. */
    u64 failed = 0;
    /** FNV-1a over the first outputs of the measured phase. */
    u64 digest = 0;
    /** Requests the latency percentiles are taken over. */
    u64 latencySamples = 0;
    /** (name, value) in catalog units; peak RSS is added by the parent. */
    std::vector<std::pair<std::string, double>> metrics;
    /** Sample counts and checks, printed beside the metrics. */
    std::vector<std::string> notes;
    /** Chrome trace events (comma-separated), --trace only. */
    std::string traceEvents;
};

struct WorkloadDef
{
    const char *name;
    const char *why;
    WorkloadOutcome (*run)(const RunConfig &);
};

/** The workloads, in the order a full run executes them. */
const std::vector<WorkloadDef> &workloads();

} // namespace exion::bench

#endif // EXION_BENCH_WORKLOADS_H_
