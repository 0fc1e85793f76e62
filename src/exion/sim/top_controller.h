/**
 * @file
 * Trace-driven DSC top controller.
 *
 * Executes a straight-line Program with the overlap semantics the
 * double-/triple-buffered memories provide: a Load issued while a
 * compute instruction runs fills the shadow buffer and only stalls
 * the pipeline when its transfer outlasts the remaining compute.
 * EPRE and CAU instructions run in the compute shadow as well
 * (Section IV-A: "EPRE's latency is mostly hidden ... due to
 * pipelining schemes"); a Sync drains everything.
 *
 * The analytic ExionPerfModel uses closed forms of the same costs. No
 * test compares the two: the TopController tests check instrCycles()
 * against the closed form denseMmulCycles() (sim/params.h), and the
 * overlap rules above on small programs, hand-built or from
 * ProgramBuilder.
 */

#ifndef EXION_SIM_TOP_CONTROLLER_H_
#define EXION_SIM_TOP_CONTROLLER_H_

#include "exion/sim/cfse.h"
#include "exion/sim/dram.h"
#include "exion/sim/epre.h"
#include "exion/sim/isa.h"
#include "exion/sim/params.h"
#include "exion/sim/sdue.h"

namespace exion
{

/** Per-unit busy-cycle accounting for one program run. */
struct TraceStats
{
    Cycle totalCycles = 0;
    Cycle sdueBusy = 0;
    Cycle epreBusy = 0;
    Cycle cfseBusy = 0;
    Cycle cauBusy = 0;
    Cycle dmaBusy = 0;
    Cycle stallCycles = 0; //!< cycles the pipeline waited on DMA
    u64 activeDpuCycles = 0;
    u64 gatedDpuCycles = 0;
    u64 instructions = 0;

    /** Fraction of total time any compute unit was busy. */
    double computeUtilisation() const;
};

/**
 * Executes instruction streams against the component timing models.
 */
class TopController
{
  public:
    TopController(const DscParams &params, const DramModel &dram);

    /** Runs a program to completion and returns the trace stats. */
    TraceStats run(const Program &program) const;

    /** Cycles one instruction occupies its unit (no overlap logic). */
    Cycle instrCycles(const Instr &instr) const;

  private:
    DscParams params_;
    DramModel dram_;
    Sdue sdue_;
    Epre epre_;
    Cfse cfse_;
};

} // namespace exion

#endif // EXION_SIM_TOP_CONTROLLER_H_
