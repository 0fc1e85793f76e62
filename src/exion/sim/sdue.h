/**
 * @file
 * Sparse-Dense Unified Engine (Fig. 11).
 *
 * Functional + timing model of the DPU array. Dense MMULs broadcast
 * one IMEM bank per lane and one WMEM bank per column; merged tiles
 * additionally route displaced inputs over each lane's conflict line
 * (CV) and select among the three WMEM buffers per column (w_sw).
 *
 * The functional path is the golden check that ConMerge control state
 * reproduces dense results; the timing path feeds the performance
 * model. One tile pass costs ceil(K / laneLength) cycles regardless of
 * occupancy — unoccupied DPUs are clock gated, which the energy model
 * accounts for via the active fraction.
 */

#ifndef EXION_SIM_SDUE_H_
#define EXION_SIM_SDUE_H_

#include "exion/conmerge/merged_tile.h"
#include "exion/sim/params.h"
#include "exion/tensor/matrix.h"

namespace exion
{

/** Timing/occupancy result of executing tiles on the SDUE. */
struct SdueRunStats
{
    Cycle cycles = 0;
    u64 tilePasses = 0;
    u64 activeDpuCycles = 0; //!< cycles x occupied DPUs
    u64 gatedDpuCycles = 0;  //!< cycles x gated DPUs

    /** Fraction of DPU-cycles doing useful work. */
    double activeFraction() const;

    /** Accumulates another run. */
    void add(const SdueRunStats &other);
};

/**
 * DPU-array execution engine.
 */
class Sdue
{
  public:
    explicit Sdue(const DscParams &params);

    /**
     * Dense MMUL timing: full (m x k) * (k x n) sweep.
     */
    SdueRunStats denseMmulStats(Index m, Index k, Index n) const;

    /**
     * Functional + timing execution of one merged tile.
     *
     * Computes, for every occupied cell, the dot product of the
     * source input row and the origin weight column, writing the
     * result into out at (row_base + srcLane, originCol).
     *
     * @param tile     merged tile (control state)
     * @param input    full input matrix (m x k)
     * @param weight   full weight matrix (k x n)
     * @param row_base first row of the tile's 16-lane group
     * @param[in,out] out output matrix (m x n), only masked cells set
     */
    SdueRunStats executeMergedTile(const MergedTile &tile,
                                   const Matrix &input,
                                   const Matrix &weight, Index row_base,
                                   Matrix &out) const;

    /**
     * Timing-only execution of one merged tile (no data).
     *
     * @param tile merged tile
     * @param k    inner (reduction) dimension
     */
    SdueRunStats mergedTileStats(const MergedTile &tile, Index k) const;

  private:
    DscParams params_;
};

} // namespace exion

#endif // EXION_SIM_SDUE_H_
