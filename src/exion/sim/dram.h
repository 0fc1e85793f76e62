/**
 * @file
 * External-memory model.
 *
 * Stands in for the paper's Ramulator integration: the evaluation only
 * exercises DRAM through sustained streaming of weights and
 * activations, so a bandwidth + fixed-latency + energy-per-bit model
 * captures the contribution at this granularity. Banks, row-buffer
 * hits and refresh are not modelled. Energy figures follow the
 * LPDDR5/GDDR6 vendor data the paper cites.
 */

#ifndef EXION_SIM_DRAM_H_
#define EXION_SIM_DRAM_H_

#include <string>

#include "exion/common/types.h"

namespace exion
{

/** DRAM technology presets. */
enum class DramType
{
    Lpddr5, //!< edge configuration (EXION4)
    Gddr6,  //!< server configuration (EXION24 / EXION42)
};

/**
 * Streaming DRAM channel model.
 */
class DramModel
{
  public:
    /**
     * @param type          technology (sets energy/bit and latency)
     * @param bandwidth_gbs aggregate sustained bandwidth in GB/s
     */
    DramModel(DramType type, double bandwidth_gbs);

    /** Cycles (at core clock) to transfer the given bytes. */
    Cycle transferCycles(u64 bytes, double clock_ghz) const;

    /** Transfer time in seconds. */
    double transferSeconds(u64 bytes) const;

    /** Energy to move the given bytes, in pJ. */
    EnergyPj transferEnergy(u64 bytes) const;

    /** Technology name for reports. */
    std::string name() const;

  private:
    DramType type_;
    double bandwidthGbs_;
    double energyPerBitPj_;
    double latencyNs_;
};

} // namespace exion

#endif // EXION_SIM_DRAM_H_
