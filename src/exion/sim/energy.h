/**
 * @file
 * Energy and area model of one DSC, seeded from Table III.
 *
 * The paper synthesised the RTL at 14 nm, 0.8 V, 800 MHz; Table III
 * reports per-component power and area. We derive per-cycle active
 * energies (power / clock) and model clock gating as a fixed fraction
 * of active energy for gated cycles — the mechanism the SDUE uses for
 * any output sparsity remaining after merging.
 */

#ifndef EXION_SIM_ENERGY_H_
#define EXION_SIM_ENERGY_H_

#include "exion/common/types.h"
#include "exion/sim/params.h"

namespace exion
{

/** DSC component identifiers matching Table III rows. */
enum class DscComponent
{
    Sdue,
    Cau,
    Epre,
    Cfse,
    OnChipMemories,
    ControlDmaEtc,
};

/** Power (mW) and area (mm^2) of one component (Table III). */
struct ComponentSpec
{
    double powerMw = 0.0;
    double areaMm2 = 0.0;
};

/** Table III figures for a component. */
ComponentSpec componentSpec(DscComponent c);

/**
 * Per-cycle energy accounting for one DSC.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const DscParams &params);

    /** Active energy of a component for one cycle, in pJ. */
    EnergyPj activeEnergyPerCycle(DscComponent c) const;

    /** Gated (clock-gated registers) energy for one cycle, in pJ. */
    EnergyPj gatedEnergyPerCycle(DscComponent c) const;

    /**
     * SDUE energy for a batch of cycles with partial DPU occupancy.
     *
     * @param cycles          array-pass cycles
     * @param active_fraction fraction of DPUs computing (rest gated)
     */
    EnergyPj sdueEnergy(Cycle cycles, double active_fraction) const;

    /** Total DSC power when fully active, in mW (Table III total). */
    double totalActivePowerMw() const;

    /** Total DSC area in mm^2 (Table III total). */
    double totalAreaMm2() const;

    /** Fraction of active energy consumed when clock gated. */
    static constexpr double kGatedFraction = 0.08;

    /** Fraction of active power burned when a unit idles. */
    static constexpr double kIdleFraction = 0.03;

  private:
    DscParams params_;
};

/**
 * Area model for scale-out instances.
 */
struct AreaModel
{
    /** Area of n DSCs plus a shared scratchpad of gsc_bytes. */
    static double deviceAreaMm2(int n_dscs, Index gsc_bytes);

    /** SRAM density used for the shared GSC (mm^2 per MB, 14 nm). */
    static constexpr double kSramMm2PerMb = 0.74;
};

} // namespace exion

#endif // EXION_SIM_ENERGY_H_
