#include "exion/sim/energy.h"

#include "exion/common/logging.h"

namespace exion
{

ComponentSpec
componentSpec(DscComponent c)
{
    // Table III, measured at 800 MHz / 0.8 V.
    switch (c) {
      case DscComponent::Sdue:
        return {957.97, 1.35};
      case DscComponent::Cau:
        return {16.03, 0.04};
      case DscComponent::Epre:
        return {265.15, 0.81};
      case DscComponent::Cfse:
        return {160.61, 0.32};
      case DscComponent::OnChipMemories:
        return {60.41, 1.79};
      case DscComponent::ControlDmaEtc:
        return {51.27, 0.06};
    }
    EXION_PANIC("unhandled component");
}

EnergyModel::EnergyModel(const DscParams &params) : params_(params)
{
}

EnergyPj
EnergyModel::activeEnergyPerCycle(DscComponent c) const
{
    // mW / GHz = pJ per cycle.
    return componentSpec(c).powerMw / params_.clockGhz;
}

EnergyPj
EnergyModel::gatedEnergyPerCycle(DscComponent c) const
{
    return activeEnergyPerCycle(c) * kGatedFraction;
}

EnergyPj
EnergyModel::sdueEnergy(Cycle cycles, double active_fraction) const
{
    EXION_ASSERT(active_fraction >= 0.0 && active_fraction <= 1.0,
                 "active fraction ", active_fraction);
    const EnergyPj active = activeEnergyPerCycle(DscComponent::Sdue);
    const EnergyPj gated = gatedEnergyPerCycle(DscComponent::Sdue);
    return static_cast<double>(cycles)
        * (active * active_fraction + gated * (1.0 - active_fraction));
}

double
EnergyModel::totalActivePowerMw() const
{
    double total = 0.0;
    for (DscComponent c :
         {DscComponent::Sdue, DscComponent::Cau, DscComponent::Epre,
          DscComponent::Cfse, DscComponent::OnChipMemories,
          DscComponent::ControlDmaEtc})
        total += componentSpec(c).powerMw;
    return total;
}

double
EnergyModel::totalAreaMm2() const
{
    double total = 0.0;
    for (DscComponent c :
         {DscComponent::Sdue, DscComponent::Cau, DscComponent::Epre,
          DscComponent::Cfse, DscComponent::OnChipMemories,
          DscComponent::ControlDmaEtc})
        total += componentSpec(c).areaMm2;
    return total;
}

double
AreaModel::deviceAreaMm2(int n_dscs, Index gsc_bytes)
{
    EnergyModel one{DscParams{}};
    const double gsc_mb = static_cast<double>(gsc_bytes)
        / (1024.0 * 1024.0);
    return n_dscs * one.totalAreaMm2() + gsc_mb * kSramMm2PerMb;
}

} // namespace exion
