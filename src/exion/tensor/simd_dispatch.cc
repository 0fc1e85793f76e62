#include "exion/tensor/simd_dispatch.h"

#include <atomic>
#include <cstdlib>

namespace exion
{

namespace
{

std::atomic<SimdTier> g_default_tier{SimdTier::Exact};

/** Probe order is widest-first within the build's architecture. */
SimdLevel
probeCpuLevel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (simd::avx512Table() != nullptr
        && __builtin_cpu_supports("avx512f"))
        return SimdLevel::Avx512;
    if (simd::avx2Table() != nullptr && __builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
#else
    if (simd::neonTable() != nullptr)
        return SimdLevel::Neon;
#endif
    return SimdLevel::Scalar;
}

/** Widths order the EXION_SIMD cap clamps against. */
int
levelRank(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return 0;
    case SimdLevel::Neon:
        return 1;
    case SimdLevel::Avx2:
        return 2;
    case SimdLevel::Avx512:
        return 3;
    }
    return 0;
}

SimdLevel
computeActiveLevel()
{
    SimdLevel level = probeCpuLevel();
    if (const char *env = std::getenv("EXION_SIMD")) {
        const std::optional<SimdLevel> cap = parseSimdLevel(env);
        if (cap && levelRank(*cap) < levelRank(level))
            level = *cap;
    }
    return level;
}

const SimdKernels &
tableForLevel(SimdLevel level)
{
    const SimdKernels *table = nullptr;
    switch (level) {
    case SimdLevel::Scalar:
        return simd::scalarTable();
    case SimdLevel::Neon:
        table = simd::neonTable();
        break;
    case SimdLevel::Avx2:
        table = simd::avx2Table();
        break;
    case SimdLevel::Avx512:
        table = simd::avx512Table();
        break;
    }
    return table != nullptr ? *table : simd::scalarTable();
}

} // namespace

SimdLevel
activeSimdLevel()
{
    static const SimdLevel level = computeActiveLevel();
    return level;
}

const SimdKernels &
activeKernels()
{
    static const SimdKernels &table = tableForLevel(activeSimdLevel());
    return table;
}

const SimdKernels &
simdKernels(SimdTier tier)
{
    return tier == SimdTier::Scalar ? simd::scalarTable()
                                    : activeKernels();
}

SimdTier
defaultSimdTier()
{
    return g_default_tier.load(std::memory_order_relaxed);
}

void
setDefaultSimdTier(SimdTier tier)
{
    g_default_tier.store(tier, std::memory_order_relaxed);
}

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Scalar:
        return "scalar";
    case SimdTier::Exact:
        return "exact";
    }
    return "unknown";
}

std::optional<SimdTier>
parseSimdTier(const std::string &name)
{
    if (name == "scalar")
        return SimdTier::Scalar;
    if (name == "exact")
        return SimdTier::Exact;
    return std::nullopt;
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Neon:
        return "neon";
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Avx512:
        return "avx512";
    }
    return "unknown";
}

std::optional<SimdLevel>
parseSimdLevel(const std::string &name)
{
    if (name == "scalar")
        return SimdLevel::Scalar;
    if (name == "neon")
        return SimdLevel::Neon;
    if (name == "avx2")
        return SimdLevel::Avx2;
    if (name == "avx512")
        return SimdLevel::Avx512;
    return std::nullopt;
}

} // namespace exion
