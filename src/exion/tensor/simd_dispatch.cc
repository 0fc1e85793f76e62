#include "exion/tensor/simd_dispatch.h"

#include <cstdlib>
#include <cstring>

#include "exion/common/logging.h"

namespace exion
{

namespace
{

/** Probe order is widest-first within the build's architecture. */
SimdLevel
probeCpuLevel()
{
#if defined(__x86_64__) || defined(__i386__)
    // Both vector levels spell the golden chain with fused
    // multiply-adds, and the AVX-512 table runs the AVX2 table's
    // masked dots, so each needs the FMA bit too.
    if (!__builtin_cpu_supports("fma"))
        return SimdLevel::Scalar;
    if (simd::avx512Table() != nullptr
        && __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512bw")
        && __builtin_cpu_supports("avx512dq"))
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
    const char *env = std::getenv("EXION_SIMD");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0)
        return level;
    const std::optional<SimdLevel> cap = parseSimdLevel(env);
    if (!cap)
        EXION_FATAL("EXION_SIMD='", env, "' is not a SIMD level; use "
                    "scalar, neon, avx2, avx512 or auto");
    return levelRank(*cap) < levelRank(level) ? *cap : level;
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
