/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the sparse hot paths.
 *
 * Every open-coded inner loop the profiles flagged — bitmask
 * popcount/compare words, FFN-Reuse threshold scans and masked
 * products, eager prediction's compare loops and the integer GEMM its
 * log-domain MMULs reduce to, the Blocked GEMM micro-kernel — now
 * calls a *named kernel* out of a function table. One table per
 * instruction set (kernels_{scalar,avx2,avx512,neon}.cc), probed once
 * at runtime (CPUID / compile-time ISA) and selected behind the scalar
 * reference, so the same binary runs the widest vectors the host
 * offers and plain scalar everywhere else.
 *
 * Numerics contract: kernels vectorize only across *independent
 * output elements* (axpy j-sweeps, per-lane compares, integer
 * reductions — integer sums are exact in any order). Each float
 * output element's accumulation chain stays in the golden reference
 * order from gemm.h (one accumulator, +0.0f start, ascending k,
 * separate mul then add, no FMA), so the vector path is
 * bit-identical to scalar *by construction* and the existing
 * maxAbsDiff == 0 differential tests run with vector dispatch
 * active.
 *
 * Executors and engine options carry a SimdTier: Exact (default)
 * runs the active level's table, Scalar pins an engine to the scalar
 * table; the two are bit-identical. The EXION_SIMD environment
 * variable (scalar|neon|avx2|avx512|auto) caps the *process-wide*
 * detected level before any table is handed out — the CI sanitizer
 * matrix runs a forced-scalar leg this way.
 */

#ifndef EXION_TENSOR_SIMD_DISPATCH_H_
#define EXION_TENSOR_SIMD_DISPATCH_H_

#include <optional>
#include <string>

#include "exion/common/types.h"

namespace exion
{

/** Largest operand magnitude gemmInt12 accepts: |lodImage| of Int12. */
inline constexpr i64 kGemmInt12MaxAbs = 2048;

/**
 * Most k-steps an i32 accumulator lane of gemmInt12 may take between
 * flushes: 511 * 2048^2 < 2^31 <= 512 * 2048^2.
 */
inline constexpr Index kGemmInt12FlushSteps = 511;
static_assert(static_cast<i64>(kGemmInt12FlushSteps) * kGemmInt12MaxAbs
                  * kGemmInt12MaxAbs
              <= i64{0x7fffffff});

/** Instruction-set level of a kernel table. */
enum class SimdLevel
{
    Scalar, //!< portable reference kernels
    Neon,   //!< 128-bit ARM NEON
    Avx2,   //!< 256-bit x86 AVX2
    Avx512, //!< 512-bit x86 AVX-512F
};

/** Kernel table an engine runs under (see file docs). */
enum class SimdTier
{
    Scalar, //!< force the scalar reference table (debugging)
    Exact,  //!< vector kernels, reference-order reductions (default)
};

/**
 * The kernel function table. One instance per instruction set; all
 * entries are always populated (a level that has no specialised
 * implementation of an entry points it at the scalar reference).
 *
 * Exactness notes per entry are the contract vector implementations
 * must satisfy; test_simd.cc enforces them against the scalar table
 * on adversarial inputs (NaN/Inf payloads, ragged tails).
 */
struct SimdKernels
{
    /** Level name for logs/bench output. */
    const char *name;

    /**
     * out[j] += a * x[j] for j in [0, n). Exact: per element one
     * rounded multiply then one rounded add, independent across j.
     * Caveat shared by every float kernel: when an addition's two
     * operands are BOTH NaN, the propagated payload is unspecified
     * (IEEE 754 leaves the choice to the implementation and
     * hardware takes the first operand's payload, whose position
     * the compiler picks) — NaN-ness itself is always identical.
     */
    void (*axpyF32)(float *out, const float *x, float a, Index n);

    /**
     * Four jammed axpy steps: per element
     * out[j] = (((out[j] + a0*x0[j]) + a1*x1[j]) + a2*x2[j]) + a3*x3[j]
     * with every multiply and add rounded separately, in that order.
     * Exact: the Blocked GEMM micro-kernel's k-jam chain.
     */
    void (*axpy4F32)(float *out, const float *x0, const float *x1,
                     const float *x2, const float *x3, float a0,
                     float a1, float a2, float a3, Index n);

    /** sum_k (i64)a[k] * b[k]. Integer: exact in any order. */
    i64 (*dotI32)(const i32 *a, const i32 *b, Index n);

    /**
     * C = A * B over bounded integers: A is m x k (rows lda apart),
     * B is k x n (rows ldb apart), C is m x n i64 (rows ldc apart,
     * overwritten). @pre every operand's magnitude is at most
     * kGemmInt12MaxAbs.
     *
     * Eager prediction's log-domain MMULs reduce to this GEMM:
     * ldProduct(a, b) == lodImage(a) * lodImage(b), and an Int12
     * value's image has magnitude at most 2048. Vector forms run a
     * row-panel axpy over i32 lanes and flush the lanes to i64 after
     * at most kGemmInt12FlushSteps k-steps, the most that cannot
     * overflow. Integer sums are exact in any order, so every table
     * and every blocking is bit-identical to the scalar reference.
     */
    void (*gemmInt12)(const i32 *a, Index lda, const i32 *b, Index ldb,
                      i64 *c, Index ldc, Index m, Index k, Index n);

    /**
     * Bit i of the result is set iff |x[i]| > theta, for i in
     * [0, n), n <= 64. Matches std::abs(x[i]) > theta exactly:
     * ordered compare, so NaN payloads yield 0 bits; -Inf compares
     * as +Inf.
     */
    u64 (*absGreaterMask64)(const float *x, float theta, Index n);

    /**
     * Bit i set iff x[i] >= threshold, i in [0, n), n <= 64.
     * Ordered compare (NaN anywhere yields 0 for that lane).
     */
    u64 (*cmpGeMask64)(const float *x, float threshold, Index n);

    /** Total set bits across n words. */
    u64 (*popcountWords)(const u64 *w, Index n);

    /** Total set bits of a[i] & b[i] across n words. */
    u64 (*andPopcountWords)(const u64 *a, const u64 *b, Index n);

    /** dst[i] |= src[i] for n words. */
    void (*orWords)(u64 *dst, const u64 *src, Index n);
};

/**
 * The process-wide active level: the highest level this build carries
 * kernels for that the CPU supports, capped by EXION_SIMD. Probed
 * once on first use, constant afterwards.
 */
SimdLevel activeSimdLevel();

/** Kernel table of the active level. */
const SimdKernels &activeKernels();

/**
 * Table for a tier: the scalar reference table under
 * SimdTier::Scalar, the active level's table under Exact.
 */
const SimdKernels &simdKernels(SimdTier tier);

/**
 * Process-wide default tier consulted by defaulted parameters across
 * the tensor/model/sparsity layers. Starts as Exact. Thread-safe
 * (atomic).
 */
SimdTier defaultSimdTier();

/** Sets the process-wide default tier. Thread-safe (atomic). */
void setDefaultSimdTier(SimdTier tier);

/** Lower-case tier name ("scalar" / "exact"). */
const char *simdTierName(SimdTier tier);

/** Parses a tier name; nullopt for anything unrecognised. */
std::optional<SimdTier> parseSimdTier(const std::string &name);

/** Lower-case level name ("scalar" / "neon" / "avx2" / "avx512"). */
const char *simdLevelName(SimdLevel level);

/**
 * Parses an EXION_SIMD cap value. "scalar"/"neon"/"avx2"/"avx512"
 * yield that level; "auto", empty or unrecognised values yield
 * nullopt (no cap). Pure — exposed for tests; activeSimdLevel()
 * applies it to the probed level once.
 */
std::optional<SimdLevel> parseSimdLevel(const std::string &name);

namespace simd
{

/*
 * Per-ISA tables. Levels this build has no kernels for (wrong
 * architecture) return nullptr and are skipped by the probe. The
 * scalar reference kernels are also exported individually so wider
 * tables can point unspecialised entries — and their own ragged
 * tails — at the golden chains.
 */

const SimdKernels &scalarTable();
const SimdKernels *avx2Table();
const SimdKernels *avx512Table();
const SimdKernels *neonTable();

void axpyF32Scalar(float *out, const float *x, float a, Index n);
void axpy4F32Scalar(float *out, const float *x0, const float *x1,
                    const float *x2, const float *x3, float a0,
                    float a1, float a2, float a3, Index n);
/**
 * sum_k a[k] * b[k] as one serial chain from +0.0f, k ascending: the
 * golden per-element chain. No table entry — a vector form would have
 * to reassociate the reduction — so the kept-score and masked
 * recompute dots call it directly.
 */
float dotF32Scalar(const float *a, const float *b, Index n);
i64 dotI32Scalar(const i32 *a, const i32 *b, Index n);
void gemmInt12Scalar(const i32 *a, Index lda, const i32 *b, Index ldb,
                     i64 *c, Index ldc, Index m, Index k, Index n);
u64 absGreaterMask64Scalar(const float *x, float theta, Index n);
u64 cmpGeMask64Scalar(const float *x, float threshold, Index n);
u64 popcountWordsScalar(const u64 *w, Index n);
u64 andPopcountWordsScalar(const u64 *a, const u64 *b, Index n);
void orWordsScalar(u64 *dst, const u64 *src, Index n);

} // namespace simd

} // namespace exion

#endif // EXION_TENSOR_SIMD_DISPATCH_H_
