/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the sparse hot paths.
 *
 * Every open-coded inner loop the profiles flagged — bitmask
 * popcount/compare words, FFN-Reuse threshold scans and masked
 * products, eager prediction's compare loops, its Int12 quantise and
 * dequantise loops and the integer GEMM its log-domain MMULs reduce
 * to, the float GEMM every dense product runs on — now calls a *named
 * kernel* out of a function table. One table per instruction set
 * (kernels_{scalar,avx2,avx512,neon}.cc), probed once at runtime
 * (CPUID / compile-time ISA) and selected behind the scalar
 * reference, so the same binary runs the widest vectors the host
 * offers and plain scalar everywhere else.
 *
 * Numerics contract: kernels vectorize only across *independent
 * output elements* (axpy j-sweeps, GEMM register tiles, one masked
 * dot per lane, per-lane compares and conversions, integer GEMM tiles
 * — integer sums are exact in any order). Each float output element's
 * accumulation chain stays in the golden reference order from gemm.h (one
 * accumulator, +0.0f start, ascending k, one fused multiply-add per
 * term: acc = fma(a, b, acc), rounded once), so the vector path is
 * bit-identical to scalar *by construction* and the existing
 * maxAbsDiff == 0 differential tests run with vector dispatch active.
 * The scalar table spells the chain with std::fma; AVX2 with
 * _mm256_fmadd_ps, AVX-512 with _mm512_fmadd_ps and NEON with
 * vfmaq_f32 / vfmaq_n_f32 (never vmlaq_f32, which rounds the product).
 * So the AVX2 level needs the FMA instruction set as well as AVX2: a
 * host with AVX2 but no FMA runs the scalar table.
 *
 * One table per process: every kernel call reads activeKernels().
 * The EXION_SIMD environment variable (scalar|neon|avx2|avx512|auto)
 * is the only knob; it caps the detected level before the first table
 * is handed out, and any other non-empty value stops the process. The
 * CI sanitizer matrix runs a forced-scalar leg this way, and the
 * differential suite and bench_batch_throughput compare a run against
 * a child process under EXION_SIMD=scalar (common/rerun_self.h).
 */

#ifndef EXION_TENSOR_SIMD_DISPATCH_H_
#define EXION_TENSOR_SIMD_DISPATCH_H_

#include <optional>
#include <string>

#include "exion/common/bitops.h"
#include "exion/common/types.h"

namespace exion
{

/** Largest operand magnitude gemmInt12 accepts: |lodImage| of Int12. */
inline constexpr i64 kGemmInt12MaxAbs = 2048;

/**
 * Most i16 pairs an i32 accumulator lane of the x86 gemmInt12 may add
 * between flushes: a pair adds two products, and
 * 255 * 2 * 2048^2 < 2^31 <= 256 * 2 * 2048^2.
 */
inline constexpr Index kGemmInt12FlushPairs = 255;
static_assert(static_cast<i64>(kGemmInt12FlushPairs) * 2
                  * kGemmInt12MaxAbs * kGemmInt12MaxAbs
              <= i64{0x7fffffff});

/**
 * Most k-steps an i32 accumulator lane of the NEON gemmInt12, one
 * product per step, may take between flushes:
 * 511 * 2048^2 < 2^31 <= 512 * 2048^2.
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
    Avx2,   //!< 256-bit x86 AVX2 and FMA
    Avx512, //!< 512-bit x86 AVX-512F, AVX-512BW, AVX-512DQ and FMA
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
     * out[j] = fma(a, x[j], out[j]) for j in [0, n). Exact: per
     * element one fused multiply-add, rounded once, independent
     * across j. Caveat shared by every float kernel: when more than
     * one operand of a multiply-add is NaN, the propagated payload is
     * unspecified (IEEE 754 leaves the choice to the implementation,
     * and hardware picks by operand position, which the compiler
     * chooses) — NaN-ness itself is always identical.
     */
    void (*axpyF32)(float *out, const float *x, float a, Index n);

    /**
     * C = A * B over floats: A is m x k (rows lda apart), B is k x n
     * (rows ldb apart), C is m x n (rows ldc apart, overwritten; the
     * gaps between its rows are never written). Every dense float
     * product in the library runs here (gemm.h).
     *
     * Each C element is the golden chain: one accumulator that starts
     * at +0.0f and takes acc = fma(a(i, kk), b(kk, j), acc) for kk
     * ascending, one rounding per term. Vector forms keep an MR x NR
     * block of C in registers over a k-block and read A in place.
     * AVX-512 packs each k-block of each 32-column panel of B
     * contiguous just before its row tiles run (its one scratch,
     * 32 KiB on the calling thread's stack; a single row tile reads B
     * in place); AVX2 reads B in place. Ragged edges are masked.
     * Between k-blocks the partial sums go through C, and a float
     * store and reload is exact. So every table is bit-identical to the scalar
     * entry by construction, up to the NaN-payload caveat above. MR,
     * NR and the k-block are constants of each ISA file.
     */
    void (*gemmF32)(const float *a, Index lda, const float *b, Index ldb,
                    float *c, Index ldc, Index m, Index k, Index n);

    /**
     * out[i] = sum_k x[k] * row(idx[i])[k] over k in [0, d), for i in
     * [0, n), where row(j) starts at b + j * ldb. idx may be in any
     * order and may repeat; only out[0, n) is written. Each out[i] is
     * the golden chain: one accumulator from +0.0f, k ascending, one
     * fused multiply-add per term, and no term past d. FFN-Reuse's
     * masked recompute (x row against the set columns' rows of the
     * block's W1^T) and eager prediction's kept scores (q row against
     * the kept keys) run here.
     *
     * A chain is serial in k, so the vector form runs one chain per
     * lane: AVX2 loads 8 rows x 8 k as columns (each register takes
     * four k of row j in its low half and of row j + 4 in its high
     * half through vinsertf128, then a 4 x 4 transpose inside each
     * half: unpacklo/hi_ps, shuffle_ps 0x4E and two blends), which
     * leaves row i in lane i, then multiply-adds the 8 columns with
     * x's broadcast k in ascending k. Two such groups of 8 rows run
     * side by side, so one group's multiply-adds wait out the other's
     * latency. No gathers. A ragged last k block loads masked and adds
     * only its live columns; a ragged last row group computes spare
     * lanes that are never stored. AVX-512 runs the AVX2 entry (no
     * 16-lane form was faster beyond noise); the scalar entry runs one
     * chain per index, and NEON points at it.
     */
    void (*dotRowsF32)(const float *x, const float *b, Index ldb,
                       const Index *idx, Index n, Index d, float *out);

    /**
     * C = A * B over bounded integers: A is m x k (rows lda apart),
     * B is k x n (rows ldb apart), C is m x n i64 (rows ldc apart,
     * overwritten). @pre every operand's magnitude is at most
     * kGemmInt12MaxAbs.
     *
     * Eager prediction's log-domain MMULs reduce to this GEMM:
     * ldProduct(a, b) == lodImage(a) * lodImage(b), and an Int12
     * value's image has magnitude at most 2048, so every operand
     * fits an i16. The x86 tables pack A's rows into i16 pairs once
     * per call (a(i, 2p) low, a(i, 2p + 1) high; an odd k's last pair
     * has a zero high half), put each pair of B rows together in
     * registers (B is never copied), and multiply-add the pairs with
     * vpmaddwd into i32 lanes: an MR x 32 register tile on AVX-512
     * (which needs AVX-512BW) and MR x 16 on AVX2. The lanes widen
     * into C after at most kGemmInt12FlushPairs pairs, the most that
     * cannot overflow. NEON keeps an i32 row-panel axpy flushed every
     * kGemmInt12FlushSteps k-steps. Integer sums are exact in any
     * order, so every table and every blocking is bit-identical to
     * the scalar reference.
     */
    void (*gemmInt12)(const i32 *a, Index lda, const i32 *b, Index ldb,
                      i64 *c, Index ldc, Index m, Index k, Index n);

    /**
     * out[i] = quantizeToRange(x[i], scale, q_max) for i in [0, n):
     * the integer codes of n floats at one scale (fixed_point.h), and
     * with lod set, lodImage(code, *lod) instead, in the same pass.
     * Every quantisation of a float block in the library runs here
     * (QuantMatrix::fromFloat, eager prediction's x image and its
     * per-head requantisation).
     *
     * The vector forms run quantizeToRange's IEEE operations per
     * lane: widen to double (exact), divide by scale, round to an
     * integer in the current rounding mode (what std::rint does), send
     * NaN to 0, clamp to [-q_max - 1, q_max], truncate to i32 (exact,
     * the value is integral). So every table is bit-identical to the
     * scalar entry by construction. AVX-512 takes 16 floats per step
     * under a ragged-tail mask; AVX2 takes 8 and hands its tail to
     * the scalar entry; NEON points at the scalar entry.
     */
    void (*quantizeF32)(const float *x, Index n, double scale, i32 q_max,
                        std::optional<LodMode> lod, i32 *out);

    /**
     * out[i] = static_cast<float>(s[i] * scale) for i in [0, n): an
     * exact integer sum back to float through one double multiply.
     * Every Int12 product's dequantisation runs here (matmulQuant,
     * ldImageMatmul, eager prediction's per-head scores). The
     * AVX-512 form converts i64 to double with vcvtqq2pd (AVX-512DQ),
     * multiplies and narrows, each rounded in the current mode as the
     * scalar conversions are. AVX2 has no packed i64 conversion, so
     * AVX2 and NEON point at the scalar entry.
     */
    void (*dequantizeI64)(const i64 *s, Index n, double scale, float *out);

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
};

/**
 * The process-wide active level: the highest level this build carries
 * kernels for that the CPU supports, capped by EXION_SIMD. Probed
 * once on first use, constant afterwards. An EXION_SIMD value that
 * parseSimdLevel() rejects stops the process with EXION_FATAL.
 */
SimdLevel activeSimdLevel();

/** Kernel table of the active level: the one every kernel call uses. */
const SimdKernels &activeKernels();

/** Lower-case level name ("scalar" / "neon" / "avx2" / "avx512"). */
const char *simdLevelName(SimdLevel level);

/**
 * Parses a level name: "scalar"/"neon"/"avx2"/"avx512" yield that
 * level, anything else nullopt. Pure — exposed for tests.
 * activeSimdLevel() applies EXION_SIMD through it once: "auto" or an
 * empty value sets no cap, and any other value it rejects is fatal.
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

/**
 * Builds a scalar float chain twice on x86, for the FMA instruction
 * set and for the baseline, and lets the loader pick the FMA build on
 * a CPU that has it. At the baseline std::fma is a call to fmaf,
 * about 30x slower than the instruction and correctly rounded as the
 * instruction is, so both builds give the same bits. The scalar
 * table's float entries and gemm.h's Reference oracles carry it.
 * Elsewhere (other architectures, or a build whose baseline already
 * has FMA) std::fma is one instruction and it expands to nothing.
 */
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__) \
    && !defined(__FMA__)
#define EXION_FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define EXION_FMA_CLONES
#endif

const SimdKernels &scalarTable();
const SimdKernels *avx2Table();
const SimdKernels *avx512Table();
const SimdKernels *neonTable();

void axpyF32Scalar(float *out, const float *x, float a, Index n);
void gemmF32Scalar(const float *a, Index lda, const float *b, Index ldb,
                   float *c, Index ldc, Index m, Index k, Index n);
void dotRowsF32Scalar(const float *x, const float *b, Index ldb,
                      const Index *idx, Index n, Index d, float *out);
/** The AVX2 masked dots, which the AVX-512 table runs too (x86 only). */
void dotRowsF32Avx2(const float *x, const float *b, Index ldb,
                    const Index *idx, Index n, Index d, float *out);
void gemmInt12Scalar(const i32 *a, Index lda, const i32 *b, Index ldb,
                     i64 *c, Index ldc, Index m, Index k, Index n);
void quantizeF32Scalar(const float *x, Index n, double scale, i32 q_max,
                       std::optional<LodMode> lod, i32 *out);
void dequantizeI64Scalar(const i64 *s, Index n, double scale, float *out);
u64 absGreaterMask64Scalar(const float *x, float theta, Index n);
u64 cmpGeMask64Scalar(const float *x, float threshold, Index n);
u64 popcountWordsScalar(const u64 *w, Index n);

} // namespace simd

} // namespace exion

#endif // EXION_TENSOR_SIMD_DISPATCH_H_
