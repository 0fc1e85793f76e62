/**
 * @file
 * Eager Prediction Engine timing model (Fig. 15).
 *
 * The EPRE is a 16x16 array of log-domain DPUs: shifters, low-precision
 * adders and the one-hot adder tree built from OR gates. Its tile
 * timing matches the SDUE's (one 16-element LD step per cycle); the
 * functional log-domain arithmetic lives in exion/sparsity/log_domain.
 * During operation the EPRE's latency is mostly hidden behind SDUE and
 * CFSE execution (Section IV-A); the performance model overlaps it.
 */

#ifndef EXION_SIM_EPRE_H_
#define EXION_SIM_EPRE_H_

#include "exion/sim/params.h"

namespace exion
{

/**
 * EPRE timing model.
 */
class Epre
{
  public:
    explicit Epre(const DscParams &params);

    /** Cycles for a log-domain (m x k) * (k x n) prediction MMUL. */
    Cycle ldMmulCycles(Index m, Index k, Index n) const;

    /**
     * Cycles to predict one block's attention scores.
     *
     * Covers the LD Q/K projections of every head plus the LD QK^T,
     * and the top-k / one-hot scan of each predicted row.
     *
     * @param tokens  sequence length
     * @param d_model embedding width
     * @param n_heads attention heads
     */
    Cycle predictAttentionCycles(Index tokens, Index d_model,
                                 Index n_heads) const;

  private:
    DscParams params_;
};

} // namespace exion

#endif // EXION_SIM_EPRE_H_
