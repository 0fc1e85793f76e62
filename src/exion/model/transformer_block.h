/**
 * @file
 * The typical transformer block of Fig. 3(b).
 *
 * Pre-norm design: x + Attn(LN(x)), then h + FFN(LN(h)). The block
 * views its weights in a WeightStore; computation strategy is delegated
 * to a BlockExecutor.
 */

#ifndef EXION_MODEL_TRANSFORMER_BLOCK_H_
#define EXION_MODEL_TRANSFORMER_BLOCK_H_

#include <memory>
#include <mutex>
#include <vector>

#include "exion/common/bitops.h"
#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/model/layers.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

/**
 * Eager prediction's weight operands for one LodMode: the LOD images
 * of every Wq/Wk head slice. Head h of a projection is
 * lodImage(QuantMatrix::fromFloat(sliceCols(W, h*dh, dh), Int12)),
 * with that quantisation's own scale. The heads of one projection sit
 * side by side in one d x d buffer, so a single integer GEMM
 * (ldImageMatmul) predicts every head's projection at once.
 */
struct EpWeightImages
{
    EpWeightImages() = default;
    EpWeightImages(const EpWeightImages &) = delete;
    EpWeightImages &operator=(const EpWeightImages &) = delete;

    /** Head h's image: d x dh view into the projection's buffer
        (row stride d), carrying the head slice's Int12 params. */
    std::vector<QuantMatrix> wq;
    std::vector<QuantMatrix> wk;

    /** The buffers the views read (d x d, row-major). */
    std::vector<i32> wqValues;
    std::vector<i32> wkValues;
};

/**
 * Transformer block: multi-head self-attention + 2-layer FFN.
 */
class TransformerBlock
{
  public:
    /**
     * Block viewing a WeightStore's "blk<id>.*" layers, including the
     * at-rest transposed first-FFN-layer copies ffn1AtRest() exposes
     * for the FFN-Reuse sparse path. Borrows storage: the store must
     * outlive the block.
     *
     * @param id     unique block index within the network
     * @param stage  dModel, nHeads (must divide dModel), ffnMult (FFN
     *               hidden dim = ffnMult * dModel) and scoreTemp
     * @param geglu  use GEGLU (two first-layer paths) instead of GELU
     * @throws WeightStoreError when nHeads does not divide dModel, or a
     *         tensor is missing or disagrees with the stage in shape
     */
    TransformerBlock(int id, const StageConfig &stage, bool geglu,
                     const WeightStore &ws);

    /**
     * Runs the block on x (tokens x d_model) via the executor.
     *
     * x may also be a cohort stack (members x tokens rows): the
     * norms and residual adds here are row-independent, and a
     * segment-aware executor keeps the token-mixing sub-layers
     * per-member, so each member's rows equal a solo forward.
     */
    Matrix forward(const Matrix &x, BlockExecutor &exec) const;

    /** Unique block index. */
    int id() const { return id_; }

    /** Embedding width. */
    Index dModel() const { return dModel_; }

    /** Attention head count. */
    Index nHeads() const { return nHeads_; }

    /** Per-head width. */
    Index headDim() const { return dModel_ / nHeads_; }

    /** FFN hidden width. */
    Index ffnHidden() const { return ffn1_.outDim(); }

    /** True when the FFN non-linearity is GEGLU. */
    bool geglu() const { return geglu_; }

    /** Attention score temperature. */
    double scoreTemp() const { return scoreTemp_; }

    /** Q projection. */
    const Linear &wq() const { return wq_; }
    /** K projection. */
    const Linear &wk() const { return wk_; }
    /** V projection. */
    const Linear &wv() const { return wv_; }
    /** Output projection after head concatenation. */
    const Linear &wo() const { return wo_; }
    /** First FFN layer (gate path for GEGLU). */
    const Linear &ffn1() const { return ffn1_; }
    /** Second GEGLU first-layer path (value path). Empty when GELU. */
    const Linear &ffn1Value() const { return ffn1Value_; }
    /** Second FFN layer. */
    const Linear &ffn2() const { return ffn2_; }

    /**
     * At-rest copies of the transposed first FFN layer(s): W1^T (and
     * W1v^T under GEGLU) — what FfnReuse's float sparse recompute
     * reads row by row.
     */
    struct FfnAtRest
    {
        Matrix w1t;
        Matrix w1vt;
    };

    /** The block's at-rest transposed first-FFN-layer copies. */
    const FfnAtRest &ffn1AtRest() const { return ffnAtRest_; }

    /**
     * Eager prediction's LOD weight images for mode. Built on first
     * use, once per mode and block, and shared by every executor,
     * worker and cohort member after that (thread-safe). Dense-only
     * use never builds them.
     */
    const EpWeightImages &epWeightImages(LodMode mode) const;

  private:
    /** Lazily built EpWeightImages, one slot per LodMode. Behind a
        pointer so the block stays movable. */
    struct EpImageCache
    {
        std::once_flag once[2];
        EpWeightImages images[2];
    };

    int id_;
    Index dModel_;
    Index nHeads_;
    bool geglu_;
    double scoreTemp_;

    Linear wq_;
    Linear wk_;
    Linear wv_;
    Linear wo_;
    Linear ffn1_;
    Linear ffn1Value_;
    Linear ffn2_;

    Matrix ln1Gamma_;
    Matrix ln1Beta_;
    Matrix ln2Gamma_;
    Matrix ln2Beta_;

    FfnAtRest ffnAtRest_;

    std::unique_ptr<EpImageCache> epImages_ =
        std::make_unique<EpImageCache>();
};

} // namespace exion

#endif // EXION_MODEL_TRANSFORMER_BLOCK_H_
