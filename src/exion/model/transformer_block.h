/**
 * @file
 * The typical transformer block of Fig. 3(b).
 *
 * Pre-norm design: x + Attn(LN(x)), then h + FFN(LN(h)). The block
 * views its weights in a WeightStore; computation strategy is delegated
 * to a BlockExecutor. Operands the sparse paths read in another layout
 * (eager prediction's LOD images, FFN-Reuse's transposed first FFN
 * layer) are derived from those views once per block, on first use,
 * and never stored.
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
     * Block viewing a WeightStore's "blk<id>.*" layers. Borrows
     * storage: the store must outlive the block.
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
     * norms and residual adds here are row-independent, and the
     * executor keeps the token-mixing sub-layers per member, so each
     * member's rows equal a solo forward.
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
     * The transposed first FFN layer(s): W1^T (and W1v^T under GEGLU),
     * what FfnReuse's float sparse recompute reads row by row.
     */
    struct FfnTransposes
    {
        Matrix w1t;
        Matrix w1vt; //!< empty when GELU
    };

    /**
     * transpose(ffn1().weight()) and, under GEGLU,
     * transpose(ffn1Value().weight()). Built on first use, once per
     * block, and shared like epWeightImages(); dense-only use never
     * builds them.
     */
    const FfnTransposes &ffn1Transposed() const;

    /**
     * Eager prediction's LOD weight images for mode. Built on first
     * use, once per mode and block, and shared by every executor,
     * worker and cohort member after that (thread-safe). Dense-only
     * use never builds them.
     */
    const EpWeightImages &epWeightImages(LodMode mode) const;

  private:
    /** Operands derived from the block's weights on first use: EP's
        images, one slot per LodMode, and FFN-Reuse's transposes.
        Behind a pointer so the block stays movable. */
    struct DerivedCache
    {
        std::once_flag epOnce[2];
        EpWeightImages epImages[2];
        std::once_flag ffnOnce;
        FfnTransposes ffn;
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

    std::unique_ptr<DerivedCache> derived_ =
        std::make_unique<DerivedCache>();
};

} // namespace exion

#endif // EXION_MODEL_TRANSFORMER_BLOCK_H_
