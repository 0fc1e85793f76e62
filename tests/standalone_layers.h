/**
 * @file
 * Stand-alone layers for unit tests. A layer is only ever a view of a
 * WeightStore, so each of these writes a small store of its own with
 * WeightStoreBuilder::addLinear, drawing from the caller's Rng in the
 * layer's order (a block: wq, wk, wv, wo, ffn1, ffn2, then ffn1v under
 * GEGLU; a ResBlock: conv1, conv2), and keeps that store alive beside
 * the layer that views it.
 */

#ifndef EXION_TESTS_STANDALONE_LAYERS_H_
#define EXION_TESTS_STANDALONE_LAYERS_H_

#include <memory>
#include <string>

#include "exion/model/resblock.h"
#include "exion/model/transformer_block.h"
#include "exion/model/weight_store.h"

namespace exion
{

/** The store a stand-alone layer views: a base class, so it is built
    before the layer and outlives it. */
struct StoreOwner
{
    std::shared_ptr<const WeightStore> store;
};

/** in x out Linear with N(0, 1/sqrt(in)) weights and a zero bias. */
class StandaloneLinear : private StoreOwner, public Linear
{
  public:
    StandaloneLinear(Index in, Index out, Rng &rng)
        : StoreOwner{draw(in, out, rng)},
          Linear(Linear::fromStore(*store, "lin", in, out))
    {
    }

  private:
    static std::shared_ptr<const WeightStore>
    draw(Index in, Index out, Rng &rng)
    {
        WeightStoreBuilder b{ModelConfig{}};
        b.addLinear("lin", in, out, rng);
        return b.finish();
    }
};

/** d x d ResBlock. */
class StandaloneResBlock : private StoreOwner, public ResBlock
{
  public:
    StandaloneResBlock(Index d_model, Rng &rng)
        : StoreOwner{draw(d_model, rng)}, ResBlock(*store, "res", d_model)
    {
    }

  private:
    static std::shared_ptr<const WeightStore>
    draw(Index d, Rng &rng)
    {
        WeightStoreBuilder b{ModelConfig{}};
        b.addLinear("res.conv1", d, d, rng);
        b.addLinear("res.conv2", d, d, rng);
        return b.finish();
    }
};

/** Transformer block "blk<id>" (see TransformerBlock for the
    parameters). */
class StandaloneBlock : private StoreOwner, public TransformerBlock
{
  public:
    StandaloneBlock(int id, Index d_model, Index n_heads, Index ffn_mult,
                    bool geglu, Rng &rng, double score_temp = 1.0)
        : StoreOwner{draw(id, d_model, ffn_mult, geglu, rng)},
          TransformerBlock(id,
                           StageConfig{0, d_model, n_heads, ffn_mult, 1, 0,
                                       score_temp},
                           geglu, *store)
    {
    }

  private:
    static std::shared_ptr<const WeightStore>
    draw(int id, Index d, Index ffn_mult, bool geglu, Rng &rng)
    {
        WeightStoreBuilder b{ModelConfig{}};
        const std::string bp = "blk" + std::to_string(id);
        const Index hid = ffn_mult * d;
        for (const char *proj : {".wq", ".wk", ".wv", ".wo"})
            b.addLinear(bp + proj, d, d, rng);
        b.addLinear(bp + ".ffn1", d, hid, rng);
        b.addLinear(bp + ".ffn2", hid, d, rng);
        if (geglu)
            b.addLinear(bp + ".ffn1v", d, hid, rng);
        return b.finish();
    }
};

} // namespace exion

#endif // EXION_TESTS_STANDALONE_LAYERS_H_
