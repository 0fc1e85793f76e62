#include "exion/model/config.h"

#include "exion/common/logging.h"

namespace exion
{

const std::vector<Benchmark> &
allBenchmarks()
{
    static const std::vector<Benchmark> list = {
        Benchmark::MLD,          Benchmark::MDM,
        Benchmark::EDGE,         Benchmark::MakeAnAudio,
        Benchmark::StableDiffusion, Benchmark::DiT,
        Benchmark::VideoCrafter2,
    };
    return list;
}

std::string
benchmarkName(Benchmark b)
{
    switch (b) {
      case Benchmark::MLD:
        return "MLD";
      case Benchmark::MDM:
        return "MDM";
      case Benchmark::EDGE:
        return "EDGE";
      case Benchmark::MakeAnAudio:
        return "Make-an-Audio";
      case Benchmark::StableDiffusion:
        return "StableDiffusion";
      case Benchmark::DiT:
        return "DiT";
      case Benchmark::VideoCrafter2:
        return "VideoCrafter2";
    }
    EXION_PANIC("unhandled benchmark");
}

Index
ModelConfig::totalBlocks() const
{
    Index total = 0;
    for (const auto &s : stages)
        total += s.nBlocks;
    return total;
}

namespace
{

/** Table I sparsity knobs, shared by both scales of a benchmark. */
void
applySparsityConfig(ModelConfig &cfg)
{
    switch (cfg.benchmark) {
      case Benchmark::MLD:
        cfg.ffnReuse = {9, 0.95};
        cfg.ep = {0.3, 0.7};
        cfg.intraTargetSparsity = 0.30;
        break;
      case Benchmark::MDM:
        cfg.ffnReuse = {5, 0.95};
        cfg.ep = {0.3, 0.05};
        cfg.intraTargetSparsity = 0.95;
        break;
      case Benchmark::EDGE:
        cfg.ffnReuse = {5, 0.95};
        cfg.ep = {0.9, 0.5};
        cfg.intraTargetSparsity = 0.50;
        break;
      case Benchmark::MakeAnAudio:
        cfg.ffnReuse = {5, 0.97};
        cfg.ep = {0.7, 0.2};
        cfg.intraTargetSparsity = 0.80;
        break;
      case Benchmark::StableDiffusion:
        cfg.ffnReuse = {4, 0.97};
        cfg.ep = {0.8, 0.8};
        cfg.intraTargetSparsity = 0.20;
        break;
      case Benchmark::DiT:
        cfg.ffnReuse = {2, 0.80};
        cfg.ep = {0.15, 0.05};
        cfg.intraTargetSparsity = 0.95;
        break;
      case Benchmark::VideoCrafter2:
        cfg.ffnReuse = {3, 0.70};
        cfg.ep = {2.0, 0.5};
        cfg.intraTargetSparsity = 0.50;
        break;
    }
}

ModelConfig
fullConfig(Benchmark b)
{
    ModelConfig cfg;
    cfg.benchmark = b;
    cfg.scale = Scale::Full;
    cfg.name = benchmarkName(b);
    cfg.seed = 0x517cc1b727220a95ULL + static_cast<u64>(b);

    switch (b) {
      case Benchmark::MLD:
        // Latent transformer over a compact motion latent.
        cfg.type = NetworkType::UNetNoRes;
        cfg.stages = {{8, 256, 4, 4, 9, 0}};
        cfg.latentTokens = 8;
        cfg.latentDim = 256;
        cfg.iterations = 50;
        break;
      case Benchmark::MDM:
        // Transformer encoder over motion frames.
        cfg.type = NetworkType::TransformerOnly;
        cfg.stages = {{196, 512, 8, 4, 8, 0}};
        cfg.latentTokens = 196;
        cfg.latentDim = 263;
        cfg.iterations = 50;
        break;
      case Benchmark::EDGE:
        cfg.type = NetworkType::TransformerOnly;
        cfg.stages = {{150, 512, 8, 4, 12, 0}};
        cfg.latentTokens = 150;
        cfg.latentDim = 151;
        cfg.iterations = 50;
        break;
      case Benchmark::MakeAnAudio:
        cfg.type = NetworkType::UNetRes;
        cfg.geglu = true;
        cfg.stages = {
            {256, 320, 8, 4, 1, 1},
            {64, 640, 8, 4, 1, 1},
            {16, 1280, 8, 4, 1, 1},
            {64, 640, 8, 4, 1, 1},
            {256, 320, 8, 4, 1, 1},
        };
        cfg.latentTokens = 256;
        cfg.latentDim = 8;
        cfg.iterations = 50;
        break;
      case Benchmark::StableDiffusion:
        cfg.type = NetworkType::UNetRes;
        cfg.geglu = true;
        cfg.stages = {
            {4096, 320, 8, 4, 1, 2},
            {1024, 640, 8, 4, 1, 2},
            {256, 1280, 8, 4, 1, 2},
            {64, 1280, 8, 4, 0, 2},
            {256, 1280, 8, 4, 1, 2},
            {1024, 640, 8, 4, 1, 2},
            {4096, 320, 8, 4, 1, 2},
        };
        cfg.latentTokens = 4096;
        cfg.latentDim = 4;
        cfg.iterations = 50;
        break;
      case Benchmark::DiT:
        // DiT-XL/2 at 256x256: 32x32 latent, patch 2 -> 256 tokens.
        cfg.type = NetworkType::TransformerOnly;
        cfg.stages = {{256, 1152, 16, 4, 28, 0}};
        cfg.latentTokens = 256;
        cfg.latentDim = 4;
        cfg.iterations = 100;
        break;
      case Benchmark::VideoCrafter2:
        // 16 frames x 32x32 latent.
        cfg.type = NetworkType::UNetRes;
        cfg.geglu = true;
        cfg.stages = {
            {16384, 320, 8, 4, 1, 2},
            {4096, 640, 8, 4, 1, 2},
            {1024, 1280, 8, 4, 1, 2},
            {256, 1280, 8, 4, 0, 2},
            {1024, 1280, 8, 4, 1, 2},
            {4096, 640, 8, 4, 1, 2},
            {16384, 320, 8, 4, 1, 2},
        };
        cfg.latentTokens = 16384;
        cfg.latentDim = 4;
        cfg.iterations = 50;
        break;
    }
    applySparsityConfig(cfg);
    return cfg;
}

ModelConfig
reducedConfig(Benchmark b)
{
    ModelConfig cfg;
    cfg.benchmark = b;
    cfg.scale = Scale::Reduced;
    cfg.name = benchmarkName(b) + "-r";
    cfg.seed = 0x2545f4914f6cdd1dULL + static_cast<u64>(b);

    switch (b) {
      case Benchmark::MLD:
        cfg.type = NetworkType::UNetNoRes;
        cfg.stages = {{8, 64, 4, 4, 4, 0}};
        cfg.latentTokens = 8;
        cfg.latentDim = 64;
        cfg.iterations = 50;
        break;
      case Benchmark::MDM:
        cfg.type = NetworkType::TransformerOnly;
        cfg.stages = {{48, 64, 4, 4, 4, 0}};
        cfg.latentTokens = 48;
        cfg.latentDim = 32;
        cfg.iterations = 50;
        break;
      case Benchmark::EDGE:
        cfg.type = NetworkType::TransformerOnly;
        cfg.stages = {{40, 64, 4, 4, 4, 0}};
        cfg.latentTokens = 40;
        cfg.latentDim = 24;
        cfg.iterations = 50;
        break;
      case Benchmark::MakeAnAudio:
        cfg.type = NetworkType::UNetRes;
        cfg.geglu = true;
        cfg.stages = {
            {64, 48, 4, 4, 1, 1},
            {16, 96, 4, 4, 1, 1},
            {64, 48, 4, 4, 1, 1},
        };
        cfg.latentTokens = 64;
        cfg.latentDim = 8;
        cfg.iterations = 50;
        break;
      case Benchmark::StableDiffusion:
        cfg.type = NetworkType::UNetRes;
        cfg.geglu = true;
        cfg.stages = {
            {128, 48, 4, 4, 1, 1},
            {32, 96, 4, 4, 1, 1},
            {128, 48, 4, 4, 1, 1},
        };
        cfg.latentTokens = 128;
        cfg.latentDim = 4;
        cfg.iterations = 50;
        break;
      case Benchmark::DiT:
        cfg.type = NetworkType::TransformerOnly;
        cfg.stages = {{32, 96, 4, 4, 6, 0}};
        cfg.latentTokens = 32;
        cfg.latentDim = 4;
        cfg.iterations = 100;
        break;
      case Benchmark::VideoCrafter2:
        cfg.type = NetworkType::UNetRes;
        cfg.geglu = true;
        cfg.stages = {
            {192, 48, 4, 4, 1, 1},
            {48, 96, 4, 4, 1, 1},
            {192, 48, 4, 4, 1, 1},
        };
        cfg.latentTokens = 192;
        cfg.latentDim = 4;
        cfg.iterations = 50;
        break;
    }
    applySparsityConfig(cfg);
    return cfg;
}

} // namespace

ModelConfig
makeConfig(Benchmark b, Scale scale)
{
    return scale == Scale::Full ? fullConfig(b) : reducedConfig(b);
}

ModelConfig
makeTinyConfig(Index tokens, Index d_model, Index n_blocks,
               int iterations)
{
    ModelConfig cfg;
    cfg.name = "tiny";
    cfg.benchmark = Benchmark::MLD;
    cfg.type = NetworkType::TransformerOnly;
    cfg.scale = Scale::Reduced;
    cfg.stages = {{tokens, d_model, 2, 4, n_blocks, 0}};
    cfg.latentTokens = tokens;
    cfg.latentDim = d_model;
    cfg.iterations = iterations;
    cfg.ffnReuse = {3, 0.9};
    cfg.ep = {0.5, 0.5};
    cfg.intraTargetSparsity = 0.5;
    cfg.seed = 42;
    return cfg;
}

} // namespace exion
