/**
 * @file
 * Design-choice ablations for ConMerge, which no figure of the paper
 * covers: how much does each architectural knob buy?
 *
 *  - merge depth: origins per physical column (1 = condensing only,
 *    2 = single merge, 3 = the paper's triple-buffered WMEM);
 *  - retry budget: candidate blocks tried per round;
 *  - the per-lane single-CV-slot constraint is exercised implicitly —
 *    occupancy and accept rates show how often it binds.
 */

#include "exion/accel/conmerge_estimator.h"
#include "exion/common/table.h"
#include "exion/model/config.h"

using namespace exion;

int
main()
{
    {
        TextTable table({"Model", "Depth 1 (condense)", "Depth 2",
                         "Depth 3 (paper)"});
        table.setTitle("Ablation — remaining columns vs merge depth "
                       "(1st FFN layer)");
        for (Benchmark b : {Benchmark::StableDiffusion, Benchmark::MDM,
                            Benchmark::DiT}) {
            const ModelConfig cfg = makeConfig(b, Scale::Full);
            const StageConfig &stage = cfg.stages.front();
            std::vector<std::string> row = {benchmarkName(b)};
            for (Index rounds : {0u, 1u, 2u}) {
                ConMergeConfig cm;
                cm.maxMergeRounds = rounds;
                const ConMergeSummary s = estimateFfnConMerge(
                    stage.tokens, stage.ffnMult * stage.dModel,
                    ffnMaskParams(b), 8, 0xab1 + static_cast<u64>(b),
                    cm);
                row.push_back(formatPercent(s.mergedRemainingFraction));
            }
            table.addRow(std::move(row));
        }
        table.addNote("Depth 1 executes per-tile condensing only; the "
                      "third origin (triple-buffered WMEM) is what "
                      "reaches the paper's single-digit remainders.");
        table.print();
    }

    {
        TextTable table({"Retries", "Remaining cols", "CAU cycles/group"});
        table.setTitle("Ablation — retry budget per merge round "
                       "(Stable Diffusion FFN)");
        const ModelConfig cfg = makeConfig(Benchmark::StableDiffusion,
                                           Scale::Full);
        const StageConfig &stage = cfg.stages.front();
        for (Index attempts : {1u, 2u, 3u, 6u}) {
            ConMergeConfig cm;
            cm.maxAttemptsPerRound = attempts;
            const ConMergeSummary s = estimateFfnConMerge(
                stage.tokens, stage.ffnMult * stage.dModel,
                ffnMaskParams(Benchmark::StableDiffusion), 8, 0xab2,
                cm);
            table.addRow({
                std::to_string(attempts),
                formatPercent(s.mergedRemainingFraction),
                formatDouble(s.mergeCyclesPerGroup, 0),
            });
        }
        table.addNote("More retries pack slightly tighter at linearly "
                      "growing CVG cost; the default (3) sits at the "
                      "knee.");
        table.print();
    }
    return 0;
}
