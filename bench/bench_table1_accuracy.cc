/**
 * @file
 * Regenerates Table I: model accuracy under EXION's optimisations.
 *
 * Seven benchmarks, four variants (vanilla, FFN-Reuse, +EP, +INT12
 * quantisation). Without the original datasets the task metrics
 * (FID/R-Precision/FAD/IS/...) are replaced by PSNR-vs-vanilla — the
 * cross-model metric Table I itself reports — plus cosine similarity
 * and a Fréchet-distance proxy over a batch of generations (the FID
 * stand-in that metrics/frechet.h describes). Also prints the
 * achieved inter-/intra-iteration sparsity and the EP projection-skip
 * rates: for Q, K and V, the share of (row, head) pairs whose row
 * that head did not project, as ExecStats counts them.
 */

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "exion/common/table.h"

using namespace exion;
using namespace exion::bench;

int
main(int argc, char **argv)
{
    const bool quick = quickMode(argc, argv);
    const int fd_batch = quick ? 3 : 6;

    TextTable table({"Model", "Variant", "PSNR (dB)", "CosSim",
                     "FD-proxy", "InterSp", "IntraSp", "Q/K/V skip"});
    table.setTitle("Table I — Accuracy under EXION optimisations "
                   "(reduced-scale functional runs)");

    for (Benchmark b : allBenchmarks()) {
        const ModelConfig cfg = reducedConfig(b, quick, 16);
        const DiffusionPipeline pipe(cfg);

        // Batches for the Fréchet proxy (distinct noise seeds).
        std::vector<Matrix> vanilla_batch;
        for (int i = 0; i < fd_batch; ++i) {
            DenseExecutor exec;
            vanilla_batch.push_back(pipe.run(exec, 100 + i));
        }
        FrechetProxy proxy(cfg.latentTokens * cfg.latentDim, 24);

        for (Variant v : {Variant::Vanilla, Variant::FfnReuse,
                          Variant::FfnReuseEp,
                          Variant::FfnReuseEpQuant}) {
            std::vector<Matrix> batch;
            ExecStats stats;
            for (int i = 0; i < fd_batch; ++i) {
                const VariantResult run = runVariant(pipe, v, 100 + i);
                batch.push_back(run.output);
                stats.merge(run.stats);
            }
            const double fd = proxy.distance(vanilla_batch, batch);
            const double p = psnr(vanilla_batch[0], batch[0]);
            const double cs = cosineSimilarity(vanilla_batch[0],
                                               batch[0]);
            std::string skips = "-";
            if (stats.qRowsTotal > 0 && stats.scoreSparsitySamples) {
                skips = formatPercent(
                            static_cast<double>(stats.qRowsSkipped)
                                / stats.qRowsTotal, 0)
                    + "/"
                    + formatPercent(
                          static_cast<double>(stats.kColsSkipped)
                              / stats.kColsTotal, 0)
                    + "/"
                    + formatPercent(
                          static_cast<double>(stats.vColsSkipped)
                              / stats.vColsTotal, 0);
            }
            table.addRow({
                benchmarkName(b),
                variantName(v),
                std::isinf(p) ? std::string("inf") : formatDouble(p, 1),
                formatDouble(cs, 4),
                formatDouble(fd, 3),
                stats.ffnSparsitySamples
                    ? formatPercent(stats.meanFfnSparsity(), 0) : "-",
                stats.scoreSparsitySamples
                    ? formatPercent(stats.meanScoreSparsity(), 0)
                    : "-",
            skips,
            });
        }
    }
    table.addNote("Paper Table I reports PSNR-vs-vanilla of ~26-33 dB "
                  "for FFN-Reuse and ~10-27 dB with EP added.");
    table.addNote("FD-proxy substitutes FID/FAD (random-projection "
                  "Frechet distance over a batch; lower is better).");
    table.addNote("InterSp/IntraSp = achieved FFN-Reuse / EP score "
                  "sparsity; Table I targets per model.");
    table.print();
    return 0;
}
