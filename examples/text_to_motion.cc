/**
 * @file
 * Text-to-motion scenario (the paper's MLD/MDM workloads).
 *
 * Generates a batch of motion latents under all four Table I
 * variants, reports quality, achieved sparsity, and the EP projection
 * skips (shares of (row, head) pairs each head did not project) — the
 * end-to-end software story of the paper on its motivating
 * application.
 */

#include <iostream>
#include <vector>

#include "exion/common/table.h"
#include "exion/metrics/frechet.h"
#include "exion/metrics/metrics.h"
#include "exion/model/pipeline.h"
#include "exion/sparsity/sparse_executor.h"

using namespace exion;

namespace
{

struct VariantSpec
{
    const char *name;
    bool ffnr;
    bool ep;
    bool quant;
};

} // namespace

int
main()
{
    ModelConfig cfg = makeConfig(Benchmark::MDM, Scale::Reduced);
    cfg.iterations = 50;
    DiffusionPipeline pipeline(cfg);
    const int batch = 4;

    std::vector<Matrix> reference;
    for (int i = 0; i < batch; ++i) {
        DenseExecutor exec;
        reference.push_back(pipeline.run(exec, 40 + i));
    }
    FrechetProxy proxy(cfg.latentTokens * cfg.latentDim, 16);

    const VariantSpec variants[] = {
        {"FFN-Reuse", true, false, false},
        {"FFN-Reuse+EP", true, true, false},
        {"FFN-Reuse+EP+Quant", true, true, true},
    };

    TextTable table({"Variant", "PSNR (dB)", "FD-proxy", "InterSp",
                     "IntraSp", "Q skip", "KV skip", "Work"});
    table.setTitle("Text-to-motion (MDM reduced, " +
                   std::to_string(batch) + " motions)");

    for (const VariantSpec &v : variants) {
        SparseExecutor exec(SparseExecutor::fromConfig(
            cfg, v.ffnr, v.ep, v.quant));
        std::vector<Matrix> outputs;
        for (int i = 0; i < batch; ++i)
            outputs.push_back(pipeline.run(exec, 40 + i));
        const ExecStats &s = exec.stats();
        const double q_skip = s.qRowsTotal
            ? static_cast<double>(s.qRowsSkipped) / s.qRowsTotal : 0.0;
        const double kv_skip = s.kColsTotal
            ? static_cast<double>(s.kColsSkipped + s.vColsSkipped)
                / (s.kColsTotal + s.vColsTotal)
            : 0.0;
        table.addRow({
            v.name,
            formatDouble(psnr(reference[0], outputs[0]), 1),
            formatDouble(proxy.distance(reference, outputs), 3),
            s.ffnSparsitySamples
                ? formatPercent(s.meanFfnSparsity(), 0) : "-",
            s.scoreSparsitySamples
                ? formatPercent(s.meanScoreSparsity(), 0) : "-",
            formatPercent(q_skip, 0),
            formatPercent(kv_skip, 0),
            formatPercent(static_cast<double>(s.totalExecuted())
                          / s.totalDense(), 1),
        });
    }
    table.addNote("Work = executed transformer ops / dense ops.");
    table.print();
    return 0;
}
