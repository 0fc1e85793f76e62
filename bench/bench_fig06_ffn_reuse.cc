/**
 * @file
 * Regenerates the Fig. 6 table: FFN-Reuse configuration and achieved
 * reduction of FFN-layer operations.
 *
 * Each benchmark runs functionally at reduced scale with its Table I
 * configuration (dense interval N, sparsity target); the harness
 * reports the measured inter-iteration sparsity, the measured FFN op
 * reduction, and the closed-form expectation
 * 1 - (dense + sparse*(1-s)) / iterations.
 */

#include "bench_util.h"
#include "exion/common/table.h"

using namespace exion;
using namespace exion::bench;

int
main(int argc, char **argv)
{
    const bool quick = quickMode(argc, argv);

    TextTable table({"Model", "N", "Iters", "Sparsity (target)",
                     "Sparsity (measured)", "FFN ops reduction",
                     "Closed-form"});
    table.setTitle("Fig. 6 — FFN-Reuse Configurations and Op Reduction");

    for (Benchmark b : allBenchmarks()) {
        const ModelConfig cfg = reducedConfig(b, quick, 12);
        const DiffusionPipeline pipe(cfg);
        const VariantResult run = runVariant(pipe, Variant::FfnReuse,
                                             77);
        const ExecStats &s = run.stats;
        const double measured_reduction = 1.0
            - static_cast<double>(s.ffnOpsExecuted)
                / static_cast<double>(s.ffnOpsDense);

        const int n = cfg.ffnReuse.denseInterval;
        const int dense = (cfg.iterations + n) / (n + 1);
        const int sparse = cfg.iterations - dense;
        const double sp = s.meanFfnSparsity();
        const double closed_form = 1.0
            - (dense + sparse * (1.0 - sp))
                / static_cast<double>(cfg.iterations);

        table.addRow({
            benchmarkName(b),
            std::to_string(n),
            std::to_string(cfg.iterations),
            formatPercent(cfg.ffnReuse.targetSparsity, 0),
            formatPercent(sp),
            formatPercent(measured_reduction),
            formatPercent(closed_form),
        });
    }
    table.addNote("Paper reports 52.47-85.41% FFN op reduction at "
                  "70-97% sparsity (Fig. 6).");
    table.addNote("Reduced-scale functional runs; Table I N and "
                  "sparsity targets.");
    table.print();
    return 0;
}
