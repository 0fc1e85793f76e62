/**
 * @file
 * Regenerates Fig. 7: (a) cosine-similarity heatmap of the second
 * block's GELU output across iterations of the DiT model, and (b) the
 * magnitude of differences between adjacent iterations.
 *
 * The paper's observation: similarity is high near the diagonal (the
 * basis of FFN-Reuse), and the positions with large adjacent-iteration
 * differences are the ones above the recompute threshold.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "exion/common/stats.h"
#include "exion/common/table.h"

using namespace exion;
using namespace exion::bench;

namespace
{

char
shadeOf(double similarity)
{
    if (similarity > 0.95)
        return '#';
    if (similarity > 0.85)
        return '+';
    if (similarity > 0.7)
        return ':';
    if (similarity > 0.5)
        return '.';
    return ' ';
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = quickMode(argc, argv);
    ModelConfig cfg = makeConfig(Benchmark::DiT, Scale::Reduced);
    cfg.iterations = quick ? 16 : 50;

    const DiffusionPipeline pipe(cfg);
    DenseExecutor exec;
    std::vector<Matrix> hidden;
    exec.observers.onFfnHidden = [&](int block, const Matrix &h) {
        if (block == 1) // second block, as in the paper
            hidden.push_back(h);
    };
    pipe.run(exec, 7);

    const Index n = hidden.size();
    std::cout << "== Fig. 7(a) — Cosine similarity of block-2 GELU "
              << "output across iterations (DiT) ==\n";
    std::cout << "rows/cols = iterations 0.." << n - 1
              << "; shades: '#'>0.95 '+'>0.85 ':'>0.7 '.'>0.5\n";
    const Index step = n > 32 ? 2 : 1;
    for (Index i = 0; i < n; i += step) {
        for (Index j = 0; j < n; j += step)
            std::cout << shadeOf(cosineSimilarity(hidden[i],
                                                  hidden[j]));
        std::cout << '\n';
    }

    RunningStats adjacent;
    for (Index i = 1; i < n; ++i)
        adjacent.add(cosineSimilarity(hidden[i - 1], hidden[i]));

    TextTable table({"Statistic", "Value"});
    table.setTitle("Fig. 7 — summary statistics");
    table.addRow({"adjacent-iteration cosine similarity (mean)",
                  formatDouble(adjacent.mean(), 4)});
    table.addRow({"adjacent-iteration cosine similarity (min)",
                  formatDouble(adjacent.min(), 4)});
    table.addRow({"iterations", std::to_string(n)});

    // Fig. 7(b): are the large adjacent differences concentrated at
    // positions above the recompute threshold?
    const Matrix &a = hidden[n / 2];
    const Matrix &b = hidden[n / 2 + 1];
    std::vector<float> magnitudes(a.data().begin(), a.data().end());
    const double theta = sparsityQuantile(
        magnitudes, cfg.ffnReuse.targetSparsity);
    double diff_above = 0.0, diff_below = 0.0;
    Index n_above = 0, n_below = 0;
    for (Index i = 0; i < a.size(); ++i) {
        const double d = std::abs(
            static_cast<double>(a.data()[i]) - b.data()[i]);
        if (std::abs(a.data()[i]) > theta) {
            diff_above += d;
            ++n_above;
        } else {
            diff_below += d;
            ++n_below;
        }
    }
    table.addRow({"mean |delta| at positions above threshold",
                  formatDouble(diff_above / std::max<Index>(1, n_above),
                               4)});
    table.addRow({"mean |delta| at positions below threshold",
                  formatDouble(diff_below / std::max<Index>(1, n_below),
                               4)});
    table.addNote("Large adjacent-iteration differences concentrate "
                  "above the recompute threshold (paper Fig. 7b).");
    table.print();
    return 0;
}
