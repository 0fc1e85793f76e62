/**
 * @file
 * Command-line explorer: run any benchmark x device x ablation.
 *
 * Usage:
 *   exion_cli [--model NAME] [--device exion4|exion24|exion42]
 *             [--ablation base|ep|ffnr|all] [--batch N] [--gpu]
 *
 * Prints latency, energy, efficiency, and work reduction; with --gpu
 * also runs the matched GPU baseline and prints the gains. Without
 * arguments, sweeps all benchmarks on EXION24_All.
 */

#include <cstring>
#include <iostream>
#include <string>

#include "exion/accel/perf_model.h"
#include "exion/baseline/gpu_model.h"
#include "exion/common/table.h"

using namespace exion;

namespace
{

Benchmark
parseModel(const std::string &name)
{
    for (Benchmark b : allBenchmarks())
        if (benchmarkName(b) == name)
            return b;
    EXION_FATAL("unknown model '", name,
                "' (try MLD, MDM, EDGE, Make-an-Audio, "
                "StableDiffusion, DiT, VideoCrafter2)");
}

ExionConfig
parseDevice(const std::string &name)
{
    if (name == "exion4")
        return exion4();
    if (name == "exion24")
        return exion24();
    if (name == "exion42")
        return exion42();
    EXION_FATAL("unknown device '", name,
                "' (exion4, exion24, exion42)");
}

Ablation
parseAblation(const std::string &name)
{
    if (name == "base")
        return Ablation::Base;
    if (name == "ep")
        return Ablation::Ep;
    if (name == "ffnr")
        return Ablation::Ffnr;
    if (name == "all")
        return Ablation::All;
    EXION_FATAL("unknown ablation '", name,
                "' (base, ep, ffnr, all)");
}

void
addRunRow(TextTable &table, Benchmark b, const ExionConfig &device,
          Ablation ablation, int batch, bool with_gpu)
{
    const ModelConfig model = makeConfig(b, Scale::Full);
    ExionPerfModel pm(device, ablation);
    const RunStats stats = pm.run(model, profileFor(b), batch);

    std::string lat_gain = "-", energy_gain = "-";
    if (with_gpu) {
        const GpuSpec spec =
            device.numDscs <= 4 ? edgeGpu() : serverGpu();
        GpuModel gpu(spec);
        const GpuRunResult gpu_run = gpu.run(model, batch);
        lat_gain = formatRatio(
            gpu_run.latencySeconds / stats.latencySeconds, 1);
        energy_gain = formatRatio(
            gpu_run.energyJ / (stats.energy * 1e-12), 1);
    }
    table.addRow({
        benchmarkName(b),
        device.name + "_" + ablationName(ablation),
        std::to_string(batch),
        formatDouble(stats.latencySeconds * 1e3, 2),
        formatDouble(stats.energy * 1e-12, 4),
        formatDouble(stats.topsPerWatt(), 2),
        formatPercent(static_cast<double>(stats.executedOps)
                          / static_cast<double>(stats.denseOps),
                      1),
        lat_gain,
        energy_gain,
    });
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model_name;
    std::string device_name = "exion24";
    std::string ablation_name = "all";
    int batch = 1;
    bool with_gpu = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                EXION_FATAL("missing value after ", arg);
            return argv[++i];
        };
        if (arg == "--model")
            model_name = next();
        else if (arg == "--device")
            device_name = next();
        else if (arg == "--ablation")
            ablation_name = next();
        else if (arg == "--batch")
            batch = std::stoi(next());
        else if (arg == "--gpu")
            with_gpu = true;
        else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: exion_cli [--model NAME] "
                      << "[--device exion4|exion24|exion42]\n"
                      << "                 [--ablation base|ep|ffnr|"
                      << "all] [--batch N] [--gpu]\n";
            return 0;
        } else {
            EXION_FATAL("unknown argument ", arg);
        }
    }

    const ExionConfig device = parseDevice(device_name);
    const Ablation ablation = parseAblation(ablation_name);

    TextTable table({"Model", "Config", "Batch", "Latency (ms)",
                     "Energy (J)", "TOPS/W", "Work", "vs GPU lat",
                     "vs GPU energy"});
    table.setTitle("EXION explorer");

    if (model_name.empty()) {
        for (Benchmark b : allBenchmarks())
            addRunRow(table, b, device, ablation, batch, with_gpu);
    } else {
        addRunRow(table, parseModel(model_name), device, ablation,
                  batch, with_gpu);
    }
    table.addNote("Work = executed ops / dense-equivalent ops.");
    table.print();
    return 0;
}
