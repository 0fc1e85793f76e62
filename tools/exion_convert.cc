/**
 * @file
 * exion_convert — builds, inspects and verifies EXWS weight stores.
 *
 * A store snapshots the deterministic seeded build of a benchmark's
 * model (float weights, INT12 quantized-at-rest images, transposed
 * FFN1 copies) into one checksummed file that engines mmap read-only
 * and share. Converting is a build-time step; serving then never
 * quantises or transposes a weight again.
 *
 * Usage:
 *   exion_convert --benchmark NAME [--scale full|reduced] --out FILE
 *   exion_convert --all [--scale full|reduced] --outdir DIR
 *   exion_convert --inspect FILE
 *
 * NAME matches benchmarkName() (e.g. MLD, StableDiffusion),
 * case-insensitively. --inspect loads (and therefore fully
 * validates: magic, version, endianness, checksum, index bounds) an
 * existing store and prints its config and tensor index.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exion/model/config.h"
#include "exion/model/weight_store.h"

namespace
{

using namespace exion;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --benchmark NAME [--scale full|reduced] --out FILE\n"
        "       %s --all [--scale full|reduced] --outdir DIR\n"
        "       %s --inspect FILE\n",
        argv0, argv0, argv0);
    return 2;
}

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i]))
            != std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

bool
parseBenchmark(const std::string &name, Benchmark &out)
{
    for (Benchmark b : allBenchmarks()) {
        if (iequals(name, benchmarkName(b))) {
            out = b;
            return true;
        }
    }
    return false;
}

const char *
kindName(WeightStore::TensorKind kind)
{
    return kind == WeightStore::TensorKind::Float32 ? "f32" : "qint";
}

int
convertOne(Benchmark b, Scale scale, const std::string &path)
{
    const ModelConfig cfg = makeConfig(b, scale);
    const auto store = WeightStore::build(cfg);
    store->save(path);
    std::printf("%-16s -> %s  (%llu tensors, %llu bytes, "
                "checksum %016llx)\n",
                cfg.name.c_str(), path.c_str(),
                static_cast<unsigned long long>(store->entries().size()),
                static_cast<unsigned long long>(store->sizeBytes()),
                static_cast<unsigned long long>(store->checksum()));
    return 0;
}

int
inspect(const std::string &path)
{
    const auto store = WeightStore::load(path);
    const ModelConfig &cfg = store->config();
    std::printf("store:    %s\n", path.c_str());
    std::printf("mapped:   %s\n", store->mapped() ? "yes (mmap)" : "no (heap)");
    std::printf("size:     %llu bytes\n",
                static_cast<unsigned long long>(store->sizeBytes()));
    std::printf("checksum: %016llx\n",
                static_cast<unsigned long long>(store->checksum()));
    std::printf("model:    %s (benchmark %s, %s scale, seed %llu)\n",
                cfg.name.c_str(), benchmarkName(cfg.benchmark).c_str(),
                cfg.scale == Scale::Full ? "full" : "reduced",
                static_cast<unsigned long long>(cfg.seed));
    std::printf("stages:   %zu, iterations %d, latent %lld x %lld\n",
                cfg.stages.size(), cfg.iterations,
                static_cast<long long>(cfg.latentTokens),
                static_cast<long long>(cfg.latentDim));
    std::printf("tensors:  %zu\n", store->entries().size());
    for (const auto &[name, e] : store->entries()) {
        // Largest power-of-two divisor of the section offset, capped
        // at 4096: the alignment the mmap'd tensor actually starts
        // at. The format guarantees >= 64 (one cache line / one EXWS
        // section unit).
        const unsigned long long off = e.offset;
        const unsigned long long align =
            off == 0 ? 4096ULL : std::min(4096ULL, off & ~(off - 1));
        std::printf("  %-28s %-4s %6lld x %-6lld @%-10llu "
                    "align%-5llu %llu bytes\n",
                    name.c_str(), kindName(e.kind),
                    static_cast<long long>(e.rows),
                    static_cast<long long>(e.cols), off, align,
                    static_cast<unsigned long long>(e.byteLen));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmark_name;
    std::string out;
    std::string outdir;
    std::string inspect_path;
    Scale scale = Scale::Reduced;
    bool all = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--benchmark") {
            benchmark_name = next("--benchmark");
        } else if (arg == "--scale") {
            const std::string v = next("--scale");
            if (iequals(v, "full")) {
                scale = Scale::Full;
            } else if (iequals(v, "reduced")) {
                scale = Scale::Reduced;
            } else {
                std::fprintf(stderr, "unknown scale '%s'\n", v.c_str());
                return 2;
            }
        } else if (arg == "--out") {
            out = next("--out");
        } else if (arg == "--outdir") {
            outdir = next("--outdir");
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--inspect") {
            inspect_path = next("--inspect");
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }

    try {
        if (!inspect_path.empty())
            return inspect(inspect_path);
        if (all) {
            if (outdir.empty()) {
                std::fprintf(stderr, "--all needs --outdir\n");
                return 2;
            }
            for (Benchmark b : allBenchmarks()) {
                const std::string path =
                    outdir + "/" + benchmarkName(b)
                    + (scale == Scale::Full ? "-full" : "-reduced")
                    + ".exws";
                if (const int rc = convertOne(b, scale, path))
                    return rc;
            }
            return 0;
        }
        if (benchmark_name.empty() || out.empty())
            return usage(argv[0]);
        Benchmark b{};
        if (!parseBenchmark(benchmark_name, b)) {
            std::fprintf(stderr, "unknown benchmark '%s'; one of:",
                         benchmark_name.c_str());
            for (Benchmark known : allBenchmarks())
                std::fprintf(stderr, " %s", benchmarkName(known).c_str());
            std::fprintf(stderr, "\n");
            return 2;
        }
        return convertOne(b, scale, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "exion_convert: %s\n", e.what());
        return 1;
    }
}
