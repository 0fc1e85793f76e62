/**
 * @file
 * exion_bench's metric catalog: every name it reports, with unit and
 * direction. BENCHMARK.json lists the same names (plus the end-to-end
 * bounds); README.md gives each per-layer metric's layer and the
 * end-to-end metric it should move.
 */

#ifndef EXION_BENCH_METRICS_H_
#define EXION_BENCH_METRICS_H_

#include <string>
#include <vector>

namespace exion::bench
{

struct MetricDef
{
    const char *name;
    const char *unit;
    bool higherIsBetter;
};

/** Reported by every run without --trace, for every workload. */
inline const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", false},
        {"throughput_rps", "req/s", true},
        {"latency_p50_ms", "ms", false},
        {"latency_p95_ms", "ms", false},
        {"peak_rss_mb", "MB", false},
    };
    return defs;
}

/** Reported by every --trace run, for every workload. */
inline const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"serve.queue_wait_ms_p50", "ms", false},
        {"serve.queue_wait_ms_p95", "ms", false},
        {"serve.exec_ms_p50", "ms", false},
        {"serve.cohort_rows_mean", "rows", true},
        {"serve.refused_frac", "fraction", false},
        {"net.submit_rtt_ms_p50", "ms", false},
        {"net.submit_rtt_ms_p95", "ms", false},
        {"net.gen_lag_ms_p95", "ms", false},
        {"model.iter_ms_p50", "ms", false},
        {"model.other_ms_per_iter", "ms", false},
        {"weights.store_mb", "MB", false},
        {"attn.ms_per_iter", "ms", false},
        {"attn.dense_equiv_ms_per_iter", "ms", false},
        {"ep.quantize_ms_per_iter", "ms", false},
        {"ep.predict_ms_per_iter", "ms", false},
        {"ep.proj_skip_frac", "fraction", true},
        {"attn.ops_executed_frac", "fraction", false},
        {"attn.score_sparsity", "fraction", true},
        {"ffn.ms_per_iter.dense_iter", "ms", false},
        {"ffn.ms_per_iter.sparse_iter", "ms", false},
        {"ffn.dense_equiv_ms_per_iter", "ms", false},
        {"ffn.ops_executed_frac", "fraction", false},
        {"ffn.mask_sparsity", "fraction", true},
        {"attn.gflops", "GFLOP/s", true},
        {"ffn.gflops", "GFLOP/s", true},
        {"trace.overhead_pct", "%", false},
    };
    return defs;
}

/** The catalog entry of a name, nullptr when unknown. */
inline const MetricDef *
findMetric(const std::string &name)
{
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *list)
            if (name == d.name)
                return &d;
    return nullptr;
}

} // namespace exion::bench

#endif // EXION_BENCH_METRICS_H_
