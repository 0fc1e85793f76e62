/**
 * @file
 * exion_bench: the repository's benchmark. One command runs four
 * workloads against the public serving surface, prints every
 * end-to-end metric as `workload metric value unit`, checks the
 * outputs byte for byte and writes the results to exion_bench.json;
 * --trace adds the per-layer metrics and a Chrome trace file.
 *
 *   exion_bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
 *               [--repeat K] [--quick] [--out FILE] [--trace-out FILE]
 *   exion_bench --compare BASE.json NEW.json [--bounds BENCHMARK.json]
 *   exion_bench --self-check
 *
 * Each workload runs in its own fork()ed child, forked while this
 * process has no threads: the child's peak RSS is the workload's, and
 * its result comes back over a pipe. The last line of standard output
 * is one JSON object: correct, attempted, failed and metrics.
 * See README.md beside this file for the workloads and metrics.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exion/tensor/simd_dispatch.h"
#include "json.h"
#include "metrics.h"
#include "stats.h"
#include "workloads.h"

using namespace exion;
using namespace exion::bench;

namespace
{

/** A child that runs longer than this is killed; the run fails. */
constexpr unsigned kChildAlarmSeconds = 170;

struct Args
{
    std::vector<std::string> workloads;
    u64 seed = 1;
    double seconds = 15.0;
    bool secondsGiven = false;
    bool trace = false;
    bool quick = false;
    int repeat = 1;
    std::string out = "exion_bench.json";
    std::string traceOut = "exion_bench_trace.json";
    std::string compareBase, compareNew;
    std::string bounds = "BENCHMARK.json";
    bool selfCheck = false;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload NAME] [--seed N] [--seconds S] "
        "[--trace [0|1]]\n"
        "          [--repeat K] [--quick] [--out FILE] [--trace-out FILE]\n"
        "       %s --compare BASE.json NEW.json [--bounds BENCHMARK.json]\n"
        "       %s --self-check\n"
        "workloads:\n",
        argv0, argv0, argv0);
    for (const WorkloadDef &w : workloads())
        std::fprintf(stderr, "  %-22s %s\n", w.name, w.why);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--workload" && (v = value())) {
            a.workloads.push_back(v);
        } else if (arg == "--seed" && (v = value())) {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds" && (v = value())) {
            a.seconds = std::atof(v);
            a.secondsGiven = true;
            if (!(a.seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            a.trace = true;
            if (i + 1 < argc
                && (std::strcmp(argv[i + 1], "0") == 0
                    || std::strcmp(argv[i + 1], "1") == 0))
                a.trace = std::strcmp(argv[++i], "1") == 0;
        } else if (arg == "--repeat" && (v = value())) {
            a.repeat = std::atoi(v);
            if (a.repeat < 1)
                return false;
        } else if (arg == "--quick") {
            a.quick = true;
        } else if (arg == "--out" && (v = value())) {
            a.out = v;
        } else if (arg == "--trace-out" && (v = value())) {
            a.traceOut = v;
        } else if (arg == "--bounds" && (v = value())) {
            a.bounds = v;
        } else if (arg == "--compare" && i + 2 < argc) {
            a.compareBase = argv[++i];
            a.compareNew = argv[++i];
        } else if (arg == "--self-check") {
            a.selfCheck = true;
        } else {
            return false;
        }
    }
    for (const std::string &name : a.workloads)
        if (std::none_of(workloads().begin(), workloads().end(),
                         [&](const WorkloadDef &w) { return name == w.name; }))
            return false;
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    f << text;
    return static_cast<bool>(f);
}

std::string
hex64(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------------ results

/** One workload run as the results file records it. */
struct RunRecord
{
    u64 seed = 0;
    bool correct = false;
    u64 attempted = 0;
    u64 failed = 0;
    std::string digest;
    u64 latencySamples = 0;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::string> notes;
};

/** The percentile a latency_pNN_ms metric reports; 0 for other names. */
double
latencyPercentile(const std::string &metric)
{
    int p = 0, end = 0;
    std::sscanf(metric.c_str(), "latency_p%d_ms%n", &p, &end);
    return end > 0 && metric[end] == '\0' ? p : 0.0;
}

struct WorkloadRuns
{
    std::string name;
    std::vector<RunRecord> runs;

    /**
     * Whether a tail latency percentile lacks the samples it needs in
     * some run: it is printed and recorded, but judged by nothing. The
     * median is always reported.
     */
    bool unsupported(const std::string &metric) const
    {
        const double p = latencyPercentile(metric);
        return p > 50.0
            && std::any_of(runs.begin(), runs.end(), [&](const RunRecord &r) {
                   return !percentileSupported(r.latencySamples, p);
               });
    }

    std::vector<double> values(const std::string &metric) const
    {
        std::vector<double> v;
        for (const RunRecord &r : runs)
            for (const auto &[n, x] : r.metrics)
                if (n == metric)
                    v.push_back(x);
        return v;
    }

    /** Metric names in first-seen order. */
    std::vector<std::string> metricNames() const
    {
        std::vector<std::string> names;
        for (const RunRecord &r : runs)
            for (const auto &[n, x] : r.metrics)
                if (std::find(names.begin(), names.end(), n) == names.end())
                    names.push_back(n);
        return names;
    }
};

struct Results
{
    Json host;
    double seconds = 0.0;
    bool trace = false;
    std::vector<WorkloadRuns> workloads;
};

std::string
unitOf(const std::string &metric)
{
    const MetricDef *d = findMetric(metric);
    return d ? d->unit : "";
}

/** The CPU's brand string (cpuid leaves 0x80000002-4) on x86. */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
#else
    return "unknown";
#endif
}

Json
hostInfo()
{
    Json host = Json::object();
    host.set("cpu", Json::string(cpuModel()));
    host.set("hardware_threads",
             Json::number(std::thread::hardware_concurrency()));
    host.set("simd", Json::string(simdLevelName(activeSimdLevel())));
    host.set("build", Json::string(EXION_BENCH_BUILD_TYPE));
    return host;
}

/** One run as the results file and the child's result line carry it. */
Json
runToJson(const RunRecord &run)
{
    Json rj = Json::object();
    rj.set("seed", Json::number(static_cast<double>(run.seed)));
    rj.set("correct", Json::flag(run.correct));
    rj.set("attempted", Json::number(static_cast<double>(run.attempted)));
    rj.set("failed", Json::number(static_cast<double>(run.failed)));
    rj.set("output_digest", Json::string(run.digest));
    rj.set("latency_samples",
           Json::number(static_cast<double>(run.latencySamples)));
    Json mj = Json::object();
    for (const auto &[n, v] : run.metrics)
        mj.set(n, Json::number(v));
    rj.set("metrics", std::move(mj));
    Json notes = Json::array();
    for (const std::string &n : run.notes)
        notes.arr.push_back(Json::string(n));
    rj.set("notes", std::move(notes));
    return rj;
}

RunRecord
runFromJson(const Json &rj)
{
    RunRecord run;
    run.seed = static_cast<u64>(rj.numberOr("seed", 0.0));
    const Json *correct = rj.find("correct");
    run.correct = correct && correct->boolean;
    run.attempted = static_cast<u64>(rj.numberOr("attempted", 0.0));
    run.failed = static_cast<u64>(rj.numberOr("failed", 0.0));
    run.digest = rj.stringOr("output_digest", "");
    run.latencySamples =
        static_cast<u64>(rj.numberOr("latency_samples", 0.0));
    if (const Json *mj = rj.find("metrics"))
        for (const auto &[n, v] : mj->obj)
            if (v.kind == Json::Kind::Num)
                run.metrics.emplace_back(n, v.num);
    if (const Json *notes = rj.find("notes"))
        for (const Json &n : notes->arr)
            run.notes.push_back(n.str);
    return run;
}

Json
resultsToJson(const Results &r)
{
    Json root = Json::object();
    root.set("tool", Json::string("exion_bench"));
    root.set("host", r.host);
    root.set("seconds", Json::number(r.seconds));
    root.set("trace", Json::flag(r.trace));
    Json wls = Json::array();
    for (const WorkloadRuns &w : r.workloads) {
        Json wj = Json::object();
        wj.set("name", Json::string(w.name));
        Json runs = Json::array();
        for (const RunRecord &run : w.runs)
            runs.arr.push_back(runToJson(run));
        wj.set("runs", std::move(runs));
        Json summary = Json::object();
        for (const std::string &n : w.metricNames()) {
            const Quartiles q = quartiles(w.values(n));
            Json sj = Json::object();
            sj.set("unit", Json::string(unitOf(n)));
            sj.set("median", Json::number(q.median));
            sj.set("q1", Json::number(q.q1));
            sj.set("q3", Json::number(q.q3));
            summary.set(n, std::move(sj));
        }
        wj.set("summary", std::move(summary));
        wls.arr.push_back(std::move(wj));
    }
    root.set("workloads", std::move(wls));
    return root;
}

bool
resultsFromJson(const Json &root, Results &r, std::string &err)
{
    const Json *wls = root.find("workloads");
    if (root.stringOr("tool", "") != "exion_bench" || !wls
        || wls->kind != Json::Kind::Arr) {
        err = "not an exion_bench results file";
        return false;
    }
    if (const Json *host = root.find("host"))
        r.host = *host;
    r.seconds = root.numberOr("seconds", 0.0);
    const Json *trace = root.find("trace");
    r.trace = trace && trace->boolean;
    for (const Json &wj : wls->arr) {
        WorkloadRuns w;
        w.name = wj.stringOr("name", "");
        const Json *runs = wj.find("runs");
        if (w.name.empty() || !runs || runs->kind != Json::Kind::Arr) {
            err = "malformed workload entry";
            return false;
        }
        for (const Json &rj : runs->arr)
            w.runs.push_back(runFromJson(rj));
        r.workloads.push_back(std::move(w));
    }
    return true;
}

bool
loadResults(const std::string &path, Results &r, std::string &err)
{
    std::string text;
    Json root;
    if (!readFile(path, text)) {
        err = "cannot read " + path;
        return false;
    }
    if (!parseJson(text, root, err) || !resultsFromJson(root, r, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

// ------------------------------------------------------------ children

/** Writes all of buf to fd (the child's result pipe). */
bool
writeAll(int fd, const std::string &buf)
{
    size_t done = 0;
    while (done < buf.size()) {
        const ssize_t n = ::write(fd, buf.data() + done, buf.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<size_t>(n);
    }
    return true;
}

/** What the parent learned from one child. */
struct ChildResult
{
    bool ok = false;
    std::string error;
    RunRecord run;
    std::string traceEvents;
};

/**
 * Runs one workload in a fork()ed child. The child sends its outcome
 * (one JSON line) and then its trace events through a pipe; the parent
 * adds the child's peak RSS from wait4().
 */
ChildResult
runInChild(const WorkloadDef &w, const RunConfig &rc)
{
    ChildResult res;
    int fds[2];
    if (::pipe(fds) != 0) {
        res.error = std::string("pipe: ") + std::strerror(errno);
        return res;
    }
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        res.error = std::string("fork: ") + std::strerror(errno);
        ::close(fds[0]);
        ::close(fds[1]);
        return res;
    }
    if (pid == 0) {
        ::close(fds[0]);
        ::alarm(kChildAlarmSeconds);
        int code = 0;
        std::string payload;
        try {
            const WorkloadOutcome o = w.run(rc);
            const RunRecord run{.seed = rc.seed,
                                .correct = o.correct,
                                .attempted = o.attempted,
                                .failed = o.failed,
                                .digest = hex64(o.digest),
                                .latencySamples = o.latencySamples,
                                .metrics = o.metrics,
                                .notes = o.notes};
            payload = toJson(runToJson(run)) + "\n" + o.traceEvents;
        } catch (const std::exception &e) {
            Json j = Json::object();
            j.set("error", Json::string(e.what()));
            payload = toJson(j) + "\n";
            code = 1;
        }
        if (!writeAll(fds[1], payload))
            code = 1;
        ::close(fds[1]);
        std::fflush(nullptr);
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string text;
    char buf[1 << 16];
    while (true) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }

    const size_t nl = text.find('\n');
    Json j;
    std::string err;
    if (nl == std::string::npos
        || !parseJson(text.substr(0, nl), j, err)) {
        res.error = WIFSIGNALED(status)
            ? "killed by signal " + std::to_string(WTERMSIG(status))
            : "no result from the workload process";
        return res;
    }
    if (const Json *e = j.find("error")) {
        res.error = e->str;
        return res;
    }
    res.run = runFromJson(j);
    if (!rc.trace) // ru_maxrss is in KiB on Linux
        res.run.metrics.emplace_back(
            "peak_rss_mb", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6);
    res.traceEvents = text.substr(nl + 1);
    res.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!res.ok)
        res.error = "workload process exited abnormally";
    return res;
}

/** Every catalog metric of the run's kind present, nothing else. */
bool
metricsComplete(const RunRecord &run, bool trace, std::string &missing)
{
    const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
    for (const MetricDef &d : defs)
        if (std::none_of(run.metrics.begin(), run.metrics.end(),
                         [&](const auto &m) { return m.first == d.name; }))
            missing += std::string(missing.empty() ? "" : ", ") + d.name;
    return missing.empty() && run.metrics.size() == defs.size();
}

void
printValue(const WorkloadRuns &w, const std::string &metric)
{
    const std::vector<double> values = w.values(metric);
    const Quartiles q = quartiles(values);
    std::printf("%s %s %.6g %s", w.name.c_str(), metric.c_str(), q.median,
                unitOf(metric).c_str());
    if (values.size() > 1)
        std::printf("   [q1 %.6g, q3 %.6g, n=%zu]", q.q1, q.q3,
                    values.size());
    if (w.unsupported(metric))
        std::printf("   (unsupported: too few requests for this "
                    "percentile; see the notes)");
    std::printf("\n");
}

int
runBenchmark(const Args &a)
{
    std::vector<const WorkloadDef *> chosen;
    for (const WorkloadDef &w : workloads())
        if (a.workloads.empty()
            || std::find(a.workloads.begin(), a.workloads.end(), w.name)
                != a.workloads.end())
            chosen.push_back(&w);

    Results results;
    results.host = hostInfo();
    results.seconds = a.seconds;
    results.trace = a.trace;
    for (const WorkloadDef *w : chosen)
        results.workloads.push_back({w->name, {}});

    const int workers = static_cast<int>(std::clamp(
        std::thread::hardware_concurrency(), 1u, 4u));
    bool allOk = true;
    std::string traceEvents;
    // Repetitions alternate across workloads so slow drift on the host
    // spreads over all of them instead of landing on one.
    for (int rep = 0; rep < a.repeat; ++rep) {
        for (size_t wi = 0; wi < chosen.size(); ++wi) {
            RunConfig rc;
            rc.seed = a.seed + static_cast<u64>(rep);
            rc.seconds = a.seconds;
            rc.trace = a.trace;
            rc.quick = a.quick;
            rc.workers = workers;
            rc.tracePid = static_cast<int>(wi) + 1;
            std::fprintf(stderr, "exion_bench: %s (seed %llu, %g s%s)\n",
                         chosen[wi]->name,
                         static_cast<unsigned long long>(rc.seed),
                         rc.seconds, rc.trace ? ", traced" : "");
            ChildResult res = runInChild(*chosen[wi], rc);
            std::string missing;
            if (res.ok && !metricsComplete(res.run, a.trace, missing)) {
                res.ok = false;
                res.error = "incomplete metrics: " + missing;
            }
            if (!res.ok) {
                std::fprintf(stderr, "exion_bench: %s failed: %s\n",
                             chosen[wi]->name, res.error.c_str());
                allOk = false;
                continue;
            }
            if (!res.run.correct || res.run.failed > 0) {
                std::fprintf(stderr,
                             "exion_bench: %s: %llu of %llu requests failed, "
                             "were refused or differ from their solo "
                             "recomputation\n",
                             chosen[wi]->name,
                             static_cast<unsigned long long>(res.run.failed),
                             static_cast<unsigned long long>(
                                 res.run.attempted));
                allOk = false;
            }
            if (!res.traceEvents.empty()) {
                traceEvents += (traceEvents.empty() ? "" : ",\n")
                    + std::string("{\"name\": \"process_name\", \"ph\": "
                                  "\"M\", \"pid\": ")
                    + std::to_string(rc.tracePid)
                    + ", \"args\": {\"name\": \"" + chosen[wi]->name
                    + "\"}},\n" + res.traceEvents;
            }
            results.workloads[wi].runs.push_back(std::move(res.run));
        }
    }
    u64 attempted = 0, failed = 0;
    Json metrics = Json::object();
    for (const WorkloadRuns &w : results.workloads) {
        for (const RunRecord &run : w.runs) {
            attempted += run.attempted;
            failed += run.failed;
            std::printf("%s output_digest %s (seed %llu)\n", w.name.c_str(),
                        run.digest.c_str(),
                        static_cast<unsigned long long>(run.seed));
            for (const std::string &n : run.notes)
                std::printf("%s   %s\n", w.name.c_str(), n.c_str());
        }
        for (const std::string &n : w.metricNames()) {
            printValue(w, n);
            Json m = Json::object();
            m.set("value", Json::number(median(w.values(n))));
            m.set("unit", Json::string(unitOf(n)));
            metrics.set(chosen.size() == 1 ? n : w.name + ":" + n,
                        std::move(m));
        }
    }
    if (!writeFile(a.out, toJson(resultsToJson(results)) + "\n"))
        std::fprintf(stderr, "exion_bench: cannot write %s\n",
                     a.out.c_str());
    if (a.trace
        && !writeFile(a.traceOut, "{\"displayTimeUnit\": \"ms\", "
                                  "\"traceEvents\": [\n"
                                      + traceEvents + "\n]}\n"))
        std::fprintf(stderr, "exion_bench: cannot write %s\n",
                     a.traceOut.c_str());
    // The results file keeps runs that lost requests, so --compare can
    // hold them against the base; the command still fails on them.
    if (!allOk) {
        std::fprintf(stderr, "exion_bench: a workload failed, lost "
                             "requests or its outputs differ; no result\n");
        return 1;
    }
    Json last = Json::object();
    last.set("correct", Json::flag(true));
    last.set("attempted", Json::number(static_cast<double>(attempted)));
    last.set("failed", Json::number(static_cast<double>(failed)));
    last.set("metrics", std::move(metrics));
    std::printf("%s\n", toJson(last).c_str());
    return 0;
}

// ------------------------------------------------------------ compare

int
compare(const Args &a)
{
    Results base, next;
    std::string err, boundsText;
    Json bounds;
    if (!loadResults(a.compareBase, base, err)
        || !loadResults(a.compareNew, next, err)) {
        std::fprintf(stderr, "exion_bench: %s\n", err.c_str());
        return 2;
    }
    if (!readFile(a.bounds, boundsText)
        || !parseJson(boundsText, bounds, err)) {
        std::fprintf(stderr, "exion_bench: cannot read bounds from %s %s\n",
                     a.bounds.c_str(), err.c_str());
        return 2;
    }
    const Json *e2e = bounds.find("end_to_end");
    if (!e2e || e2e->kind != Json::Kind::Arr) {
        std::fprintf(stderr, "exion_bench: %s has no end_to_end list\n",
                     a.bounds.c_str());
        return 2;
    }
    int regressions = 0;
    std::printf("%-24s %-16s %12s %12s %8s %8s %7s  %s\n", "workload",
                "metric", "base", "new", "worse%", "spread%", "bound%",
                "verdict");
    for (const WorkloadRuns &nw : next.workloads) {
        const auto bw = std::find_if(
            base.workloads.begin(), base.workloads.end(),
            [&](const WorkloadRuns &w) { return w.name == nw.name; });
        if (bw == base.workloads.end())
            continue;
        // A change that loses more requests than its base regresses,
        // whatever the latency of the requests that remain says.
        const auto failedShare = [](const WorkloadRuns &w) {
            u64 attempted = 0, failed = 0;
            for (const RunRecord &r : w.runs) {
                attempted += r.attempted;
                failed += r.failed;
            }
            return attempted > 0 ? static_cast<double>(failed)
                    / static_cast<double>(attempted)
                                 : 0.0;
        };
        const double bf = failedShare(*bw), nf = failedShare(nw);
        const bool lostMore = nf > bf;
        regressions += lostMore ? 1 : 0;
        std::printf("%-24s %-16s %12.6g %12.6g %8s %8s %7s  %s\n",
                    nw.name.c_str(), "failed/attempted", bf, nf, "", "", "0",
                    lostMore ? "REGRESSION" : "ok");
        for (const Json &mdef : e2e->arr) {
            const std::string name = mdef.stringOr("name", "");
            const bool lower = mdef.stringOr("better", "lower") == "lower";
            const double bound = mdef.numberOr("bound", 0.0);
            const std::vector<double> bv = bw->values(name);
            const std::vector<double> nv = nw.values(name);
            if (bv.empty() || nv.empty())
                continue;
            const double bm = median(bv), nm = median(nv);
            const double worse =
                bm != 0.0 ? (lower ? nm - bm : bm - nm) / std::fabs(bm) : 0.0;
            const double spread =
                std::max(relativeSpread(bv), relativeSpread(nv));
            const auto [bLo, bHi] = std::minmax_element(bv.begin(), bv.end());
            const auto [nLo, nHi] = std::minmax_element(nv.begin(), nv.end());
            const bool allBetter = lower ? *nHi < *bLo : *nLo > *bHi;
            std::string verdict;
            if (bw->unsupported(name) || nw.unsupported(name))
                verdict = "unsupported (too few requests)";
            else if (spread > bound)
                verdict = allBetter ? "better in every run" : "unresolved";
            else if (worse > bound) {
                verdict = "REGRESSION";
                ++regressions;
            } else
                verdict = "ok";
            std::printf("%-24s %-16s %12.6g %12.6g %8.2f %8.2f %7.1f  %s\n",
                        nw.name.c_str(), name.c_str(), bm, nm, 100.0 * worse,
                        100.0 * spread, 100.0 * bound, verdict.c_str());
        }
        for (const RunRecord &nr : nw.runs)
            for (const RunRecord &br : bw->runs)
                if (nr.seed == br.seed && nr.digest != br.digest)
                    std::printf("%-24s output_digest differs at seed %llu: "
                                "%s -> %s\n",
                                nw.name.c_str(),
                                static_cast<unsigned long long>(nr.seed),
                                br.digest.c_str(), nr.digest.c_str());
    }
    std::printf("%d regression(s)\n", regressions);
    return regressions == 0 ? 0 : 1;
}

// ------------------------------------------------------------ self-check

int
selfCheck()
{
    int failures = 0;
    const auto expect = [&](bool ok, const std::string &what) {
        std::printf("self-check: %-60s %s\n", what.c_str(),
                    ok ? "ok" : "FAILED");
        failures += ok ? 0 : 1;
    };
    const auto near = [](double a, double b) {
        return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
    };

    // Percentiles and the ten-samples-beyond rule.
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expect(near(percentile(hundred, 50.0), 50.5)
               && near(percentile(hundred, 90.0), 90.1)
               && near(percentile(hundred, 0.0), 1.0)
               && near(percentile(hundred, 100.0), 100.0),
           "percentile interpolates between closest ranks");
    expect(percentileSupported(200, 95.0) && !percentileSupported(199, 95.0)
               && percentileSupported(100, 90.0)
               && !percentileSupported(99, 90.0)
               && percentileSupported(20, 50.0)
               && !percentileSupported(19, 50.0),
           "a percentile needs ten samples beyond it");
    WorkloadRuns tail{"mdm-interactive-exion", {RunRecord{}, RunRecord{}}};
    tail.runs[0].latencySamples = 400;
    tail.runs[1].latencySamples = 199;
    expect(latencyPercentile("latency_p95_ms") == 95.0
               && latencyPercentile("latency_p95_msx") == 0.0
               && latencyPercentile("serve.exec_ms_p50") == 0.0
               && tail.unsupported("latency_p95_ms")
               && !tail.unsupported("latency_p50_ms")
               && !tail.unsupported("throughput_rps"),
           "a tail percentile short of samples in any run is unsupported");
    const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expect(near(q.q1, 2.75) && near(q.median, 5.5) && near(q.q3, 8.25),
           "quartiles match statistics.quantiles(n=4)");

    // Key mixes.
    SeedStream rng(12345);
    const std::vector<size_t> keys =
        keyOrder({0.375, 0.375, 0.125, 0.125}, 450, rng);
    const auto count = [](const std::vector<size_t> &ks, size_t k) {
        return std::count(ks.begin(), ks.end(), k);
    };
    expect(keys.size() == 450 && count(keys, 0) + count(keys, 1) == 338
               && count(keys, 0) >= 168 && count(keys, 1) >= 168
               && count(keys, 2) == 56 && count(keys, 3) == 56
               && !std::is_sorted(keys.begin(), keys.end()),
           "key order holds the exact mix, shuffled");
    const std::vector<size_t> block =
        keyOrder({0.25, 0.5, 0.125, 0.125}, 8, rng);
    expect(count(block, 0) == 2 && count(block, 1) == 4
               && count(block, 2) == 1 && count(block, 3) == 1,
           "a block of eight holds the serve-http-mix mix exactly");

    // Results JSON: writer output read back by the --compare reader.
    Results r;
    r.host = hostInfo();
    r.seconds = 15.0;
    WorkloadRuns w{"mld-batch-dense", {}};
    RunRecord run;
    run.seed = 7;
    run.correct = true;
    run.attempted = 320;
    run.latencySamples = 12;
    run.digest = hex64(0x0123456789abcdefULL);
    run.metrics = {{"throughput_rps", 0.1},
                   {"latency_p50_ms", 1e-300},
                   {"setup_s", 123456.789012345678}};
    run.notes = {"quote \" and \\ survive"};
    w.runs = {run, run};
    r.workloads = {w};
    Results back;
    std::string err;
    Json parsed;
    const bool read = parseJson(toJson(resultsToJson(r)), parsed, err)
        && resultsFromJson(parsed, back, err);
    bool same = read && back.workloads.size() == 1
        && back.workloads[0].runs.size() == 2;
    if (same) {
        const RunRecord &b = back.workloads[0].runs[1];
        same = b.seed == run.seed && b.correct && b.attempted == 320
            && b.digest == run.digest && b.latencySamples == 12
            && b.metrics == run.metrics
            && b.notes == run.notes;
    }
    expect(same, "results JSON round-trips through the --compare reader");

    std::printf("self-check: %s\n", failures == 0 ? "passed" : "FAILED");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a))
        return usage(argv[0]);
    if (a.selfCheck)
        return selfCheck();
    if (!a.compareBase.empty())
        return compare(a);
    if (a.quick && !a.secondsGiven)
        a.seconds = 3.0;
    return runBenchmark(a);
}
