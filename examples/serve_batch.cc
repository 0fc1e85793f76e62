/**
 * @file
 * Admission-controlled asynchronous serving of a mixed request
 * stream: text-to-image (StableDiffusion) and text-to-motion (MLD)
 * requests with different execution modes, seeds and priority
 * classes, submitted through trySubmit() under an AdmissionConfig
 * that sheds best-effort overload, drained in completion order — no
 * batch barrier — and summarised with an EngineMetrics snapshot.
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build
 *   ./build/examples/serve_batch
 *
 * It takes no arguments; EXION_SIMD=scalar runs it on the scalar
 * kernel table, with the same bit-exact self-checks.
 */

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <string>

#include "exion/serve/batch_engine.h"

using namespace exion;

namespace
{

volatile std::sig_atomic_t g_signal = 0;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
}

} // namespace

int
main(int argc, char **argv)
{
    // SIGINT/SIGTERM drain gracefully instead of killing mid-batch:
    // the handler only raises a flag; the drain loop below notices
    // it, lets the engine finish what it accepted, and exits cleanly.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    if (argc > 1) {
        std::cerr << "error: unknown argument '" << argv[1]
                  << "' (usage: serve_batch)\n";
        return 1;
    }
    // 1. Register the models once; weights are shared by every
    //    request for that benchmark. The admission policy is part of
    //    the engine options: per-class ready-queue bounds, and a shed
    //    watermark that refuses Low-class work once the total backlog
    //    reaches 12 requests.
    ModelConfig t2i = makeConfig(Benchmark::StableDiffusion,
                                 Scale::Reduced);
    t2i.iterations = 10;
    ModelConfig t2m = makeConfig(Benchmark::MLD, Scale::Reduced);
    t2m.iterations = 10;

    BatchEngine::Options opts;
    opts.workers = 4;
    opts.admission.maxQueuedPerClass = 16;
    opts.admission.shedThreshold = 12;
    opts.admission.shedBelow = Priority::Normal;
    BatchEngine engine(opts);
    engine.addModel(t2i);
    engine.addModel(t2m);

    // Completion-order drain without a batch barrier: the engine's
    // completion callback feeds a local queue (cancelled requests
    // never fire it, but this stream cancels nothing).
    std::mutex doneMutex;
    std::condition_variable doneCv;
    std::deque<RequestResult> doneQueue;
    engine.setOnComplete([&](const RequestResult &r) {
        {
            std::lock_guard<std::mutex> lock(doneMutex);
            doneQueue.push_back(r);
        }
        doneCv.notify_one();
    });

    // 2. A mixed request stream: alternating workloads, a vanilla
    //    reference sprinkled in, per-request seeds, and a priority
    //    mix — the slow dense requests ride in the Low class so they
    //    never hold up interactive traffic.
    std::vector<ServeRequest> stream;
    for (int i = 0; i < 8; ++i) {
        ServeRequest req;
        req.id = static_cast<u64>(i);
        req.benchmark = i % 2 == 0 ? Benchmark::StableDiffusion
                                   : Benchmark::MLD;
        req.mode = i % 4 == 3 ? ExecMode::Dense : ExecMode::Exion;
        req.noiseSeed = 1000 + static_cast<u64>(i);
        req.trackConMerge = req.mode == ExecMode::Exion;
        req.priority = req.mode == ExecMode::Dense ? Priority::Low
                                                   : Priority::High;
        stream.push_back(req);
    }

    // 3. Submit through the admission boundary. The engine is paused
    //    while the burst lands so the overload below is
    //    deterministic; a live service would skip the pause and let
    //    shedding track the real backlog.
    engine.pause();
    std::map<u64, const ServeRequest *> by_id;
    u64 accepted = 0;
    for (const ServeRequest &req : stream) {
        const SubmitOutcome outcome = engine.trySubmit(req);
        if (!outcome.accepted()) {
            std::cout << "request " << req.id << " rejected: "
                      << rejectReasonName(*outcome.reason) << "\n";
            continue;
        }
        ++accepted;
        by_id[req.id] = &req;
    }

    // 4. Pile a burst of best-effort extras on top: once the total
    //    backlog reaches the shed watermark, Low-class work is
    //    refused with LoadShedLow instead of growing the queue.
    u64 extras_accepted = 0, extras_shed = 0;
    for (int i = 0; i < 12; ++i) {
        ServeRequest extra;
        extra.id = 100 + static_cast<u64>(i);
        extra.benchmark = Benchmark::MLD;
        extra.mode = ExecMode::Exion;
        extra.noiseSeed = 2000 + static_cast<u64>(i);
        extra.priority = Priority::Low;
        const SubmitOutcome outcome = engine.trySubmit(extra);
        if (outcome.accepted()) {
            ++extras_accepted;
            continue;
        }
        ++extras_shed;
    }
    engine.resume();

    std::cout << "\nstreaming " << accepted << " stream + "
              << extras_accepted << " extra requests over "
              << engine.workerCount() << " workers (" << extras_shed
              << " extras shed at the watermark)\n\n";
    std::cout << std::left << std::setw(4) << "id" << std::setw(16)
              << "model" << std::setw(8) << "mode" << std::setw(10)
              << "priority" << std::setw(12) << "ops saved"
              << std::setw(12) << "merged cols" << "seconds\n";

    // 5. Drain completions in whatever order the scheduler finishes
    //    them; only the labelled core stream is printed in detail.
    //    The timed wait keeps the loop responsive to SIGINT/SIGTERM:
    //    on a signal the engine drains what it accepted (shutdown
    //    runs — never abandons — admitted work) and the run ends
    //    with a partial summary instead of a killed process.
    bool interrupted = false;
    std::map<u64, RequestResult> results;
    const u64 expected = accepted + extras_accepted;
    for (u64 drained = 0; drained < expected; ++drained) {
        std::optional<RequestResult> popped;
        while (!popped.has_value()) {
            if (g_signal != 0 && !interrupted) {
                interrupted = true;
                std::cout << "\nsignal " << static_cast<int>(g_signal)
                          << ": draining in-flight requests...\n";
                engine.shutdown();
            }
            {
                std::unique_lock<std::mutex> lock(doneMutex);
                doneCv.wait_for(lock, std::chrono::milliseconds(200),
                                [&]() { return !doneQueue.empty(); });
                if (!doneQueue.empty()) {
                    popped = std::move(doneQueue.front());
                    doneQueue.pop_front();
                }
            }
            if (!popped.has_value() && interrupted
                && engine.inFlight() == 0)
                break;
        }
        if (!popped.has_value())
            break; // everything delivered after the drain
        const RequestResult &r = *popped;
        const auto req_it = by_id.find(r.id);
        if (req_it == by_id.end())
            continue; // an extra: counted in the snapshot below
        const ServeRequest &req = *req_it->second;
        const double saved = r.stats.totalDense() == 0 ? 0.0
            : 1.0
                - static_cast<double>(r.stats.totalExecuted())
                    / static_cast<double>(r.stats.totalDense());
        std::cout << std::left << std::setw(4) << r.id << std::setw(16)
                  << benchmarkName(req.benchmark) << std::setw(8)
                  << execModeName(req.mode) << std::setw(10)
                  << priorityName(req.priority) << std::setw(12)
                  << (std::to_string(
                          static_cast<int>(100.0 * saved + 0.5))
                      + " %");
        if (req.trackConMerge)
            std::cout << std::setw(12)
                      << (std::to_string(static_cast<int>(
                              100.0
                                  * r.conmerge.mergedRemainingFraction()
                              + 0.5))
                          + " %");
        else
            std::cout << std::setw(12) << "-";
        std::cout << std::fixed << std::setprecision(3) << r.seconds
                  << "\n";
        const u64 id = r.id;
        results.emplace(id, std::move(*popped));
    }
    engine.waitIdle();
    engine.setOnComplete(nullptr); // the local queue dies with main()

    // 6. The engine's own accounting of the run: per-class admission
    //    outcomes and queue behaviour, straight from snapshot().
    const EngineMetrics m = engine.snapshot();
    std::cout << "\n" << std::left << std::setw(10) << "class"
              << std::setw(10) << "accepted" << std::setw(8) << "shed"
              << std::setw(10) << "rejected" << std::setw(11)
              << "completed" << "peak queue\n";
    for (int c = 0; c < kNumPriorityClasses; ++c) {
        const ClassMetrics &cm = m.perClass[c];
        if (cm.accepted == 0 && cm.rejected() == 0)
            continue;
        std::cout << std::left << std::setw(10)
                  << priorityName(static_cast<Priority>(c))
                  << std::setw(10) << cm.accepted << std::setw(8)
                  << cm.shed << std::setw(10)
                  << (cm.rejected() - cm.shed) << std::setw(11)
                  << cm.completed << cm.peakQueued << "\n";
    }
    std::cout << "queue wait p50/p99: " << std::fixed
              << std::setprecision(1) << m.queueWaitP50 * 1e3 << "/"
              << m.queueWaitP99 * 1e3 << " ms over "
              << m.queueWaitSamples << " starts\n";

    // An interrupted run stops here: the engine has drained, the
    // partial summary above is honest, and the reference re-run
    // below would need an engine that is now shut down.
    if (interrupted) {
        std::cout << "\ninterrupted: " << results.size() << "/"
                  << expected << " results drained before exit\n";
        return 130;
    }

    // 7. Every streamed result is bit-identical to its single-stream
    //    run, regardless of the completion order above — and the
    //    snapshot reconciles with what the submitter observed.
    const auto sequential = engine.runSequential(stream);
    bool identical = results.size() == stream.size();
    for (Index i = 0; identical && i < sequential.size(); ++i) {
        const RequestResult &streamed = results.at(stream[i].id);
        identical &= streamed.ok()
            && streamed.output.size() == sequential[i].output.size();
        for (Index e = 0; identical && e < sequential[i].output.size();
             ++e)
            identical &= streamed.output.data()[e]
                == sequential[i].output.data()[e];
    }
    const bool reconciled = m.accepted() == accepted + extras_accepted
        && m.completed() == accepted + extras_accepted
        && m.shed() == extras_shed;
    std::cout << "\nasync == sequential (bit-exact): "
              << (identical ? "yes" : "NO")
              << "\nsnapshot reconciles with observed outcomes: "
              << (reconciled ? "yes" : "NO") << "\n";
    return identical && reconciled ? 0 : 1;
}
