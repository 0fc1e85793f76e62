/**
 * @file
 * Chrome trace-event output (the JSON format ui.perfetto.dev and
 * chrome://tracing open). Spans are kept in memory as text and written
 * out once the workload ends.
 */

#ifndef EXION_BENCH_TRACE_EVENTS_H_
#define EXION_BENCH_TRACE_EVENTS_H_

#include <string>

#include "json.h"
#include "recorder.h"

namespace exion::bench
{

class TraceWriter
{
  public:
    /** Events land in process pid, timed from epoch. */
    TraceWriter(int pid, Clock::time_point epoch) : pid_(pid), epoch_(epoch)
    {}

    /** A complete span ("X") on thread tid. args: a JSON object or "". */
    void span(const std::string &name, const char *cat, int tid,
              Clock::time_point t0, Clock::time_point t1,
              const std::string &args = "")
    {
        open(name, cat, 'X', tid, t0);
        out_ += ", \"dur\": " + formatNumber(micros(t1) - micros(t0));
        close(args);
    }

    /**
     * An async span ("b"/"e") on its own track: spans sharing an id
     * nest by time, which is how one request's queue and exec phases
     * sit under it while workers interleave many requests.
     */
    void asyncSpan(const std::string &name, const char *cat, u64 id,
                   Clock::time_point t0, Clock::time_point t1,
                   const std::string &args = "")
    {
        for (const char ph : {'b', 'e'}) {
            open(name, cat, ph, 0, ph == 'b' ? t0 : t1);
            out_ += ", \"id\": " + std::to_string(id);
            close(ph == 'b' ? args : "");
        }
    }

    /** Names thread tid in the viewer. */
    void threadName(int tid, const std::string &name)
    {
        sep();
        out_ += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
            + std::to_string(pid_) + ", \"tid\": " + std::to_string(tid)
            + ", \"args\": {\"name\": ";
        writeJsonString(name, out_);
        out_ += "}}";
    }

    /** An empty writer on the same process and clock, for a thread. */
    TraceWriter sibling() const { return TraceWriter(pid_, epoch_); }

    /** Comma-separated events, ready to splice into a traceEvents array. */
    std::string take() { return std::move(out_); }

    /** Appends another writer's events. */
    void append(const std::string &events)
    {
        if (events.empty())
            return;
        sep();
        out_ += events;
    }

  private:
    double micros(Clock::time_point t) const
    {
        return secondsBetween(epoch_, t) * 1e6;
    }

    void sep()
    {
        if (!out_.empty())
            out_ += ",\n";
    }

    void open(const std::string &name, const char *cat, char ph, int tid,
              Clock::time_point t)
    {
        sep();
        out_ += "{\"name\": ";
        writeJsonString(name, out_);
        out_ += ", \"cat\": \"";
        out_ += cat;
        out_ += "\", \"ph\": \"";
        out_ += ph;
        out_ += "\", \"pid\": " + std::to_string(pid_) + ", \"tid\": "
            + std::to_string(tid) + ", \"ts\": " + formatNumber(micros(t));
    }

    void close(const std::string &args)
    {
        if (!args.empty())
            out_ += ", \"args\": " + args;
        out_ += "}";
    }

    int pid_;
    Clock::time_point epoch_;
    std::string out_;
};

} // namespace exion::bench

#endif // EXION_BENCH_TRACE_EVENTS_H_
