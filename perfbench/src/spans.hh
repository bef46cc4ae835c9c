/**
 * @file
 * Host-time spans recorded by the benchmark around each call into a
 * tripsim layer, and the arithmetic that turns them into per-layer
 * self times.
 *
 * A span is named "<layer>.<op>" (e.g. "uarch.run"); its layer is the
 * part before the first dot. Spans are kept in memory in lanes: one
 * lane per recording thread, appended to only by that thread, read
 * only after the thread has joined (the sweep pool's fork/join gives
 * the ordering). Within a lane spans nest properly, so a span's self
 * time is its duration minus the durations of its direct children.
 *
 * Work that a guard runs on a watchdog thread records into a detached
 * Lane of its own, which the waiting thread adopts once the task has
 * finished; a timed-out task's lane stays with its thread.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/common.hh"

namespace trips::obs {
class TraceSink;
}

namespace perfbench {

using trips::i32;
using trips::i64;
using trips::u32;
using trips::u64;

/** Monotonic host nanoseconds (steady_clock). */
inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    const char *name = "";  ///< "<layer>.<op>", a string literal
    u64 start = 0;          ///< host ns
    u64 end = 0;
    i32 parent = -1;        ///< index in the same vector, -1 = root
    u32 lane = 0;
    u64 task = 0;
};

/** "<layer>" of a "<layer>.<op>" span name. */
std::string layerOf(const char *name);

/** Self time per layer plus the time the root spans cover. */
struct SelfTimes
{
    std::map<std::string, u64> selfNs;      ///< by layer
    std::map<std::string, u64> selfByName;  ///< by span name
    std::map<std::string, u64> totalNs;     ///< by span name, inclusive
    std::map<std::string, u64> count;    ///< by span name
    u64 rootNs = 0;                      ///< sum of root-span durations
};

/**
 * Self time of every span (duration minus its direct children),
 * summed by layer. Throws std::logic_error if a child does not lie
 * inside its parent or children overlap, either of which would make
 * the sum of self times differ from the root-span total.
 */
SelfTimes selfTimes(const std::vector<Span> &spans);

/**
 * Time outside every root span within [@p start_ns, @p end_ns], summed
 * over @p lanes lanes: the gaps before, between and after each lane's
 * root spans, and the whole window for a lane that recorded nothing.
 * It comes from span boundaries alone, so with the root-span total it
 * makes lanes x window only if every root span lies in the window and
 * no two root spans of a lane overlap. Throws std::logic_error if
 * spans were recorded on more than @p lanes lanes.
 */
u64 outsideNs(const std::vector<Span> &spans, u64 start_ns, u64 end_ns,
              unsigned lanes);

/** Amdahl bound of running parts concurrently: sum / max (0 if empty). */
double amdahlBound(const std::vector<double> &part_times);

/** One thread's spans; parents are indices into this lane. */
class Lane
{
  public:
    void open(const char *name, u64 task);
    void close();

    /** A child of the innermost open span that aggregates many short
     *  intervals (e.g. every uncore access of one run): it ends now
     *  and lasts @p dur_ns. */
    void aggregate(const char *name, u64 task, u64 dur_ns);

    /** Append a finished lane recorded on another thread; its root
     *  spans become children of this lane's innermost open span. */
    void adopt(const Lane &child);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<i32> stack_;
};

/** Owns the lanes of every thread that records into it. */
class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** The calling thread's lane (created on first use). */
    Lane &lane();

    /** Every span of every lane, parents re-indexed into the result
     *  (call after all recording threads joined). */
    std::vector<Span> spans() const;

  private:
    const u64 id_;
    mutable std::mutex mu_;  ///< guards lanes_ (registration only)
    std::vector<std::unique_ptr<Lane>> lanes_;
};

/** The calling thread's lane of @p r, or null (untraced). */
inline Lane *
laneOf(SpanRecorder *r)
{
    return r ? &r->lane() : nullptr;
}

/** RAII span; a null lane makes it free (one pointer test). */
class Scope
{
  public:
    Scope(Lane *l, const char *name, u64 task) : l_(l)
    {
        if (l_)
            l_->open(name, task);
    }
    ~Scope()
    {
        if (l_)
            l_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Lane *l_;
};

/** Append spans to a trace sink as complete events on process row
 *  @p pid, one thread row per lane (timestamps in microseconds from
 *  @p epoch_ns). */
void exportSpans(const std::vector<Span> &spans, u64 epoch_ns, u32 pid,
                 trips::obs::TraceSink &sink);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
