/**
 * @file
 * Hardened execution guard for batch campaigns.
 *
 * Three pieces, composable with SweepPool (sweep.hh):
 *
 *   runGuarded()      runs one task on the caller's thread under a
 *                     cooperative wall-clock deadline and a
 *                     retry-with-exponential-backoff loop. Structured
 *                     failures (TripsError) come back as a classified
 *                     TaskOutcome instead of unwinding the sweep;
 *                     transient() statuses (IoError/NoSpace) are
 *                     retried with doubling backoff before giving up.
 *
 *   QuarantineLedger  an append-only JSONL file of failing tasks:
 *                     (seed, shape, error code, repro command). A
 *                     crashing fuzz seed is durably recorded and the
 *                     sweep finishes — the triage artifact survives
 *                     even if the process is later killed, because
 *                     each record is appended and flushed on its own.
 *
 * The deadline (support/deadline.hh) is polled inside the simulators'
 * long loops, so a task that overruns throws out of the model it is
 * in and stops; nothing is left running once runGuarded returns.
 */

#ifndef TRIPSIM_HARNESS_GUARD_HH
#define TRIPSIM_HARNESS_GUARD_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>

#include "support/common.hh"
#include "support/error.hh"

namespace trips::obs {
class TraceSink;
}

namespace trips::harness {

struct GuardConfig
{
    u64 timeoutMs = 0;       ///< deadline per attempt; 0 = off
    unsigned retries = 0;    ///< extra attempts for transient() errors
    u64 backoffBaseMs = 10;  ///< sleep base << min(attempt-1, 6) per retry
};

struct TaskOutcome
{
    bool ok = false;
    bool timedOut = false;
    unsigned attempts = 0;   ///< attempts actually made (>= 1)
    Status error;            ///< meaningful iff !ok
};

/**
 * Run @p task under @p cfg on the calling thread. Every failure mode
 * is captured: TripsError becomes its Status, any other
 * std::exception becomes ErrCode::Internal, a blown deadline becomes
 * ErrCode::Timeout (never retried — a second attempt would just
 * overrun again), whether a poll site threw or the task returned late.
 */
TaskOutcome runGuarded(const GuardConfig &cfg,
                       const std::function<void()> &task);

/**
 * Append-only JSONL quarantine ledger. Thread-safe: sweep workers
 * record concurrently. Each line is one self-contained JSON object,
 * led by a monotonic per-ledger sequence number and closed by the
 * wall-clock milliseconds since the ledger was constructed (so triage
 * can order and place failures in a long campaign even when several
 * workers record in the same instant):
 *
 *   {"seq":1,"seed":123,"shape":"...","subsys":"compiler",
 *    "code":"resource-exhausted","message":"...","repro":"...",
 *    "elapsed_ms":4182}
 *
 * Opened lazily per record (append + close), so every entry is
 * durable the moment record() returns.
 */
class QuarantineLedger
{
  public:
    /** Disabled ledger: record() only counts. */
    QuarantineLedger() = default;

    explicit QuarantineLedger(const std::string &path) : path_(path) {}

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    /** Durably append one failure record. */
    void record(u64 seed, const std::string &shape, const Status &err,
                const std::string &repro);

    /** Records so far (atomic: progress heartbeats read it while
     *  sweep workers append). */
    u64 entries() const { return entries_.load(std::memory_order_relaxed); }

    /** Also emit each quarantine as a trace instant (obs/trace.hh);
     *  null detaches. The sink must outlive the ledger. */
    void attachTrace(obs::TraceSink *t) { trace_ = t; }

  private:
    std::string path_;
    std::mutex mu_;
    std::atomic<u64> entries_{0};
    obs::TraceSink *trace_ = nullptr;
    std::chrono::steady_clock::time_point t0_ =
        std::chrono::steady_clock::now();
};

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string jsonEscape(const std::string &s);

} // namespace trips::harness

#endif // TRIPSIM_HARNESS_GUARD_HH
