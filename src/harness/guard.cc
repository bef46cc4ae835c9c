#include "harness/guard.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/obs.hh"
#include "support/deadline.hh"

namespace trips::harness {

TaskOutcome
runGuarded(const GuardConfig &cfg, const std::function<void()> &task)
{
    TaskOutcome out;
    for (unsigned attempt = 0; ; ++attempt) {
        ++out.attempts;
        DeadlineScope deadline(cfg.timeoutMs);
        out.error = okStatus();
        try {
            task();
        } catch (const TripsError &e) {
            out.error = e.status();
        } catch (const std::exception &e) {
            out.error = makeStatus(ErrCode::Internal, Subsys::Harness,
                                   e.what());
        }
        // The deadline has the last word: a poll site's throw and an
        // overrun that never reached a poll site both end as a timeout
        // (never retried: a second attempt would just overrun again).
        if (deadline.expired()) {
            out.timedOut = true;
            // Worded as ever: quarantine ledgers record this message.
            out.error = makeStatus(
                ErrCode::Timeout, Subsys::Harness,
                "task exceeded the " + std::to_string(cfg.timeoutMs) +
                    "ms watchdog deadline");
            return out;
        }
        out.ok = out.error.ok();
        if (out.ok || !out.error.transient() || attempt >= cfg.retries)
            return out;
        // Transient I/O: back off (base << attempt, capped at 64x base
        // so a large --retries neither overflows the shift nor sleeps
        // for hours) and try again.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            cfg.backoffBaseMs << std::min(attempt, 6u)));
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
QuarantineLedger::record(u64 seed, const std::string &shape,
                         const Status &err, const std::string &repro)
{
    std::lock_guard<std::mutex> lk(mu_);
    u64 seq = entries_.fetch_add(1, std::memory_order_relaxed) + 1;
    u64 elapsed = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
    if (trace_) {
        trace_->instant(obs::TRACE_PID_HARNESS, 0, elapsed,
                        std::string("quarantine ") + errCodeName(err.code),
                        "guard", "seq", static_cast<double>(seq), "seed",
                        static_cast<double>(seed));
    }
    if (path_.empty())
        return;
    std::FILE *f = std::fopen(path_.c_str(), "a");
    if (!f) {
        // The ledger is itself best-effort: losing a record must not
        // take down the sweep it exists to protect.
        std::fprintf(stderr, "quarantine: cannot append to %s\n",
                     path_.c_str());
        return;
    }
    std::fprintf(
        f,
        "{\"seq\":%llu,\"seed\":%llu,\"shape\":\"%s\",\"subsys\":\"%s\","
        "\"code\":\"%s\",\"message\":\"%s\",\"repro\":\"%s\","
        "\"elapsed_ms\":%llu}\n",
        static_cast<unsigned long long>(seq),
        static_cast<unsigned long long>(seed),
        jsonEscape(shape).c_str(), subsysName(err.subsys),
        errCodeName(err.code), jsonEscape(err.message).c_str(),
        jsonEscape(repro).c_str(),
        static_cast<unsigned long long>(elapsed));
    std::fclose(f);
}

} // namespace trips::harness
