/**
 * @file
 * Cooperative per-thread deadline (DESIGN.md §8). A guarded task
 * (harness/guard.hh) runs on its caller's thread and stops itself: the
 * long loops it can reach call pollDeadlineAt(), which throws
 * TripsError{Timeout} once the deadline a DeadlineScope armed passes.
 */

#ifndef TRIPSIM_SUPPORT_DEADLINE_HH
#define TRIPSIM_SUPPORT_DEADLINE_HH

#include <algorithm>
#include <chrono>

#include "support/error.hh"

namespace trips {

using DeadlineClock = std::chrono::steady_clock;
constexpr DeadlineClock::time_point NO_DEADLINE =
    DeadlineClock::time_point::max();

namespace detail {

/** This thread's deadline. */
inline thread_local DeadlineClock::time_point threadDeadline = NO_DEADLINE;

inline bool
deadlinePassed(DeadlineClock::time_point at)
{
    return at != NO_DEADLINE && DeadlineClock::now() >= at;
}

} // namespace detail

/** Arms this thread's deadline @p ms from now (0 = none) for the
 *  scope's lifetime, never later than an enclosing scope's; a deadline
 *  past the clock's range saturates to none. */
class DeadlineScope
{
  public:
    explicit DeadlineScope(u64 ms)
        : prev_(detail::threadDeadline), at_(prev_)
    {
        using std::chrono::milliseconds;
        if (!ms)
            return;
        const auto now = DeadlineClock::now();
        const auto room =
            std::chrono::duration_cast<milliseconds>(NO_DEADLINE - now);
        if (ms < static_cast<u64>(room.count()))
            detail::threadDeadline = at_ =
                std::min(prev_, now + milliseconds(ms));
    }
    ~DeadlineScope() { detail::threadDeadline = prev_; }
    DeadlineScope(const DeadlineScope &) = delete;
    DeadlineScope &operator=(const DeadlineScope &) = delete;

    bool expired() const { return detail::deadlinePassed(at_); }

  private:
    DeadlineClock::time_point prev_, at_;
};

/** A poll site: on every 4096th value of its loop @p counter, throw
 *  if this thread's deadline has passed. Unarmed, one branch. */
inline void
pollDeadlineAt(u64 counter)
{
    if ((counter & 4095) == 0 &&
        detail::deadlinePassed(detail::threadDeadline)) [[unlikely]]
        TRIPS_THROW(ErrCode::Timeout, Subsys::Harness,
                    "task passed its deadline");
}

} // namespace trips

#endif // TRIPSIM_SUPPORT_DEADLINE_HH
