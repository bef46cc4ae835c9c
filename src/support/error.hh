/**
 * @file
 * Structured error taxonomy for the campaign-facing paths.
 *
 * The panic()/fatal() idiom (common.hh) is the right tool for a
 * single interactive run, but a batch campaign — a thousand-config
 * sweep, a fuzz session, a long-running cache daemon — must survive
 * one bad input. This header adds the catchable tier:
 *
 *   TRIPS_PANIC      internal invariant violated — a tripsim bug.
 *                    Still aborts; nothing downstream can be trusted.
 *   TripsError       an *input* could not be processed: a fuzz shape
 *                    the compiler cannot allocate registers for, a
 *                    corrupt checkpoint file, a config a program does
 *                    not fit. Carries a Status (code + subsystem +
 *                    message + context) so harnesses can classify,
 *                    quarantine, retry, or degrade without parsing
 *                    message strings.
 *   TRIPS_FATAL      reserved for CLI-level configuration errors in
 *                    driver main()s, where exit(1) *is* the handler.
 *
 * Policy (DESIGN.md §8): anything reachable from campaign entry
 * points (core::runTrips, sim::Campaign, compileToTrips, CycleSim /
 * ChipSim construction, checkpoint load) with caller-controlled input
 * throws TripsError; PANIC remains for states no input should be able
 * to reach.
 */

#ifndef TRIPSIM_SUPPORT_ERROR_HH
#define TRIPSIM_SUPPORT_ERROR_HH

#include <stdexcept>
#include <string>
#include <utility>

#include "support/common.hh"

namespace trips {

/** What went wrong, independent of where. Stable machine-readable
 *  names (errCodeName) land in quarantine ledgers and JSON reports. */
enum class ErrCode : u8 {
    Ok = 0,
    InvalidArgument,    ///< malformed input (bad spec string, bad WIR)
    InvalidConfig,      ///< a *Config failed validation
    ResourceExhausted,  ///< input exceeds a hardware/format capacity
    Unsupported,        ///< valid input this build cannot handle
    IoError,            ///< open/read/rename failure (transient)
    NoSpace,            ///< ENOSPC-style write failure (transient)
    Truncated,          ///< file/stream shorter than its own framing
    CorruptData,        ///< CRC or structural mismatch
    VersionMismatch,    ///< recognized file, other format version
    Timeout,            ///< a guarded task's deadline passed
    Internal,           ///< caught invariant violation (still a bug)
};

/** Which layer reported it. */
enum class Subsys : u8 {
    Support,
    Compiler,
    Sim,
    Uarch,
    Harness,
};

constexpr const char *
errCodeName(ErrCode c)
{
    switch (c) {
      case ErrCode::Ok: return "ok";
      case ErrCode::InvalidArgument: return "invalid-argument";
      case ErrCode::InvalidConfig: return "invalid-config";
      case ErrCode::ResourceExhausted: return "resource-exhausted";
      case ErrCode::Unsupported: return "unsupported";
      case ErrCode::IoError: return "io-error";
      case ErrCode::NoSpace: return "no-space";
      case ErrCode::Truncated: return "truncated";
      case ErrCode::CorruptData: return "corrupt-data";
      case ErrCode::VersionMismatch: return "version-mismatch";
      case ErrCode::Timeout: return "timeout";
      case ErrCode::Internal: return "internal";
    }
    return "unknown";
}

constexpr const char *
subsysName(Subsys s)
{
    switch (s) {
      case Subsys::Support: return "support";
      case Subsys::Compiler: return "compiler";
      case Subsys::Sim: return "sim";
      case Subsys::Uarch: return "uarch";
      case Subsys::Harness: return "harness";
    }
    return "unknown";
}

/** A classification + human-readable detail. Default-constructed =
 *  success, so functions can return Status instead of throwing on
 *  paths where failure is expected (file writes under fault). */
struct Status
{
    ErrCode code = ErrCode::Ok;
    Subsys subsys = Subsys::Support;
    std::string message;   ///< what happened
    std::string context;   ///< where: function/file/workload name

    bool ok() const { return code == ErrCode::Ok; }

    /** Worth retrying with backoff (harness/guard.hh)? */
    bool
    transient() const
    {
        return code == ErrCode::IoError || code == ErrCode::NoSpace;
    }

    /** "subsys: code: message [context]" — the log/ledger line. */
    std::string
    str() const
    {
        std::string s = std::string(subsysName(subsys)) + ": " +
                        errCodeName(code) + ": " + message;
        if (!context.empty())
            s += " [" + context + "]";
        return s;
    }
};

inline Status
okStatus()
{
    return Status{};
}

inline Status
makeStatus(ErrCode code, Subsys subsys, std::string message,
           std::string context = "")
{
    return Status{code, subsys, std::move(message), std::move(context)};
}

/** The catchable structured failure. what() == status().str(). */
class TripsError : public std::runtime_error
{
  public:
    explicit TripsError(Status s)
        : std::runtime_error(s.str()), status_(std::move(s))
    {}

    const Status &status() const { return status_; }
    ErrCode code() const { return status_.code; }

  private:
    Status status_;
};

/** Compiler-subsystem failure: an input program the backend cannot
 *  lower (register pressure, unsplittable blocks). Campaign harnesses
 *  quarantine these with a repro line instead of dying. */
class CompileError : public TripsError
{
  public:
    explicit CompileError(Status s) : TripsError(std::move(s)) {}

    CompileError(ErrCode code, std::string message,
                 std::string context = "")
        : TripsError(makeStatus(code, Subsys::Compiler,
                                std::move(message), std::move(context)))
    {}
};

namespace detail {

template <typename... Args>
[[noreturn]] inline void
throwError(ErrCode code, Subsys subsys, Args &&...args)
{
    throw TripsError(
        makeStatus(code, subsys, formatMsg(std::forward<Args>(args)...)));
}

} // namespace detail

/** Throw a TripsError with a streamed message:
 *  TRIPS_THROW(ErrCode::CorruptData, Subsys::Sim, "bad ", x). */
#define TRIPS_THROW(code, subsys, ...) \
    ::trips::detail::throwError((code), (subsys), __VA_ARGS__)

} // namespace trips

#endif // TRIPSIM_SUPPORT_ERROR_HH
