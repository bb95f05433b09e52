#ifndef PISO_UTIL_LOG_HH
#define PISO_UTIL_LOG_HH

/**
 * @file
 * Minimal logging and error-termination helpers.
 *
 * Follows the gem5 convention: fatal() is for user errors (bad
 * configuration, impossible workload parameters) and throws a
 * structured ConfigError (src/util/error.hh) the sweep runner can
 * quarantine; panic() is for internal invariant violations (simulator
 * bugs) and aborts so a core dump / debugger can capture the state.
 * For invariants that should be *catchable* in hardened builds, use
 * PISO_INVARIANT / PISO_CHECK from src/util/error.hh instead.
 *
 * The verbosity level lives in a per-thread LogContext (mirroring
 * TraceContext) so parallel sweep workers never share mutable log
 * state; setLogLevel()/logLevel() are shims over the calling thread's
 * current context.
 */

#include <cstdint>
#include <sstream>
#include <string>

namespace piso {

/** Verbosity levels for runtime logging. */
enum class LogLevel : std::uint8_t { Quiet = 0, Info = 1, Debug = 2 };

/** The mutable state of the logging facility (per thread). */
struct LogContext
{
    LogLevel level = LogLevel::Quiet;
};

/** The calling thread's current log context (never null). */
LogContext &logContext();

/**
 * Install @p ctx as the calling thread's current context (nullptr
 * restores the thread's default context).
 * @return the previously installed context pointer (maybe nullptr).
 */
LogContext *logSetContext(LogContext *ctx);

/** RAII installation of a LogContext on the current thread. */
class LogContextScope
{
  public:
    explicit LogContextScope(LogContext &ctx)
        : prev_(logSetContext(&ctx))
    {
    }

    ~LogContextScope() { logSetContext(prev_); }

    LogContextScope(const LogContextScope &) = delete;
    LogContextScope &operator=(const LogContextScope &) = delete;

  private:
    LogContext *prev_;
};

/** Set the current thread's log verbosity (default: Quiet). */
void setLogLevel(LogLevel level);

/** Current log verbosity of the calling thread. */
LogLevel logLevel();

namespace detail {
[[noreturn]] void fatalImpl(const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void logImpl(LogLevel level, const std::string &msg);

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}
} // namespace detail

} // namespace piso

/**
 * Unrecoverable *user* error (bad config, bad arguments): throws a
 * ConfigError and prints nothing; whoever catches it reports it.
 */
#define PISO_FATAL(...)                                                     \
    ::piso::detail::fatalImpl(::piso::detail::concat(__VA_ARGS__))

/** Terminate: internal invariant violation (a simulator bug). */
#define PISO_PANIC(...)                                                     \
    ::piso::detail::panicImpl(__FILE__, __LINE__,                           \
                              ::piso::detail::concat(__VA_ARGS__))

/** Informational message, shown at LogLevel::Info and above. */
#define PISO_INFO(...)                                                      \
    ::piso::detail::logImpl(::piso::LogLevel::Info,                         \
                            ::piso::detail::concat(__VA_ARGS__))

/** Debug trace, shown only at LogLevel::Debug. */
#define PISO_DEBUG(...)                                                     \
    ::piso::detail::logImpl(::piso::LogLevel::Debug,                        \
                            ::piso::detail::concat(__VA_ARGS__))

#endif // PISO_UTIL_LOG_HH
