/**
 * @file
 * Error reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal simulator invariant was violated (a bug in the
 *            simulator itself); aborts so a debugger/core dump can be used.
 * fatal()  — the simulation cannot continue because of a user error (bad
 *            configuration, invalid arguments); exits with status 1.
 *
 * Recoverable failures are not logged: library calls return them to
 * the caller (an error string, Results::completed), and the drivers
 * decide what to print.
 */

#ifndef BULKSC_SIM_LOGGING_HH
#define BULKSC_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace bulksc {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Build a message from a stream-style expression. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    // void-cast: with an empty pack the fold is just `os`, which
    // would otherwise warn as a statement with no effect.
    static_cast<void>((os << ... << args));
    return os.str();
}

} // namespace detail

#define panic(...)                                                        \
    ::bulksc::detail::panicImpl(__FILE__, __LINE__,                       \
                                ::bulksc::detail::format(__VA_ARGS__))

#define fatal(...)                                                        \
    ::bulksc::detail::fatalImpl(__FILE__, __LINE__,                       \
                                ::bulksc::detail::format(__VA_ARGS__))

/** panic() unless the given condition holds. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if (cond) {                                                       \
            panic("condition '" #cond "' hit: ", __VA_ARGS__);            \
        }                                                                 \
    } while (0)

#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if (cond) {                                                       \
            fatal("condition '" #cond "' hit: ", __VA_ARGS__);            \
        }                                                                 \
    } while (0)

} // namespace bulksc

#endif // BULKSC_SIM_LOGGING_HH
