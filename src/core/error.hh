/**
 * @file
 * Error-reporting helpers in the spirit of gem5's fatal()/panic().
 *
 * fatal() is for user mistakes (bad configuration, impossible
 * experiment parameters) and throws laer::FatalError so tests can
 * assert on it. panic() is for internal invariant violations and
 * aborts after printing, because continuing would corrupt results.
 */

#ifndef LAER_CORE_ERROR_HH
#define LAER_CORE_ERROR_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace laer
{

/** Exception thrown for user-caused, recoverable configuration errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Throw a FatalError with the given message. */
[[noreturn]] void fatal(const std::string &msg);

/** Print the message and abort; reserved for internal bugs. */
[[noreturn]] void panic(const std::string &msg);

} // namespace laer

/**
 * Check a user-facing precondition; throws laer::FatalError on failure.
 * `msg` is a stream expression, evaluated only when the check fails,
 * in a cold out-of-line lambda: the checked function's own body keeps
 * only the test and a call.
 */
#define LAER_CHECK(cond, msg)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            [&]() __attribute__((noinline, cold, noreturn)) {               \
                std::ostringstream laer_oss_;                               \
                laer_oss_ << "check failed: " #cond " — " << msg;           \
                ::laer::fatal(laer_oss_.str());                             \
            }();                                                            \
        }                                                                   \
    } while (0)

/**
 * Assert an internal invariant; aborts on failure. `msg` is evaluated
 * only on failure, out of line as in LAER_CHECK.
 */
#define LAER_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            [&]() __attribute__((noinline, cold, noreturn)) {               \
                std::ostringstream laer_oss_;                               \
                laer_oss_ << "assertion failed: " #cond " — " << msg        \
                          << " (" << __FILE__ << ":" << __LINE__ << ")";    \
                ::laer::panic(laer_oss_.str());                             \
            }();                                                            \
        }                                                                   \
    } while (0)

#endif // LAER_CORE_ERROR_HH
