/**
 * @file
 * Error handling primitives for libtopo.
 *
 * Follows the gem5 fatal/panic split: TopoError (via require/fail) is for
 * conditions caused by the caller (bad configuration, inconsistent
 * arguments); assertions/panics are reserved for internal invariant
 * violations.
 *
 * Every TopoError carries an ErrCode classifying the failure, and the
 * CLI tools translate that code into a stable process exit code so
 * scripts and CI can distinguish failure classes:
 *
 *   0  success
 *   1  user error (bad flags, missing files, inconsistent arguments)
 *   2  corrupt input (malformed/truncated trace, program, layout,
 *      checkpoint; CRC mismatch)
 *   3  internal error (invariant violation, unexpected exception)
 */

#ifndef TOPO_UTIL_ERROR_HH
#define TOPO_UTIL_ERROR_HH

#include <stdexcept>
#include <string>
#include <string_view>

namespace topo
{

/** Failure classes, numerically equal to the tool exit codes. */
enum class ErrCode : int
{
    kUser = 1,
    kCorrupt = 2,
    kInternal = 3,
};

/** Stable exit code of a failure class. */
constexpr int
exitCodeFor(ErrCode code)
{
    return static_cast<int>(code);
}

/**
 * Exception thrown for recoverable errors. The code classifies the
 * failure; context names the thing that failed (a file path, an
 * injection site, a tool stage) separately from the message so
 * handlers can report it in a structured way.
 */
class TopoError : public std::runtime_error
{
  public:
    explicit TopoError(const std::string &what_arg,
                       ErrCode code = ErrCode::kUser,
                       std::string context = "")
        : std::runtime_error(context.empty() ? what_arg
                                             : context + ": " + what_arg),
          code_(code), context_(std::move(context))
    {}

    /** Failure class (determines the tool exit code). */
    ErrCode code() const { return code_; }

    /** Process exit code for this failure. */
    int exitCode() const { return exitCodeFor(code_); }

    /** What failed (file path, injection site, stage); may be empty. */
    const std::string &context() const { return context_; }

  private:
    ErrCode code_;
    std::string context_;
};

/**
 * Throw a TopoError with the given message. Marked [[noreturn]] so it can
 * terminate value-returning control paths.
 *
 * @param msg Human-readable description of the problem.
 */
[[noreturn]] void fail(const std::string &msg);

/** Throw a corrupt-input TopoError (exit code 2). */
[[noreturn]] void failCorrupt(const std::string &msg,
                              const std::string &context = "");

/** Throw an internal-error TopoError (exit code 3). */
[[noreturn]] void failInternal(const std::string &msg,
                               const std::string &context = "");

/**
 * Check a caller-facing precondition; throws TopoError on failure.
 *
 * The message is a view, and the std::string that TopoError needs is
 * built only inside the failing branch, so a passing check with a
 * literal message costs a compare and no allocation. That holds only
 * while the argument itself is free to make: a message concatenated
 * from parts is built before the call, on the pass path too. Where
 * a message needs a name or a number, write
 * `if (!cond) fail(...)` instead, so the pass path never concatenates.
 *
 * @param cond Condition that must hold.
 * @param msg  Message used when the condition does not hold.
 */
inline void
require(bool cond, std::string_view msg)
{
    if (!cond) [[unlikely]]
        fail(std::string(msg));
}

/**
 * Check a property of external input data; throws a corrupt-input
 * TopoError (exit code 2) on failure. Like require(), it builds its
 * strings only on failure; use `if (!cond) failCorrupt(...)` for a
 * message that must be concatenated.
 */
inline void
requireData(bool cond, std::string_view msg, std::string_view context = {})
{
    if (!cond) [[unlikely]]
        failCorrupt(std::string(msg), std::string(context));
}

} // namespace topo

#endif // TOPO_UTIL_ERROR_HH
