// Internal invariant checking.
//
// `ensure` is for programmer invariants (a failure is a bug in replikit);
// it throws `InvariantViolation` so tests can observe violations and so a
// failure inside the simulator unwinds cleanly instead of calling abort().
#pragma once

#include <stdexcept>
#include <string>

namespace repli::util {

/// Thrown when an internal invariant does not hold. Catching this anywhere
/// other than a test is almost certainly wrong.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what) : std::logic_error(what) {}
};

/// Cold throw helper: the std::string for the exception is only built here,
/// so an ensure() that passes costs a branch — not a heap allocation. (The
/// old `ensure(bool, const std::string&)` signature materialized the message
/// string on every call; on the simulator hot path that was several
/// allocations per dispatched event.)
[[noreturn]] void raise_invariant(const char* msg);

/// Throws InvariantViolation with `msg` if `cond` is false. Allocation-free
/// when the invariant holds.
inline void ensure(bool cond, const char* msg) {
  if (!cond) [[unlikely]] raise_invariant(msg);
}

/// There is deliberately no `ensure(bool, const std::string&)`: its message
/// would be built on every call, pass or fail. A check with a dynamic
/// message is written `if (!cond) util::fail("..." + detail);`.

/// Unconditional invariant failure (e.g. unreachable switch arms, or a
/// failed check whose message is built only once it has failed).
[[noreturn]] void fail(const char* msg);
[[noreturn]] void fail(const std::string& msg);

}  // namespace repli::util
