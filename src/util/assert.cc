#include "util/assert.hh"

namespace repli::util {

void raise_invariant(const char* msg) { throw InvariantViolation(msg); }

void fail(const char* msg) { throw InvariantViolation(msg); }

void fail(const std::string& msg) { throw InvariantViolation(msg); }

}  // namespace repli::util
