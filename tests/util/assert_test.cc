#include "util/assert.hh"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

namespace repli::util {
namespace {

TEST(Ensure, PassesOnTrue) { EXPECT_NO_THROW(ensure(true, "ok")); }

TEST(Ensure, ThrowsWithMessageOnFalse) {
  try {
    ensure(false, "broken invariant");
    FAIL() << "ensure(false) did not throw";
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.what(), "broken invariant");
  }
}

// A passing check must not build its message: there is no overload taking
// a std::string, so `ensure(cond, "..." + detail)` does not compile.
static_assert(!std::is_invocable_v<decltype(&ensure), bool, const std::string&>);

TEST(Fail, AlwaysThrows) { EXPECT_THROW(fail("unreachable"), InvariantViolation); }

}  // namespace
}  // namespace repli::util
