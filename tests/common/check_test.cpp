// ScopedCheckTrap semantics: while a trap is alive on the current thread,
// MB_CHECK failures throw CheckFailure instead of aborting; traps nest and
// restore the previous state on destruction. serve::runPlan leans on this to
// record a failing sweep point and keep going, so the nesting contract is
// load-bearing (a sweep point may itself construct a nested trap).
#include "common/check.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mb {
namespace {

TEST(ScopedCheckTrap, ConvertsCheckFailureToException) {
  ScopedCheckTrap trap;
  bool caught = false;
  try {
    MB_CHECK(1 + 1 == 3);
  } catch (const CheckFailure& f) {
    caught = true;
    EXPECT_NE(f.message.find("check failed"), std::string::npos);
    EXPECT_NE(f.message.find("1 + 1 == 3"), std::string::npos);
  }
  EXPECT_TRUE(caught);
}

TEST(ScopedCheckTrap, CheckMsgCarriesFormattedContext) {
  ScopedCheckTrap trap;
  bool caught = false;
  try {
    const int got = 7;
    MB_CHECK_MSG(got == 0, "leftover=%d", got);
  } catch (const CheckFailure& f) {
    caught = true;
    EXPECT_NE(f.message.find("leftover=7"), std::string::npos);
  }
  EXPECT_TRUE(caught);
}

TEST(ScopedCheckTrap, NestedTrapsRestoreInnerThenOuter) {
  EXPECT_FALSE(detail::g_checkTrapActive);
  {
    ScopedCheckTrap outer;
    EXPECT_TRUE(detail::g_checkTrapActive);
    {
      ScopedCheckTrap inner;
      EXPECT_TRUE(detail::g_checkTrapActive);
      EXPECT_THROW(MB_CHECK(false), CheckFailure);
    }
    // Inner trap gone; the outer one must still be armed.
    EXPECT_TRUE(detail::g_checkTrapActive);
    EXPECT_THROW(MB_CHECK(false), CheckFailure);
  }
  EXPECT_FALSE(detail::g_checkTrapActive);
}

TEST(ScopedCheckTrap, ThrowDuringNestedTrapStillUnwindsCleanly) {
  // A CheckFailure thrown under the inner trap unwinds both scopes; the
  // flag must end up back at its pre-trap value.
  EXPECT_FALSE(detail::g_checkTrapActive);
  try {
    ScopedCheckTrap outer;
    ScopedCheckTrap inner;
    MB_CHECK(false);
  } catch (const CheckFailure&) {
  }
  EXPECT_FALSE(detail::g_checkTrapActive);
}

TEST(ScopedCheckTrapDeathTest, WithoutTrapCheckAborts) {
  EXPECT_DEATH(MB_CHECK(2 < 1), "check failed: 2 < 1");
}

TEST(ScopedCheckTrapDeathTest, ExpiredTrapsNoLongerIntercept) {
  // Construct and destroy nested traps, then fail: the process must abort,
  // proving destruction really restored the untrapped state.
  {
    ScopedCheckTrap outer;
    ScopedCheckTrap inner;
  }
  EXPECT_DEATH(MB_CHECK(3 < 2), "check failed: 3 < 2");
}

}  // namespace
}  // namespace mb
