/**
 * @file
 * Unit tests for the logging helpers.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

namespace bulksc {
namespace {

TEST(LoggingTest, FormatConcatenatesMixedTypes)
{
    EXPECT_EQ(detail::format("x=", 42, " y=", 2.5, " z"),
              "x=42 y=2.5 z");
    EXPECT_EQ(detail::format(), "");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH({ panic("boom ", 3); }, "panic: boom 3");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT({ fatal("bad config ", 9); },
                ::testing::ExitedWithCode(1), "fatal: bad config 9");
}

TEST(LoggingDeath, PanicIfOnlyFiresWhenTrue)
{
    panic_if(false, "must not fire");
    EXPECT_DEATH({ panic_if(1 + 1 == 2, "fires"); }, "fires");
}

TEST(LoggingDeath, FatalIfOnlyFiresWhenTrue)
{
    fatal_if(false, "must not fire");
    EXPECT_EXIT({ fatal_if(true, "fires"); },
                ::testing::ExitedWithCode(1), "fires");
}

} // namespace
} // namespace bulksc
