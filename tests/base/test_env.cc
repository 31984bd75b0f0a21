#include <cstdlib>
#include <limits>

#include <gtest/gtest.h>

#include "base/env.hh"
#include "base/thread_pool.hh"

namespace tw
{
namespace
{

constexpr std::uint64_t kU32Max = std::numeric_limits<unsigned>::max();

TEST(ParseDecimal, AcceptsOnlyPlainDigitsThatFit)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parseDecimal("0", kU32Max, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseDecimal("4294967295", kU32Max, v));
    EXPECT_EQ(v, kU32Max);
    EXPECT_TRUE(parseDecimal("18446744073709551615",
                             ~std::uint64_t{0}, v));
    EXPECT_EQ(v, ~std::uint64_t{0});
    v = 7;
    for (const char *bad :
         {"", "16k", "garbage", " 4", "4 ", "+4", "-1", "0x10", "1e3",
          "4294967296", "99999999999999999999"})
        EXPECT_FALSE(parseDecimal(bad, kU32Max, v)) << bad;
    EXPECT_FALSE(parseDecimal("9", 8, v));
    EXPECT_EQ(v, 7u);
}

TEST(ParseDecimal, FractionsAreDigitsWithOnePoint)
{
    double v = -1.0;
    EXPECT_TRUE(parseDecimal("0.05", v));
    EXPECT_DOUBLE_EQ(v, 0.05);
    EXPECT_TRUE(parseDecimal("2", v));
    EXPECT_DOUBLE_EQ(v, 2.0);
    EXPECT_TRUE(parseDecimal(".5", v));
    EXPECT_DOUBLE_EQ(v, 0.5);
    v = -1.0;
    for (const char *bad :
         {"", ".", "0.1x", "1.2.3", "-0.1", "+1", "1e-2", "inf", "nan",
          " 0.1"})
        EXPECT_FALSE(parseDecimal(bad, v)) << bad;
    EXPECT_DOUBLE_EQ(v, -1.0);
}

TEST(EnvKnob, UnsetOrEmptyKeepsTheFallback)
{
    ::unsetenv("TW_TEST_KNOB");
    EXPECT_EQ(envUnsigned("TW_TEST_KNOB", 9, kU32Max), 9u);
    EXPECT_DOUBLE_EQ(envDouble("TW_TEST_KNOB", 0.5), 0.5);
    ::setenv("TW_TEST_KNOB", "", 1);
    EXPECT_EQ(envUnsigned("TW_TEST_KNOB", 9, kU32Max), 9u);
    EXPECT_DOUBLE_EQ(envDouble("TW_TEST_KNOB", 0.5), 0.5);
    ::setenv("TW_TEST_KNOB", "12", 1);
    EXPECT_EQ(envUnsigned("TW_TEST_KNOB", 9, kU32Max), 12u);
    EXPECT_DOUBLE_EQ(envDouble("TW_TEST_KNOB", 0.5), 12.0);
    ::unsetenv("TW_TEST_KNOB");
}

TEST(EnvKnobDeath, MalformedIsFatal)
{
    EXPECT_EXIT(decimalKnob("TW_TEST_KNOB", "16k", kU32Max),
                ::testing::ExitedWithCode(1),
                "TW_TEST_KNOB: '16k' is not a plain decimal");
    EXPECT_EXIT(decimalKnob("TW_TEST_KNOB", "", kU32Max),
                ::testing::ExitedWithCode(1), "TW_TEST_KNOB: ''");
}

/** defaultThreads() under one TW_THREADS value, in a death-test
 *  child. */
void
threadsWith(const char *value)
{
    ::setenv("TW_THREADS", value, 1);
    setDefaultThreads(0);
    defaultThreads();
    std::exit(0);
}

TEST(EnvKnobDeath, ThreadsRejectsMalformed)
{
    // A typo must not silently mean every core.
    EXPECT_EXIT(threadsWith("abc"), ::testing::ExitedWithCode(1),
                "TW_THREADS: 'abc'");
    EXPECT_EXIT(threadsWith("4x"), ::testing::ExitedWithCode(1),
                "TW_THREADS: '4x'");
    EXPECT_EXIT(threadsWith(""), ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace tw
