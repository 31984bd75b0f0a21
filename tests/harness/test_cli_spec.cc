/**
 * @file
 * The sweep flags twsim and twctl share: a numeric value is a plain
 * decimal that fits its field and anything else is fatal at once,
 * and the flags build the spec of the hand-built sweep.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/cli_spec.hh"
#include "harness/specio.hh"

namespace tw
{
namespace
{

/** SweepFlags::take over the command line `tool flag value`. */
bool
takeFlag(SweepFlags &flags, const char *flag, const char *value)
{
    std::string f = flag, v = value;
    char tool[] = "tool";
    char *argv[] = {tool, f.data(), v.data()};
    int i = 1;
    bool taken = flags.take(3, argv, i);
    EXPECT_EQ(i, taken ? 2 : 1);
    return taken;
}

const char *kNumericFlags[] = {"--line",   "--assoc",  "--sample",
                               "--tlb-entries", "--trials", "--scale",
                               "--seed"};

void
expectEveryNumericFlagDies(const char *value)
{
    for (const char *flag : kNumericFlags) {
        EXPECT_DEATH(
            {
                SweepFlags flags;
                takeFlag(flags, flag, value);
            },
            "not a plain decimal")
            << flag << " " << value;
    }
}

TEST(SweepFlagsDeathTest, TrailingJunkIsFatal)
{
    expectEveryNumericFlagDies("16x");
}

TEST(SweepFlagsDeathTest, WordIsFatal)
{
    expectEveryNumericFlagDies("abc");
}

TEST(SweepFlagsDeathTest, NegativeIsFatal)
{
    expectEveryNumericFlagDies("-1");
}

TEST(SweepFlagsDeathTest, FractionIsFatal)
{
    expectEveryNumericFlagDies("1.5");
}

TEST(SweepFlagsDeathTest, EmptyIsFatal)
{
    expectEveryNumericFlagDies("");
}

TEST(SweepFlagsDeathTest, LeadingBlankIsFatal)
{
    expectEveryNumericFlagDies(" 4");
}

TEST(SweepFlagsDeathTest, OverflowIsFatal)
{
    expectEveryNumericFlagDies("18446744073709551616");
    EXPECT_DEATH(
        {
            SweepFlags flags;
            takeFlag(flags, "--line", "4294967312");
        },
        "not a plain decimal");
}

/** `tool --line` with no value after it. */
void
takeLineWithoutValue()
{
    SweepFlags flags;
    char tool[] = "tool";
    char line[] = "--line";
    char *argv[] = {tool, line};
    int i = 1;
    flags.take(2, argv, i);
}

TEST(SweepFlagsDeathTest, MissingValueIsFatal)
{
    EXPECT_DEATH(takeLineWithoutValue(), "--line needs a value");
}

TEST(SweepFlagsDeathTest, UnknownNamesAreFatal)
{
    for (const char *flag : {"--policy", "--sim", "--kind", "--scope"}) {
        EXPECT_DEATH(
            {
                SweepFlags flags;
                takeFlag(flags, flag, "bogus");
                flags.spec();
            },
            "bad .* 'bogus'")
            << flag;
    }
    EXPECT_DEATH(
        {
            SweepFlags flags;
            takeFlag(flags, "--indexing", "bogus");
        },
        "bad indexing 'bogus'");
}

TEST(SweepFlags, PlainDecimalsAreRead)
{
    SweepFlags flags;
    EXPECT_TRUE(takeFlag(flags, "--line", "32"));
    EXPECT_TRUE(takeFlag(flags, "--assoc", "4"));
    EXPECT_TRUE(takeFlag(flags, "--trials", "3"));
    EXPECT_TRUE(takeFlag(flags, "--seed", "18446744073709551615"));
    EXPECT_TRUE(takeFlag(flags, "--scale", "4000"));
    EXPECT_FALSE(takeFlag(flags, "--csv", "x"));
    EXPECT_EQ(flags.line, 32u);
    EXPECT_EQ(flags.assoc, 4u);
    EXPECT_EQ(flags.trials, 3u);
    EXPECT_EQ(flags.seed, 18446744073709551615ull);
    EXPECT_EQ(flags.scale, 4000u);
    EXPECT_TRUE(flags.scaleSet);
}

TEST(SweepFlags, SpecIsTheHandBuiltSweep)
{
    SweepFlags flags;
    takeFlag(flags, "--workload", "espresso");
    takeFlag(flags, "--scale", "4000");
    takeFlag(flags, "--cache", "8K");
    takeFlag(flags, "--assoc", "2");
    takeFlag(flags, "--policy", "lru");
    takeFlag(flags, "--sim", "trace");
    takeFlag(flags, "--kind", "unified");
    takeFlag(flags, "--scope", "user");
    takeFlag(flags, "--sample", "4");
    takeFlag(flags, "--cost-backend", "ideal");

    RunSpec want;
    want.workload = makeWorkload("espresso", 4000);
    want.tw.cache = CacheConfig::icache(8192, 16, 2, Indexing::Physical);
    want.tw.cache.policy = ReplPolicy::LRU;
    want.tw.kind = SimCacheKind::Unified;
    want.tw.costBackend.kind = CostBackendKind::Ideal;
    want.tlb.costBackend.kind = CostBackendKind::Ideal;
    want.sim = SimKind::TraceDriven;
    want.c2k.cache = want.tw.cache;
    want.c2k.cache.indexing = Indexing::Virtual;
    want.c2k.sampleDenom = 4;
    want.tw.sampleDenom = 4;
    want.sys.scope = SimScope::userOnly();
    EXPECT_EQ(formatRunSpec(flags.spec()), formatRunSpec(want));

    // Trap-driven simulation cannot do LRU above direct-mapped.
    takeFlag(flags, "--sim", "tapeworm");
    EXPECT_EQ(flags.spec().tw.cache.policy, ReplPolicy::FIFO);
}

} // namespace
} // namespace tw
