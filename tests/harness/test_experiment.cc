/**
 * @file
 * The experiment-layer contract: the registry's names are unique
 * and stable, every registered spec grid survives specio
 * canonicalization bit-for-bit (a spec that doesn't round-trip
 * would silently break result caching and the served experiment
 * path), job enumeration is deterministic, and the engine's rows
 * match direct Runner calls exactly.
 *
 * This binary links tw_experiments, so the full bench registry —
 * not just the built-in smoke entry — is under test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "base/random.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/specio.hh"

namespace tw
{
namespace
{

/** Every experiment the registry must ship. Additions are fine
 *  (append here); renames and removals are breaking — scripts and
 *  twctl --experiment call these by name. */
const char *kExpectedNames[] = {
    "breakeven",   "dcache_writepolicy", "dilation_correction",
    "families",    "fig2",               "fig3",
    "fig4",        "fragmentation",      "hybrid",
    "kessler",     "multilevel",         "onepass",
    "pagecolor",   "resample",           "smoke",
    "split",       "table10",            "table11",
    "table12",     "table4",             "table5",
    "table6",      "table7",             "table8",
    "table9",
};

TEST(ExperimentRegistry, NamesAreUniqueSortedAndStable)
{
    std::vector<std::string> names =
        ExperimentRegistry::instance().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
    for (const char *expected : kExpectedNames)
        EXPECT_TRUE(unique.count(expected))
            << "registry lost experiment '" << expected << "'";
}

TEST(ExperimentRegistry, EntriesAreComplete)
{
    auto &registry = ExperimentRegistry::instance();
    EXPECT_EQ(registry.find("nosuch"), nullptr);
    for (const std::string &name : registry.names()) {
        const ExperimentDef *def = registry.find(name);
        ASSERT_NE(def, nullptr);
        EXPECT_EQ(def->name, name);
        EXPECT_FALSE(def->artifact.empty()) << name;
        EXPECT_FALSE(def->description.empty()) << name;
        EXPECT_TRUE(def->grid) << name;
        EXPECT_TRUE(def->present) << name;
    }
}

TEST(ExperimentRegistry, UnitIdsUniquePerExperiment)
{
    auto &registry = ExperimentRegistry::instance();
    for (const std::string &name : registry.names()) {
        const ExperimentDef *def = registry.find(name);
        std::set<std::string> ids;
        for (const ExperimentUnit &unit : def->grid(2000)) {
            EXPECT_FALSE(unit.id.empty()) << name;
            EXPECT_TRUE(ids.insert(unit.id).second)
                << name << " repeats unit id '" << unit.id << "'";
            EXPECT_FALSE(unit.plan.seeds.empty())
                << name << "/" << unit.id;
        }
    }
}

TEST(ExperimentRegistry, GridSpecsSurviveCanonicalizationBitForBit)
{
    auto &registry = ExperimentRegistry::instance();
    for (const std::string &name : registry.names()) {
        const ExperimentDef *def = registry.find(name);
        for (const ExperimentUnit &unit : def->grid(2000)) {
            std::string first = formatRunSpec(unit.spec);
            RunSpec reparsed;
            std::string err;
            ASSERT_TRUE(parseRunSpec(first, reparsed, err))
                << name << "/" << unit.id << ": " << err;
            EXPECT_EQ(formatRunSpec(reparsed), first)
                << name << "/" << unit.id
                << " does not round-trip canonically";
        }
    }
}

TEST(Experiment, DerivedSeedsMatchRunTrialsDerivation)
{
    std::vector<std::uint64_t> seeds = derivedTrialSeeds(5, 0xabcd);
    ASSERT_EQ(seeds.size(), 5u);
    for (unsigned t = 0; t < 5; ++t)
        EXPECT_EQ(seeds[t], mixSeed(0xabcd, 1000 + t)) << t;
}

TEST(Experiment, ScaleResolutionHonorsOverrideAndFixedScales)
{
    ExperimentDef def;
    def.scaleDiv = 400;
    EXPECT_EQ(experimentScale(def, 123), 123u);
    def.envScale = false;
    def.scaleDiv = 1;
    EXPECT_EQ(experimentScale(def, 0), 1u);
    EXPECT_EQ(experimentScale(def, 7), 7u);
}

TEST(Experiment, JobEnumerationIsDenseAndGridOrdered)
{
    const ExperimentDef *def =
        ExperimentRegistry::instance().find("smoke");
    ASSERT_NE(def, nullptr);
    std::vector<ExperimentJob> jobs = experimentJobs(*def, 4000);
    ASSERT_EQ(jobs.size(), 4u); // two sizes x two trials

    std::vector<ExperimentUnit> units = def->grid(4000);
    std::size_t i = 0;
    for (const ExperimentUnit &unit : units) {
        for (std::size_t t = 0; t < unit.plan.seeds.size(); ++t) {
            ASSERT_LT(i, jobs.size());
            EXPECT_EQ(jobs[i].seq, i);
            EXPECT_EQ(jobs[i].unit, unit.id);
            EXPECT_EQ(jobs[i].trial, t);
            EXPECT_EQ(jobs[i].seed, unit.plan.seeds[t]);
            EXPECT_EQ(jobs[i].withSlowdown, unit.plan.withSlowdown);
            EXPECT_EQ(formatRunSpec(jobs[i].spec),
                      formatRunSpec(unit.spec));
            ++i;
        }
    }
    EXPECT_EQ(i, jobs.size());
}

/** Collects the engine's row stream for comparison. */
class CollectSink : public StatSink
{
  public:
    struct Row
    {
        std::string experiment, unit;
        std::uint64_t seq, trial, seed;
        RunOutcome outcome;
    };
    std::vector<Row> rows;

    void
    row(const ExperimentRow &r) override
    {
        rows.push_back(
            {r.experiment, r.unit, r.seq, r.trial, r.seed,
             *r.outcome});
    }
};

TEST(Experiment, EngineRowsMatchDirectRunnerCalls)
{
    const ExperimentDef *def =
        ExperimentRegistry::instance().find("smoke");
    ASSERT_NE(def, nullptr);

    CollectSink sink;
    RunExperimentOptions opts;
    opts.scaleDiv = 4000;
    runExperiment(*def, sink, opts);

    std::vector<ExperimentJob> jobs = experimentJobs(*def, 4000);
    ASSERT_EQ(sink.rows.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CollectSink::Row &row = sink.rows[i];
        const ExperimentJob &job = jobs[i];
        EXPECT_EQ(row.experiment, def->name);
        EXPECT_EQ(row.unit, job.unit);
        EXPECT_EQ(row.seq, job.seq);
        EXPECT_EQ(row.trial, job.trial);
        EXPECT_EQ(row.seed, job.seed);
        RunOutcome direct =
            job.withSlowdown
                ? Runner::runWithSlowdown(job.spec, job.seed)
                : Runner::runOne(job.spec, job.seed);
        EXPECT_EQ(formatRunOutcome(row.outcome),
                  formatRunOutcome(direct))
            << "row " << i;
    }
}

TEST(Experiment, RowJsonExcludesHostTiming)
{
    RunOutcome out;
    out.hostSeconds = 123.0;
    Json row = experimentRowJson("e", "u", 0, 0, 1, out);
    EXPECT_EQ(row.find("host_s"), nullptr);
    EXPECT_EQ(row.find("hostSeconds"), nullptr);
    ASSERT_NE(row.find("outcome"), nullptr);
    EXPECT_EQ(row.find("outcome")->find("hostSeconds"), nullptr);
}

/** An experiment's grid under one environment setting, in a
 *  death-test child (the knob is read when the grid is built). */
void
gridWith(const char *experiment, const char *name, const char *value)
{
    ::setenv(name, value, 1);
    ExperimentRegistry::instance().find(experiment)->grid(2000);
    std::exit(0);
}

void
fig2GridWith(const char *name, const char *value)
{
    gridWith("fig2", name, value);
}

TEST(ExperimentEnvDeath, CiTargetRejectsMalformed)
{
    // "0.1x" must not pass as 0.1, nor "x" as off.
    EXPECT_EXIT(gridWith("table7", "TW_CI_TARGET", "0.1x"),
                ::testing::ExitedWithCode(1), "TW_CI_TARGET: '0.1x'");
    EXPECT_EXIT(gridWith("table7", "TW_CI_TARGET", "x"),
                ::testing::ExitedWithCode(1), "TW_CI_TARGET: 'x'");
    EXPECT_EXIT(gridWith("table7", "TW_CI_TARGET", "0.10"),
                ::testing::ExitedWithCode(0), "");
}

TEST(Fig2EnvDeath, OnlyKbRejectsTrailingJunk)
{
    // atoi used to read "1k" as the 1K row.
    EXPECT_EXIT(fig2GridWith("TW_FIG2_ONLY_KB", "1k"),
                ::testing::ExitedWithCode(1), "TW_FIG2_ONLY_KB: '1k'");
    EXPECT_EXIT(fig2GridWith("TW_FIG2_ONLY_KB", " 4"),
                ::testing::ExitedWithCode(1), "TW_FIG2_ONLY_KB");
}

TEST(Fig2EnvDeath, OnlyKbRejectsSizesMissingFromFigure2)
{
    // "3" used to print an empty table and exit 0.
    EXPECT_EXIT(fig2GridWith("TW_FIG2_ONLY_KB", "3"),
                ::testing::ExitedWithCode(1), "TW_FIG2_ONLY_KB: '3'");
    EXPECT_EXIT(fig2GridWith("TW_FIG2_ONLY_KB", "2048"),
                ::testing::ExitedWithCode(1), "TW_FIG2_ONLY_KB");
}

TEST(Fig2EnvDeath, DcacheAcceptsOnlyZeroOrOne)
{
    // "false" used to count as on.
    EXPECT_EXIT(fig2GridWith("TW_FIG2_DCACHE", "false"),
                ::testing::ExitedWithCode(1), "TW_FIG2_DCACHE: 'false'");
    EXPECT_EXIT(fig2GridWith("TW_FIG2_DCACHE", "2"),
                ::testing::ExitedWithCode(1), "TW_FIG2_DCACHE");
}

TEST(Fig2Env, StrictKnobsKeepTheirValidValues)
{
    const ExperimentDef *fig2 = ExperimentRegistry::instance().find("fig2");
    ::setenv("TW_FIG2_ONLY_KB", "16", 1);
    ::setenv("TW_FIG2_DCACHE", "1", 1);
    std::vector<std::string> ids;
    for (const ExperimentUnit &unit : fig2->grid(2000))
        ids.push_back(unit.id);
    EXPECT_EQ(ids, (std::vector<std::string>{"tw/16K", "twd/16K",
                                             "c2k/16K"}));
    ::setenv("TW_FIG2_ONLY_KB", "", 1);
    ::setenv("TW_FIG2_DCACHE", "0", 1);
    EXPECT_EQ(fig2->grid(2000).size(), 22u);
    ::unsetenv("TW_FIG2_ONLY_KB");
    ::unsetenv("TW_FIG2_DCACHE");
}

} // namespace
} // namespace tw
