/**
 * @file
 * Tests of the representative-interval sampling subsystem: t
 * critical values, feature extraction, deterministic k-means, and —
 * the load-bearing contract — that replaying EVERY interval with
 * exact boundary-state reconstruction reproduces a full Tapeworm
 * run's miss count bit-for-bit on an eligible spec.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "obs/metrics.hh"
#include "sample/features.hh"
#include "sample/interval_sim.hh"
#include "sample/kmeans.hh"
#include "sample/profile.hh"
#include "sample/stopping.hh"

namespace tw
{
namespace
{

/** An interval-sampling-eligible spec: single-task workload,
 *  direct-mapped virtual I-cache, user-only scope, DMA off. */
RunSpec
eligibleSpec(unsigned scale = 2000, std::uint64_t cache_bytes = 4096)
{
    RunSpec spec;
    spec.workload = makeWorkload("espresso", scale);
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(cache_bytes, 16, 1,
                                        Indexing::Virtual);
    spec.sys.scope = SimScope::userOnly();
    spec.sys.dmaFlushPeriod = 0;
    return spec;
}

/** The plan the runner would build for @p spec. */
std::shared_ptr<const SamplePlan>
planFor(const RunSpec &spec)
{
    const StreamParams &params = spec.workload.binaries[0];
    return getSamplePlan(params, mixSeed(params.seed, 0x5eed00),
                         spec.workload.userInstr(), spec.sample,
                         spec.tw.cache);
}

/** The Tapeworm config the runner would resolve for @p spec. */
TapewormConfig
resolvedTw(const RunSpec &spec, std::uint64_t trial_seed)
{
    TapewormConfig cfg = spec.tw;
    if (cfg.sampleSeed == 0)
        cfg.sampleSeed = mixSeed(trial_seed, 0x7e57);
    return cfg;
}

TEST(TCritical, KnownValues)
{
    EXPECT_NEAR(tCritical(1, 0.95), 12.706, 1e-3);
    EXPECT_NEAR(tCritical(4, 0.95), 2.776, 1e-3);
    EXPECT_NEAR(tCritical(9, 0.95), 2.262, 1e-3);
    EXPECT_NEAR(tCritical(29, 0.95), 2.045, 1e-3);
    EXPECT_NEAR(tCritical(120, 0.95), 1.980, 1e-3);
    EXPECT_NEAR(tCritical(4, 0.99), 4.604, 1e-3);
    EXPECT_NEAR(tCritical(4, 0.90), 2.132, 1e-3);
    // Interpolated values stay between their bracketing rows.
    double t35 = tCritical(35, 0.95);
    EXPECT_LT(t35, tCritical(30, 0.95));
    EXPECT_GT(t35, tCritical(40, 0.95));
    // Large df approaches the normal limit from above.
    EXPECT_GT(tCritical(10000, 0.95), 1.960);
    EXPECT_LT(tCritical(10000, 0.95), 1.965);
}

TEST(TCritical, HalfWidthClosedForm)
{
    RunningStat rs;
    for (double v : {10.0, 12.0, 14.0, 16.0})
        rs.push(v);
    // mean 13, sample variance 20/3, se = sqrt(20/3/4), t(3)=3.182.
    double se = std::sqrt((20.0 / 3.0) / 4.0);
    EXPECT_NEAR(tHalfWidth(rs, 0.95), 3.182 * se, 1e-3);
    EXPECT_NEAR(tRelHalfWidth(rs, 0.95), 3.182 * se / 13.0, 1e-4);
    RunningStat one;
    one.push(5.0);
    EXPECT_EQ(tHalfWidth(one), 0.0);
}

TEST(Features, NormalizedAndDeterministic)
{
    FeatureAccum a(0x400000, 16);
    FeatureAccum b(0x400000, 16);
    for (unsigned i = 0; i < 1000; ++i) {
        Addr va = 0x400000 + (i * 36) % 8192;
        a.add(va);
        b.add(va);
    }
    std::vector<double> va = a.finish();
    std::vector<double> vb = b.finish();
    EXPECT_EQ(va, vb);
    EXPECT_EQ(va.size(), kFeatureDims);
    double sumPages = 0, sumStrides = 0;
    for (unsigned i = 0; i < kFeaturePageBins; ++i)
        sumPages += va[i];
    for (unsigned i = kFeaturePageBins; i < kFeatureDims; ++i)
        sumStrides += va[i];
    EXPECT_NEAR(sumPages + sumStrides, 1.0, 1e-12);
    EXPECT_GT(sumPages, 0.0);
    EXPECT_GT(sumStrides, 0.0);
    // finish() resets the histogram.
    a.add(0x400000);
    std::vector<double> vc = a.finish();
    EXPECT_NE(vc, va);
}

TEST(KMeans, DeterministicAndRecoversClusters)
{
    // Three well-separated blobs on axes 0/1/2.
    std::vector<std::vector<double>> pts;
    for (unsigned blob = 0; blob < 3; ++blob) {
        for (unsigned i = 0; i < 20; ++i) {
            std::vector<double> p(4, 0.0);
            p[blob] = 10.0 + 0.01 * i;
            pts.push_back(p);
        }
    }
    KMeansResult a = kmeansCluster(pts, 3, 42);
    KMeansResult b = kmeansCluster(pts, 3, 42);
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.centroids.size(), 3u);
    // All members of one blob land together, blobs apart.
    for (unsigned blob = 0; blob < 3; ++blob) {
        unsigned first = a.assignment[blob * 20];
        for (unsigned i = 0; i < 20; ++i)
            EXPECT_EQ(a.assignment[blob * 20 + i], first);
    }
    EXPECT_NE(a.assignment[0], a.assignment[20]);
    EXPECT_NE(a.assignment[20], a.assignment[40]);

    // k clamps to the point count; empty input yields empty result.
    EXPECT_EQ(kmeansCluster({{1.0}, {2.0}}, 5, 1).centroids.size(),
              2u);
    EXPECT_TRUE(kmeansCluster({}, 3, 1).assignment.empty());
}

TEST(Plan, ExhaustiveWhenFewIntervals)
{
    RunSpec spec = eligibleSpec(8000);
    spec.sample = SampleConfig{};
    spec.sample.enabled = true;
    spec.sample.intervalRefs = 16384;
    auto plan = planFor(spec);
    ASSERT_GT(plan->numIntervals, 0u);
    if (plan->numIntervals
        <= spec.sample.clusters * spec.sample.perCluster + 2) {
        EXPECT_EQ(plan->reps.size(), plan->numIntervals);
        ASSERT_EQ(plan->strata.size(), 1u);
        EXPECT_TRUE(plan->strata[0].exact);
    }
    // Interval lengths tile the budget exactly.
    std::uint64_t covered = 0;
    for (const SampleRep &r : plan->reps) {
        if (plan->reps.size() == plan->numIntervals)
            covered += r.countRefs;
        EXPECT_TRUE(r.stream != nullptr);
    }
    if (plan->reps.size() == plan->numIntervals) {
        EXPECT_EQ(covered, plan->budget);
    }
}

/**
 * The load-bearing contract: replaying ALL intervals with exact
 * boundary reconstruction equals the full machine run's estimate
 * exactly. This validates the whole replication chain — stream
 * seeding and budget, set selection, trap-driven insert semantics,
 * and the direct-mapped last-touch coupling.
 */
TEST(IntervalSim, ExhaustiveMatchesFullRun)
{
    RunSpec spec = eligibleSpec(2000);
    RunOutcome full = Runner::runOne(spec, 7);
    ASSERT_GT(full.estMisses, 0.0);

    spec.sample.enabled = true;
    // Force exhaustive interval coverage.
    spec.sample.clusters = 1u << 16;
    spec.sample.perCluster = 1;
    auto plan = planFor(spec);
    ASSERT_EQ(plan->reps.size(), plan->numIntervals);

    IntervalEstimate est = estimateByIntervals(
        *plan, resolvedTw(spec, 7), spec.sample);
    EXPECT_DOUBLE_EQ(est.estMisses, full.estMisses);
    EXPECT_EQ(est.ciHalfWidth, 0.0);
}

TEST(IntervalSim, ExhaustiveMatchesFullRunUnderSetSampling)
{
    RunSpec spec = eligibleSpec(2000);
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = 8;
    RunOutcome full = Runner::runOne(spec, 11);
    ASSERT_GT(full.estMisses, 0.0);

    spec.sample.enabled = true;
    spec.sample.clusters = 1u << 16;
    spec.sample.perCluster = 1;
    auto plan = planFor(spec);
    ASSERT_EQ(plan->reps.size(), plan->numIntervals);

    IntervalEstimate est = estimateByIntervals(
        *plan, resolvedTw(spec, 11), spec.sample);
    EXPECT_DOUBLE_EQ(est.estMisses, full.estMisses);
    EXPECT_DOUBLE_EQ(est.rawMisses, full.rawMisses);
}

TEST(IntervalSim, SampledEstimateWithinToleranceAndCheap)
{
    RunSpec spec = eligibleSpec(400);
    RunOutcome full = Runner::runOne(spec, 7);
    ASSERT_GT(full.estMisses, 0.0);

    spec.sample.enabled = true; // default clusters/perCluster
    spec.sample.intervalRefs = 4096; // ~310 intervals at this scale
    auto plan = planFor(spec);
    ASSERT_LT(plan->reps.size(), plan->numIntervals);

    IntervalEstimate est = estimateByIntervals(
        *plan, resolvedTw(spec, 7), spec.sample);
    double err = std::fabs(est.estMisses - full.estMisses);
    EXPECT_LE(err, 0.02 * full.estMisses)
        << "est " << est.estMisses << " vs full " << full.estMisses;
    EXPECT_GE(est.refsTotal,
              10 * (est.refsSimulated ? est.refsSimulated : 1));
}

/**
 * Under set sampling the replayed counts are genuinely noisy (the
 * ratio estimator has real residuals), so this exercises the
 * variance path: the full run must land inside a small multiple of
 * the reported confidence interval.
 */
TEST(IntervalSim, SetSampledEstimateWithinCi)
{
    RunSpec spec = eligibleSpec(400);
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = 8;
    RunOutcome full = Runner::runOne(spec, 7);
    ASSERT_GT(full.estMisses, 0.0);

    spec.sample.enabled = true;
    spec.sample.intervalRefs = 4096;
    auto plan = planFor(spec);
    ASSERT_LT(plan->reps.size(), plan->numIntervals);

    IntervalEstimate est = estimateByIntervals(
        *plan, resolvedTw(spec, 7), spec.sample);
    double err = std::fabs(est.estMisses - full.estMisses);
    EXPECT_GT(est.ciHalfWidth, 0.0);
    EXPECT_LE(err, std::max(3.0 * est.ciHalfWidth,
                            0.05 * full.estMisses))
        << "est " << est.estMisses << " ± " << est.ciHalfWidth
        << " vs full " << full.estMisses;
}

TEST(IntervalSim, WarmupModeApproximates)
{
    RunSpec spec = eligibleSpec(400);
    RunOutcome full = Runner::runOne(spec, 7);

    spec.sample.enabled = true;
    spec.sample.intervalRefs = 4096;
    spec.sample.warmupRefs = 4096; // classic warmup, no exact state
    auto plan = planFor(spec);
    for (const SampleRep &r : plan->reps) {
        EXPECT_TRUE(r.boundary.empty());
        if (r.interval > 0) {
            EXPECT_EQ(r.warmupRefs, 4096u);
        }
    }
    IntervalEstimate est = estimateByIntervals(
        *plan, resolvedTw(spec, 7), spec.sample);
    // Classic warmup starts each representative from an EMPTY cache,
    // so short warmups overcount heavily (every line resident at the
    // boundary re-misses). The mode exists as the SimPoint-style
    // baseline the exact boundary reconstruction is measured
    // against; assert only that it runs and lands within an order of
    // magnitude, biased high.
    EXPECT_GT(est.estMisses, 0.5 * full.estMisses);
    EXPECT_LT(est.estMisses, 10.0 * full.estMisses);
}

TEST(IntervalSim, CiRelFloorApplies)
{
    RunSpec spec = eligibleSpec(2000);
    spec.sample.enabled = true;
    spec.sample.clusters = 1u << 16; // exhaustive => zero CI
    spec.sample.perCluster = 1;
    spec.sample.ciRelFloor = 0.01;
    auto plan = planFor(spec);
    IntervalEstimate est = estimateByIntervals(
        *plan, resolvedTw(spec, 7), spec.sample);
    EXPECT_DOUBLE_EQ(est.ciHalfWidth, 0.01 * est.estMisses);
}

TEST(Runner, SampledRunPopulatesOutcome)
{
    RunSpec spec = eligibleSpec(400);
    ASSERT_EQ(Runner::sampleEligible(spec),
              SampleFallback::Disabled); // not enabled yet
    spec.sample.enabled = true;
    spec.sample.intervalRefs = 4096;
    ASSERT_EQ(Runner::sampleEligible(spec), SampleFallback::None);

    RunOutcome out = Runner::runOne(spec, 7);
    EXPECT_TRUE(out.sample.used);
    EXPECT_GT(out.sample.intervalsTotal,
              out.sample.intervalsSimulated);
    EXPECT_GE(out.sample.refsTotal, 10 * out.sample.refsSimulated);
    EXPECT_GT(out.estMisses, 0.0);
    EXPECT_EQ(out.run.instr[static_cast<unsigned>(Component::User)],
              spec.workload.userInstr());
    EXPECT_GT(out.missRatioUser(), 0.0);

    // Pure function of spec + seed.
    RunOutcome again = Runner::runOne(spec, 7);
    EXPECT_DOUBLE_EQ(out.estMisses, again.estMisses);
    EXPECT_EQ(out.sample.refsSimulated, again.sample.refsSimulated);
}

TEST(Runner, SampledRunSurvivesPlanEviction)
{
    RunSpec spec = eligibleSpec(400);
    spec.sample.enabled = true;
    RunOutcome a = Runner::runOne(spec, 9);
    clearSamplePlanCache();
    RunOutcome b = Runner::runOne(spec, 9);
    EXPECT_DOUBLE_EQ(a.estMisses, b.estMisses);
    EXPECT_EQ(a.sample.ciHalfWidth, b.sample.ciHalfWidth);
}

TEST(Runner, SampleFallsBackWhenIneligible)
{
    // DMA flushes are invisible to the stream replay: full run.
    RunSpec spec = eligibleSpec(2000);
    spec.sample.enabled = true;
    spec.sys.dmaFlushPeriod = 32;
    EXPECT_EQ(Runner::sampleEligible(spec), SampleFallback::Dma);
    RunOutcome out = Runner::runOne(spec, 7);
    EXPECT_FALSE(out.sample.used);
    EXPECT_GT(out.run.cycles, 0u); // the machine actually ran

    // Associativity breaks the last-touch coupling.
    RunSpec assoc = eligibleSpec(2000);
    assoc.sample.enabled = true;
    assoc.tw.cache = CacheConfig::icache(4096, 16, 2,
                                         Indexing::Virtual);
    EXPECT_EQ(Runner::sampleEligible(assoc), SampleFallback::Geometry);

    // Full-system scope traces more than the user stream.
    RunSpec scoped = eligibleSpec(2000);
    scoped.sample.enabled = true;
    scoped.sys.scope = SimScope::all();
    EXPECT_EQ(Runner::sampleEligible(scoped), SampleFallback::Scope);
}

/**
 * Run @p spec, which must fall back for @p reason, and check the
 * fallback's bookkeeping: a full run, the total and per-reason
 * counters each bumped once per run, and at most one stderr notice
 * naming the reason per process (the first run may print it unless
 * an earlier test already did; later runs never do).
 */
void
expectFallback(const RunSpec &spec, SampleFallback reason,
               const std::string &name)
{
    ASSERT_EQ(Runner::sampleEligible(spec), reason);
    obs::Counter total = obs::registry().counter("engine.sample.fallbacks");
    obs::Counter mine =
        obs::registry().counter("engine.sample.fallbacks." + name);
    const std::string notice = "full run (" + name + "):";
    auto notices = [&](const std::string &err) {
        unsigned n = 0;
        for (std::size_t at = err.find(notice); at != std::string::npos;
             at = err.find(notice, at + 1))
            ++n;
        return n;
    };
    std::uint64_t total0 = total.value(), mine0 = mine.value();
    testing::internal::CaptureStderr();
    RunOutcome out = Runner::runOne(spec, 7);
    EXPECT_LE(notices(testing::internal::GetCapturedStderr()), 1u);
    EXPECT_FALSE(out.sample.used);
    EXPECT_GT(out.run.cycles, 0u); // the machine actually ran
    testing::internal::CaptureStderr();
    Runner::runOne(spec, 8);
    EXPECT_EQ(notices(testing::internal::GetCapturedStderr()), 0u);
    EXPECT_EQ(total.value() - total0, 2u);
    EXPECT_EQ(mine.value() - mine0, 2u);
    // Only real reasons have counters.
    for (const obs::CounterValue &c : obs::registry().counterValues()) {
        EXPECT_NE(c.name, "engine.sample.fallbacks.none");
        EXPECT_NE(c.name, "engine.sample.fallbacks.disabled");
    }
}

RunSpec
sampledSpec()
{
    RunSpec spec = eligibleSpec(4000);
    spec.sample.enabled = true;
    spec.sample.intervalRefs = 4096;
    return spec;
}

TEST(SampleFallbackReason, NotSampledIsNotAFallback)
{
    RunSpec spec = sampledSpec();
    EXPECT_EQ(Runner::sampleEligible(spec), SampleFallback::None);
    spec.sim = SimKind::None;
    EXPECT_EQ(Runner::sampleEligible(spec), SampleFallback::Disabled);
    spec = sampledSpec();
    spec.sample.enabled = false;
    EXPECT_EQ(Runner::sampleEligible(spec), SampleFallback::Disabled);
}

TEST(SampleFallbackReason, Kind)
{
    RunSpec spec = sampledSpec();
    spec.tw.kind = SimCacheKind::Unified;
    expectFallback(spec, SampleFallback::Kind, "kind");
}

TEST(SampleFallbackReason, Dram)
{
    RunSpec spec = sampledSpec();
    spec.tw.costBackend.kind = CostBackendKind::Dram;
    expectFallback(spec, SampleFallback::Dram, "dram");
}

TEST(SampleFallbackReason, Geometry)
{
    RunSpec spec = sampledSpec();
    spec.tw.cache.indexing = Indexing::Physical;
    expectFallback(spec, SampleFallback::Geometry, "geometry");
}

TEST(SampleFallbackReason, Scope)
{
    RunSpec spec = sampledSpec();
    spec.sys.scope = SimScope::all();
    expectFallback(spec, SampleFallback::Scope, "scope");
}

TEST(SampleFallbackReason, Tasks)
{
    RunSpec spec = sampledSpec();
    spec.workload = makeWorkload("sdet", 4000);
    expectFallback(spec, SampleFallback::Tasks, "tasks");
}

TEST(SampleFallbackReason, Dma)
{
    RunSpec spec = sampledSpec();
    spec.sys.dmaFlushPeriod = 32;
    expectFallback(spec, SampleFallback::Dma, "dma");
}

TEST(SampleFallbackReason, Short)
{
    RunSpec spec = sampledSpec();
    spec.sample.intervalRefs = spec.workload.userInstr() / 4 + 1;
    expectFallback(spec, SampleFallback::Short, "short");
}

TEST(Config, EnvRoundTripAndDefaults)
{
    SampleConfig def;
    EXPECT_FALSE(def.enabled);
    EXPECT_EQ(def.intervalRefs, 16384u);
    EXPECT_EQ(def.clusters, 8u);
    EXPECT_EQ(def.perCluster, 2u);
    SampleConfig other = def;
    EXPECT_TRUE(def == other);
    other.enabled = true;
    EXPECT_FALSE(def == other);
}

/** Sets a sampling knob for the rest of a test, then clears every
 *  sampling knob. */
class ScopedSampleEnv
{
  public:
    ScopedSampleEnv(const char *name, const char *value)
    {
        ::setenv("TW_SAMPLE", "1", 1);
        ::setenv(name, value, 1);
    }

    ~ScopedSampleEnv()
    {
        for (const char *k :
             {"TW_SAMPLE", "TW_SAMPLE_INTERVAL", "TW_SAMPLE_WARMUP",
              "TW_SAMPLE_CLUSTERS", "TW_SAMPLE_PER_CLUSTER"})
            ::unsetenv(k);
    }
};

TEST(Config, EnvValidValuesKeepTheirMeaning)
{
    {
        ScopedSampleEnv env("TW_SAMPLE_INTERVAL", "1024");
        EXPECT_EQ(sampleConfigFromEnv().intervalRefs, 1024u);
    }
    {
        // 0 still means the default.
        ScopedSampleEnv env("TW_SAMPLE_INTERVAL", "0");
        EXPECT_EQ(sampleConfigFromEnv().intervalRefs, 16384u);
    }
    {
        ScopedSampleEnv env("TW_SAMPLE_CLUSTERS", "4294967295");
        EXPECT_EQ(sampleConfigFromEnv().clusters, 4294967295u);
    }
}

/** sampleConfigFromEnv() under one knob value, in a death-test
 *  child. */
void
sampleConfigWith(const char *name, const char *value)
{
    ScopedSampleEnv env(name, value);
    sampleConfigFromEnv();
    std::exit(0);
}

TEST(ConfigDeath, EnvRejectsMalformedKnobs)
{
    // A numeric prefix must not pass: "16k" read as 16 means about
    // 1000x the work. Nor may "garbage" or "" quietly mean the
    // default.
    EXPECT_EXIT(sampleConfigWith("TW_SAMPLE_INTERVAL", "16k"),
                ::testing::ExitedWithCode(1),
                "TW_SAMPLE_INTERVAL: '16k'");
    EXPECT_EXIT(sampleConfigWith("TW_SAMPLE_INTERVAL", "garbage"),
                ::testing::ExitedWithCode(1),
                "TW_SAMPLE_INTERVAL: 'garbage'");
    EXPECT_EXIT(sampleConfigWith("TW_SAMPLE_WARMUP", ""),
                ::testing::ExitedWithCode(1), "TW_SAMPLE_WARMUP: ''");
    // One past an unsigned knob's range must not wrap to 0.
    EXPECT_EXIT(sampleConfigWith("TW_SAMPLE_CLUSTERS", "4294967296"),
                ::testing::ExitedWithCode(1),
                "TW_SAMPLE_CLUSTERS: '4294967296'");
    EXPECT_EXIT(sampleConfigWith("TW_SAMPLE_PER_CLUSTER", "-1"),
                ::testing::ExitedWithCode(1), "TW_SAMPLE_PER_CLUSTER");
}

} // namespace
} // namespace tw
