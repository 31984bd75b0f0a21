/**
 * @file
 * Canonical (de)serialization of RunSpec/RunOutcome — the wire
 * format AND the cache fingerprint share these bytes, so the
 * round-trip must be exact and the parser strict (field drift shows
 * up here, not as silent cache-key truncation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/specio.hh"
#include "workload/spec.hh"

namespace tw
{
namespace
{

RunSpec
sampleSpec()
{
    RunSpec spec;
    spec.workload = makeWorkload("mpeg_play", 4000);
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache =
        CacheConfig::icache(1024, 16, 1, Indexing::Virtual);
    spec.sys.scope = SimScope::userOnly();
    return spec;
}

/** A spec with every enum off its default and odd values in the
 *  corners the canonical form must carry exactly. */
RunSpec
contortedSpec()
{
    RunSpec spec = sampleSpec();
    spec.sim = SimKind::TapewormTlbSim;
    spec.sys.allocPolicy = AllocPolicy::Coloring;
    spec.sys.clockJitter = !spec.sys.clockJitter;
    spec.sys.trialSeed =
        std::numeric_limits<std::uint64_t>::max();
    spec.tw.cache.policy = ReplPolicy::Random;
    spec.tw.cache.assoc = 4;
    spec.tw.cache.tagIncludesTask = true;
    spec.tw.kind = SimCacheKind::Unified;
    spec.tw.hostWrite = HostWritePolicy::NoAllocateOnWrite;
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = 16;
    spec.tw.sampleMode = SampleMode::ConstantBits;
    spec.tw.compensateMasked = false;
    spec.tw.cost.cyclesPerInstr = 1.3333333333333333;
    spec.tlb.tlb = CacheConfig::tlb(64, 0, 4096);
    spec.tlb.filterFrames = 12345678901234567ull;
    spec.c2k.sampleDenom = 7;
    spec.pixie.genCycles = 99;
    spec.traceTarget = kFirstUserTaskId + 3;
    spec.workload.binaries.at(0).ladder.at(0).meanReps = 0.1;
    return spec;
}

TEST(SpecIo, SpecRoundTripsToIdenticalBytes)
{
    for (const RunSpec &spec : {sampleSpec(), contortedSpec()}) {
        std::string text = formatRunSpec(spec);
        RunSpec back;
        std::string err;
        ASSERT_TRUE(parseRunSpec(text, back, err)) << err;
        EXPECT_EQ(formatRunSpec(back), text);
    }
}

TEST(SpecIo, ParsedSpecIsSemanticallyEqual)
{
    RunSpec spec = contortedSpec();
    RunSpec back;
    std::string err;
    ASSERT_TRUE(parseRunSpec(formatRunSpec(spec), back, err)) << err;
    EXPECT_EQ(back.sim, spec.sim);
    EXPECT_EQ(back.sys.trialSeed, spec.sys.trialSeed);
    EXPECT_EQ(back.sys.allocPolicy, spec.sys.allocPolicy);
    EXPECT_EQ(back.tw.cache.sizeBytes, spec.tw.cache.sizeBytes);
    EXPECT_EQ(back.tw.cache.policy, spec.tw.cache.policy);
    EXPECT_EQ(back.tw.kind, spec.tw.kind);
    EXPECT_EQ(back.tw.hostWrite, spec.tw.hostWrite);
    EXPECT_EQ(back.tw.sampleMode, spec.tw.sampleMode);
    EXPECT_EQ(back.tw.sampleDenom, spec.tw.sampleDenom);
    EXPECT_DOUBLE_EQ(back.tw.cost.cyclesPerInstr,
                     spec.tw.cost.cyclesPerInstr);
    EXPECT_EQ(back.tlb.filterFrames, spec.tlb.filterFrames);
    EXPECT_EQ(back.c2k.sampleDenom, spec.c2k.sampleDenom);
    EXPECT_EQ(back.pixie.genCycles, spec.pixie.genCycles);
    EXPECT_EQ(back.traceTarget, spec.traceTarget);
    EXPECT_EQ(back.workload.name, spec.workload.name);
    EXPECT_EQ(back.workload.binaries.size(),
              spec.workload.binaries.size());
    EXPECT_DOUBLE_EQ(
        back.workload.binaries.at(0).ladder.at(0).meanReps,
        spec.workload.binaries.at(0).ladder.at(0).meanReps);
}

TEST(SpecIo, OutcomeRoundTripsToIdenticalBytes)
{
    RunOutcome o = Runner::runWithSlowdown(sampleSpec(), 7);
    ASSERT_GT(o.hostSeconds, 0.0);
    std::string text = formatRunOutcome(o);
    RunOutcome back;
    std::string err;
    ASSERT_TRUE(parseRunOutcome(text, back, err)) << err;
    EXPECT_EQ(formatRunOutcome(back), text);
    EXPECT_EQ(back.run.cycles, o.run.cycles);
    EXPECT_EQ(back.run.instr, o.run.instr);
    EXPECT_EQ(back.estMisses, o.estMisses);
    EXPECT_EQ(back.missesByComp, o.missesByComp);
    EXPECT_EQ(back.slowdown, o.slowdown);
    EXPECT_EQ(back.normalCycles, o.normalCycles);
}

TEST(SpecIo, HostSecondsExcludedFromCanonicalText)
{
    // Two computations of the same row differ only in wall-clock;
    // their canonical text must not.
    RunOutcome a = Runner::runOne(sampleSpec(), 3);
    RunOutcome b = a;
    b.hostSeconds = a.hostSeconds + 1000.0;
    EXPECT_EQ(formatRunOutcome(a), formatRunOutcome(b));
    // And parsing zeroes it rather than inventing a value.
    RunOutcome back;
    std::string err;
    ASSERT_TRUE(parseRunOutcome(formatRunOutcome(a), back, err));
    EXPECT_EQ(back.hostSeconds, 0.0);
}

TEST(SpecIo, StrictParseRejectsMissingField)
{
    Json j = specToJson(sampleSpec());
    // Rebuild the object without "sim".
    Json pruned = Json::object();
    for (const auto &[k, v] : j.members())
        if (k != "sim")
            pruned.set(k, v);
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(pruned, out, err));
    EXPECT_NE(err.find("sim"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsUnknownField)
{
    Json j = specToJson(sampleSpec());
    j.set("futureKnob", Json::number(1u));
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(j, out, err));
    EXPECT_NE(err.find("futureKnob"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsNestedDrift)
{
    Json j = specToJson(sampleSpec());
    // An unknown member three levels down must also be fatal.
    Json tw = *j.find("tw");
    Json cache = *tw.find("cache");
    cache.set("victimBuffer", Json::boolean(true));
    tw.set("cache", std::move(cache));
    j.set("tw", std::move(tw));
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(j, out, err));
    EXPECT_NE(err.find("victimBuffer"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsWrongVersion)
{
    Json j = specToJson(sampleSpec());
    j.set("v", Json::number(2u));
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(j, out, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsBadEnumValue)
{
    Json j = specToJson(sampleSpec());
    j.set("sim", Json::str("quantum"));
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(j, out, err));
    EXPECT_NE(err.find("quantum"), std::string::npos) << err;
}

TEST(SpecIo, CacheKeyNormalizesTrialSeed)
{
    RunSpec a = sampleSpec();
    RunSpec b = sampleSpec();
    a.sys.trialSeed = 0;
    b.sys.trialSeed = 999; // Runner overwrites this per trial
    EXPECT_EQ(cacheKey(a, 7, true), cacheKey(b, 7, true));
}

TEST(SpecIo, CacheKeySeparatesSeedAndSlowdown)
{
    RunSpec spec = sampleSpec();
    EXPECT_NE(cacheKey(spec, 7, true), cacheKey(spec, 8, true));
    EXPECT_NE(cacheKey(spec, 7, true), cacheKey(spec, 7, false));
    RunSpec other = sampleSpec();
    other.tw.cache.sizeBytes *= 2;
    EXPECT_NE(cacheKey(spec, 7, true), cacheKey(other, 7, true));
}

TEST(SpecIo, FingerprintIsStableAndDiscriminating)
{
    RunSpec spec = sampleSpec();
    std::uint64_t f1 = specFingerprint(spec, 7, true);
    EXPECT_EQ(specFingerprint(spec, 7, true), f1);
    EXPECT_NE(specFingerprint(spec, 8, true), f1);
    // Known-answer for the underlying hash (standard FNV-1a
    // vectors).
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(SpecIo, SimKindNamesRoundTrip)
{
    for (SimKind k : {SimKind::None, SimKind::Tapeworm,
                      SimKind::TapewormTlbSim, SimKind::TraceDriven,
                      SimKind::Oracle}) {
        SimKind back{};
        ASSERT_TRUE(simKindFromName(simKindName(k), back));
        EXPECT_EQ(back, k);
    }
    SimKind out{};
    EXPECT_FALSE(simKindFromName("bogus", out));
}

TEST(SpecIo, SampleBlockOmittedWhenDisabled)
{
    // A spec with sampling off must serialize byte-identically to
    // the pre-sampling schema — same wire text, same cache keys.
    RunSpec spec = sampleSpec();
    EXPECT_FALSE(spec.sample.enabled);
    std::string text = formatRunSpec(spec);
    EXPECT_EQ(text.find("\"sample\""), std::string::npos);

    RunSpec enabled = spec;
    enabled.sample.enabled = true;
    EXPECT_NE(formatRunSpec(enabled).find("\"sample\""),
              std::string::npos);
    EXPECT_NE(cacheKey(spec, 7, false), cacheKey(enabled, 7, false));
}

TEST(SpecIo, SampleBlockRoundTrips)
{
    RunSpec spec = sampleSpec();
    spec.sample.enabled = true;
    spec.sample.intervalRefs = 4096;
    spec.sample.warmupRefs = 128;
    spec.sample.clusters = 12;
    spec.sample.perCluster = 3;
    spec.sample.seed = 0xabcdef;
    spec.sample.ciRelFloor = 0.015;
    std::string text = formatRunSpec(spec);
    RunSpec back;
    std::string err;
    ASSERT_TRUE(parseRunSpec(text, back, err)) << err;
    EXPECT_EQ(formatRunSpec(back), text);
    EXPECT_TRUE(back.sample == spec.sample);

    // A parser fed pre-sampling text resets to the default config.
    RunSpec reuse = back;
    ASSERT_TRUE(
        parseRunSpec(formatRunSpec(sampleSpec()), reuse, err))
        << err;
    EXPECT_TRUE(reuse.sample == SampleConfig{});
}

TEST(SpecIo, SampleOutcomeRoundTripsAndOmits)
{
    RunOutcome o = Runner::runOne(sampleSpec(), 3);
    EXPECT_FALSE(o.sample.used);
    EXPECT_EQ(formatRunOutcome(o).find("\"sample\""),
              std::string::npos);

    o.sample.used = true;
    o.sample.intervalsTotal = 61;
    o.sample.intervalsSimulated = 18;
    o.sample.refsSimulated = 294912;
    o.sample.refsTotal = 1000000;
    o.sample.ciHalfWidth = 12.5;
    std::string text = formatRunOutcome(o);
    RunOutcome back;
    std::string err;
    ASSERT_TRUE(parseRunOutcome(text, back, err)) << err;
    EXPECT_EQ(formatRunOutcome(back), text);
    EXPECT_TRUE(back.sample.used);
    EXPECT_EQ(back.sample.intervalsTotal, o.sample.intervalsTotal);
    EXPECT_EQ(back.sample.refsSimulated, o.sample.refsSimulated);
    EXPECT_DOUBLE_EQ(back.sample.ciHalfWidth, o.sample.ciHalfWidth);
}

TEST(SpecIo, CostBackendOmittedWhenDefault)
{
    // A table5 spec must serialize byte-identically to the
    // pre-backend schema — same wire text, same cache keys, same
    // shard fingerprints — and an explicitly-default config is
    // indistinguishable from never touching the field.
    RunSpec spec = sampleSpec();
    EXPECT_TRUE(spec.tw.costBackend.isDefault());
    std::string text = formatRunSpec(spec);
    EXPECT_EQ(text.find("\"costBackend\""), std::string::npos);

    RunSpec explicitDefault = spec;
    explicitDefault.tw.costBackend = CostBackendConfig{};
    explicitDefault.tw.costBackend.dram.tRCD = 99; // unused off-dram
    EXPECT_EQ(formatRunSpec(explicitDefault), text);
    EXPECT_EQ(cacheKey(explicitDefault, 7, false),
              cacheKey(spec, 7, false));
}

TEST(SpecIo, CostBackendRoundTripsEveryKind)
{
    for (CostBackendKind kind :
         {CostBackendKind::Table5, CostBackendKind::Ideal,
          CostBackendKind::Dram}) {
        SCOPED_TRACE(costBackendKindName(kind));
        RunSpec spec = sampleSpec();
        spec.tw.costBackend.kind = kind;
        spec.tlb.costBackend.kind = kind;
        if (kind == CostBackendKind::Dram) {
            spec.tw.costBackend.dram.tRCD = 15;
            spec.tw.costBackend.dram.banksPerRank = 16;
            spec.tw.costBackend.dram.tREFI = 0;
        }
        std::string text = formatRunSpec(spec);
        RunSpec back;
        std::string err;
        ASSERT_TRUE(parseRunSpec(text, back, err)) << err;
        EXPECT_EQ(formatRunSpec(back), text);
        EXPECT_TRUE(back.tw.costBackend == spec.tw.costBackend);
        EXPECT_TRUE(back.tlb.costBackend == spec.tlb.costBackend);
        if (kind != CostBackendKind::Table5) {
            EXPECT_NE(cacheKey(spec, 7, false),
                      cacheKey(sampleSpec(), 7, false));
        }
    }

    // A parser fed pre-backend text resets to the default.
    RunSpec reuse;
    std::string err;
    reuse.tw.costBackend.kind = CostBackendKind::Dram;
    ASSERT_TRUE(
        parseRunSpec(formatRunSpec(sampleSpec()), reuse, err))
        << err;
    EXPECT_TRUE(reuse.tw.costBackend.isDefault());
}

TEST(SpecIo, CostBackendStrictParse)
{
    RunSpec spec = sampleSpec();
    spec.tw.costBackend.kind = CostBackendKind::Dram;
    std::string text = formatRunSpec(spec);

    // Unknown backend names and unknown dram keys are rejected, not
    // ignored — field drift must not silently change pricing.
    std::string bad = text;
    bad.replace(bad.find("\"dram\""), 6, "\"dra2\"");
    RunSpec back;
    std::string err;
    EXPECT_FALSE(parseRunSpec(bad, back, err));

    bad = text;
    bad.replace(bad.find("\"tRCD\""), 6, "\"tRCX\"");
    EXPECT_FALSE(parseRunSpec(bad, back, err));
}

TEST(SpecIo, U64SeedSurvivesWireExactly)
{
    RunSpec spec = sampleSpec();
    spec.tw.sampleSeed = std::numeric_limits<std::uint64_t>::max();
    RunSpec back;
    std::string err;
    ASSERT_TRUE(parseRunSpec(formatRunSpec(spec), back, err)) << err;
    EXPECT_EQ(back.tw.sampleSeed, spec.tw.sampleSeed);
}

// ---------------------------------------------------------------
// Strict numbers. Spec text arrives from outside the program (the
// twserved/router wire), so an integer field takes a plain decimal
// that fits the field and nothing else: never a wrapped, truncated
// or clamped value.
// ---------------------------------------------------------------

/** The canonical text of fig2's first unit with the first
 *  `"key":value` member's value replaced by @p lexeme. */
std::string
fig2SpecWith(const std::string &key, const std::string &lexeme)
{
    ::unsetenv("TW_FIG2_ONLY_KB");
    ::unsetenv("TW_FIG2_DCACHE");
    const ExperimentDef *fig2 =
        ExperimentRegistry::instance().find("fig2");
    std::string text = formatRunSpec(fig2->grid(2000).at(0).spec);
    std::string member = "\"" + key + "\":";
    std::size_t at = text.find(member);
    EXPECT_NE(at, std::string::npos) << key;
    at += member.size();
    std::size_t end = text.find_first_of(",}", at);
    return text.replace(at, end - at, lexeme);
}

/** Parse must fail and name the field. */
void
expectRejected(const std::string &key, const std::string &lexeme)
{
    RunSpec out;
    std::string err;
    EXPECT_FALSE(parseRunSpec(fig2SpecWith(key, lexeme), out, err))
        << key << "=" << lexeme << " was accepted";
    EXPECT_NE(err.find(key), std::string::npos) << err;
}

TEST(SpecIo, StrictParseAcceptsTheUnchangedFig2Spec)
{
    RunSpec out;
    std::string err;
    EXPECT_TRUE(parseRunSpec(fig2SpecWith("lineBytes", "16"), out, err))
        << err;
    EXPECT_EQ(out.tw.cache.lineBytes, 16u);
}

TEST(SpecIo, StrictParseRejectsU32Overflow)
{
    expectRejected("lineBytes", "4294967312");
}

TEST(SpecIo, StrictParseRejectsNegativeUnsigned)
{
    expectRejected("lineBytes", "-16");
}

TEST(SpecIo, StrictParseRejectsFractionalInteger)
{
    expectRejected("lineBytes", "16.9");
}

TEST(SpecIo, StrictParseRejectsExponentInteger)
{
    expectRejected("assoc", "1e30");
    expectRejected("assoc", "1e0");
}

TEST(SpecIo, StrictParseRejectsU64Overflow)
{
    expectRejected("physMemBytes", "18446744073709551616");
}

TEST(SpecIo, StrictParseRejectsSignedFieldOutOfRange)
{
    expectRejected("traceTarget", "2147483648");
    expectRejected("traceTarget", "-2147483649");
    expectRejected("traceTarget", "3.5");
    RunSpec out;
    std::string err;
    ASSERT_TRUE(
        parseRunSpec(fig2SpecWith("traceTarget", "-7"), out, err))
        << err;
    EXPECT_EQ(out.traceTarget, -7);
}

TEST(SpecIo, StrictParseRejectsNonFiniteDouble)
{
    expectRejected("fracUser", "1e999");
}

TEST(SpecIo, StrictParseRejectsWrongKinds)
{
    expectRejected("lineBytes", "\"16\"");
    expectRejected("clockJitter", "1");
    expectRejected("fracUser", "true");
}

TEST(SpecIo, StrictParseRejectsMalformedArrayElement)
{
    RunOutcome o;
    Json j = outcomeToJson(o);
    Json run = *j.find("run");
    Json instr = Json::array();
    for (std::size_t i = 0; i < o.run.instr.size(); ++i)
        instr.push(i == 1 ? Json::number(1.5) : Json::number(1u));
    run.set("instr", std::move(instr));
    j.set("run", std::move(run));
    RunOutcome back;
    std::string err;
    EXPECT_FALSE(outcomeFromJson(j, back, err));
    EXPECT_NE(err.find("run.instr[1]"), std::string::npos) << err;
}

// ---------------------------------------------------------------
// Golden bytes. Every test above checks that specio agrees with
// itself; these pin the canonical bytes against a checked-in table
// (specio_golden.inc), so a rewrite that reorders, renames or drops a
// field fails here even when it round-trips. Those bytes are the
// result-cache key and the shard owner of every served row:
// regenerating the table is a cache-key break, never a routine fix.
// On a mismatch the test writes the table the current code would
// pin to ./specio_golden.inc.new (the test's working directory).
// ---------------------------------------------------------------

struct GoldenPin
{
    const char *group;
    const char *name;
    std::uint64_t hash;
};

const GoldenPin kGoldenPins[] = {
#include "specio_golden.inc"
};

struct Pin
{
    std::string group;
    std::string name;
    std::uint64_t hash;
};

/** A synthetic outcome with every field off zero (the canonical
 *  form, not a simulator, is under test). */
RunOutcome
goldenOutcome(bool sampled)
{
    RunOutcome o;
    o.run.cycles = 123456789012ull;
    for (std::size_t i = 0; i < o.run.instr.size(); ++i)
        o.run.instr[i] = 1000003ull * (i + 1);
    o.run.ticks = 77;
    o.run.dataRefs = 4242;
    o.run.syscalls = 9;
    o.run.forks = 2;
    o.run.faults = 31;
    o.run.dmaFlushes = 5;
    o.run.tasksCreated = 4;
    o.rawMisses = 1.0 / 3.0;
    o.estMisses = 16.0 / 3.0;
    for (std::size_t i = 0; i < o.missesByComp.size(); ++i)
        o.missesByComp[i] = 0.125 * static_cast<double>(i) + 0.1;
    o.maskedTrapRefs = 6;
    o.lostMaskedMisses = 1;
    o.hostSeconds = 2.5; // excluded from the canonical text
    o.slowdown = 1.0e-7 + 3.0;
    o.normalCycles = std::numeric_limits<std::uint64_t>::max();
    if (sampled) {
        o.sample.used = true;
        o.sample.intervalsTotal = 61;
        o.sample.intervalsSimulated = 18;
        o.sample.refsSimulated = 294912;
        o.sample.refsTotal = 1000000;
        o.sample.ciHalfWidth = 12.5;
    }
    return o;
}

std::vector<Pin>
currentPins()
{
    // Grids read these knobs; the pins are of the default grids.
    for (const char *knob : {"TW_COST_BACKEND", "TW_FIG2_ONLY_KB",
                             "TW_FIG2_DCACHE", "TW_SAMPLE"})
        ::unsetenv(knob);

    std::vector<Pin> pins;
    auto &registry = ExperimentRegistry::instance();
    for (const std::string &name : registry.names()) {
        for (const ExperimentUnit &unit :
             registry.find(name)->grid(2000))
            pins.push_back(
                {name, unit.id, fnv1a64(formatRunSpec(unit.spec))});
    }

    RunSpec dram = sampleSpec();
    dram.tw.costBackend.kind = CostBackendKind::Dram;
    dram.tw.costBackend.dram.tRCD = 15;
    dram.tw.costBackend.dram.banksPerRank = 16;
    dram.tw.costBackend.dram.tREFI = 0;
    dram.tlb.costBackend.kind = CostBackendKind::Dram;
    dram.tlb.costBackend.dram.walkReads = 3;

    RunSpec sampled = sampleSpec();
    sampled.sample.enabled = true;
    sampled.sample.intervalRefs = 4096;
    sampled.sample.warmupRefs = 128;
    sampled.sample.clusters = 12;
    sampled.sample.perCluster = 3;
    sampled.sample.seed = 0xabcdef;
    sampled.sample.ciRelFloor = 0.015;

    pins.push_back(
        {"@spec", "contorted", fnv1a64(formatRunSpec(contortedSpec()))});
    pins.push_back({"@spec", "dram", fnv1a64(formatRunSpec(dram))});
    pins.push_back({"@spec", "sampled", fnv1a64(formatRunSpec(sampled))});
    pins.push_back({"@outcome", "unsampled",
                    fnv1a64(formatRunOutcome(goldenOutcome(false)))});
    pins.push_back({"@outcome", "sampled",
                    fnv1a64(formatRunOutcome(goldenOutcome(true)))});

    // Trial fingerprints (the shard owner of a served row): the
    // corner specs and the first unit of every experiment, at two
    // seeds and both slowdown flags.
    std::vector<std::pair<std::string, RunSpec>> fpSpecs = {
        {"plain", sampleSpec()},
        {"contorted", contortedSpec()},
        {"dram", dram},
        {"sampled", sampled}};
    for (const std::string &name : registry.names()) {
        std::vector<ExperimentUnit> grid = registry.find(name)->grid(2000);
        if (!grid.empty())
            fpSpecs.emplace_back(name + "/" + grid.front().id,
                                 grid.front().spec);
    }
    for (const auto &[name, spec] : fpSpecs)
        for (std::uint64_t seed : {1ull, 0x9e3779b97f4a7c15ull})
            for (bool slowdown : {false, true})
                pins.push_back(
                    {"@fingerprint",
                     csprintf("%s#%llu#%d", name.c_str(),
                              static_cast<unsigned long long>(seed),
                              slowdown ? 1 : 0),
                     specFingerprint(spec, seed, slowdown)});
    return pins;
}

void
writeGoldenTable(const std::vector<Pin> &pins, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "// fnv1a64 of canonical specio bytes, written by "
                    "SpecIoGolden in\n// test_specio.cc. Replacing "
                    "this table breaks every cache key.\n");
    for (const Pin &p : pins)
        std::fprintf(f, "{\"%s\", \"%s\", 0x%016llxull},\n",
                     p.group.c_str(), p.name.c_str(),
                     static_cast<unsigned long long>(p.hash));
    std::fclose(f);
}

TEST(SpecIoGolden, CanonicalBytesMatchThePinnedTable)
{
    std::vector<Pin> pins = currentPins();
    std::size_t pinned = sizeof(kGoldenPins) / sizeof(kGoldenPins[0]);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < std::max(pins.size(), pinned); ++i) {
        if (i < pins.size() && i < pinned
            && pins[i].group == kGoldenPins[i].group
            && pins[i].name == kGoldenPins[i].name
            && pins[i].hash == kGoldenPins[i].hash)
            continue;
        if (++mismatches <= 5) {
            ADD_FAILURE()
                << "pin " << i << ": "
                << (i < pins.size()
                        ? csprintf("%s/%s %016llx", pins[i].group.c_str(),
                                   pins[i].name.c_str(),
                                   static_cast<unsigned long long>(
                                       pins[i].hash))
                        : std::string("(none)"))
                << " vs pinned "
                << (i < pinned
                        ? csprintf("%s/%s %016llx", kGoldenPins[i].group,
                                   kGoldenPins[i].name,
                                   static_cast<unsigned long long>(
                                       kGoldenPins[i].hash))
                        : std::string("(none)"));
        }
    }
    EXPECT_EQ(mismatches, 0u)
        << "canonical bytes changed for " << mismatches << " of "
        << pins.size() << " pins; the current table is in "
        << "./specio_golden.inc.new";
    EXPECT_GT(pins.size(), 100u);
    if (mismatches)
        writeGoldenTable(pins, "specio_golden.inc.new");
}

} // namespace
} // namespace tw
