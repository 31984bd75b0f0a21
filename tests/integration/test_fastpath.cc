/**
 * @file The fast-path equivalence suite: the trap-filtered,
 * event-horizon-batched execution path must be BIT-IDENTICAL to the
 * legacy per-step path (selected by TW_SLOW_PATH) — same RunResult,
 * same simulator statistics, for every client kind, scope and
 * sampling configuration. A simulated hit that got cheaper must not
 * have gotten different.
 */

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "base/simd.hh"
#include "core/tapeworm.hh"
#include "core/tapeworm_tlb.hh"
#include "harness/mux_client.hh"
#include "harness/oracle.hh"
#include "harness/runner.hh"
#include "obs/metrics.hh"
#include "os/system.hh"
#include "trace/cache2000.hh"
#include "trace/hybrid.hh"
#include "trace/pixie.hh"
#include "trace/trace_buffer.hh"

namespace tw
{
namespace
{

/** Select the execution path for Systems constructed in scope. */
class ScopedSlowPath
{
  public:
    explicit ScopedSlowPath(bool slow)
    {
        if (slow)
            ::setenv("TW_SLOW_PATH", "1", 1);
        else
            ::unsetenv("TW_SLOW_PATH");
    }

    ~ScopedSlowPath() { ::unsetenv("TW_SLOW_PATH"); }
};

void
expectSameRun(const RunResult &fast, const RunResult &slow)
{
    EXPECT_EQ(fast.cycles, slow.cycles);
    for (unsigned c = 0; c < kNumComponents; ++c)
        EXPECT_EQ(fast.instr[c], slow.instr[c])
            << componentName(static_cast<Component>(c));
    EXPECT_EQ(fast.ticks, slow.ticks);
    EXPECT_EQ(fast.dataRefs, slow.dataRefs);
    EXPECT_EQ(fast.syscalls, slow.syscalls);
    EXPECT_EQ(fast.forks, slow.forks);
    EXPECT_EQ(fast.faults, slow.faults);
    EXPECT_EQ(fast.dmaFlushes, slow.dmaFlushes);
    EXPECT_EQ(fast.tasksCreated, slow.tasksCreated);
}

void
expectSameStats(const TapewormStats &fast, const TapewormStats &slow)
{
    for (unsigned c = 0; c < kNumComponents; ++c)
        EXPECT_EQ(fast.misses[c], slow.misses[c])
            << componentName(static_cast<Component>(c));
    for (unsigned k = 0; k < 3; ++k)
        EXPECT_EQ(fast.missesByKind[k], slow.missesByKind[k]) << k;
    EXPECT_EQ(fast.silentTrapClears, slow.silentTrapClears);
    EXPECT_EQ(fast.maskedTrapRefs, slow.maskedTrapRefs);
    EXPECT_EQ(fast.lostMaskedMisses, slow.lostMaskedMisses);
    EXPECT_EQ(fast.trapsSet, slow.trapsSet);
    EXPECT_EQ(fast.trapsCleared, slow.trapsCleared);
    EXPECT_EQ(fast.pagesRegistered, slow.pagesRegistered);
    EXPECT_EQ(fast.pagesRemoved, slow.pagesRemoved);
    EXPECT_EQ(fast.sharedRegistrations, slow.sharedRegistrations);
    EXPECT_EQ(fast.dmaFlushedLines, slow.dmaFlushedLines);
}

void
expectSameTlbStats(const TapewormTlbStats &fast,
                   const TapewormTlbStats &slow)
{
    for (unsigned c = 0; c < kNumComponents; ++c)
        EXPECT_EQ(fast.misses[c], slow.misses[c])
            << componentName(static_cast<Component>(c));
    EXPECT_EQ(fast.maskedTrapRefs, slow.maskedTrapRefs);
    EXPECT_EQ(fast.lostMaskedMisses, slow.lostMaskedMisses);
    EXPECT_EQ(fast.pagesRegistered, slow.pagesRegistered);
    EXPECT_EQ(fast.pagesRemoved, slow.pagesRemoved);
}

struct CacheRun
{
    RunResult run;
    TapewormStats stats;
};

/** Replicates Runner's Tapeworm attachment but keeps the full
 *  statistics block for comparison. */
CacheRun
runCache(const RunSpec &spec, std::uint64_t seed, bool slow)
{
    ScopedSlowPath sp(slow);
    SystemConfig sys = spec.sys;
    sys.trialSeed = seed;
    System system(sys, spec.workload);
    TapewormConfig cfg = spec.tw;
    if (cfg.sampleSeed == 0)
        cfg.sampleSeed = mixSeed(seed, 0x7e57);
    Tapeworm tapeworm(system.physMem(), cfg);
    system.setClient(&tapeworm);
    CacheRun out;
    out.run = system.run();
    out.stats = tapeworm.stats();
    EXPECT_TRUE(tapeworm.checkInvariants());
    return out;
}

void
expectCachePathsAgree(const RunSpec &spec, std::uint64_t seed)
{
    CacheRun fast = runCache(spec, seed, false);
    CacheRun slow = runCache(spec, seed, true);
    expectSameRun(fast.run, slow.run);
    expectSameStats(fast.stats, slow.stats);
}

RunSpec
baseSpec(const char *workload = "mpeg_play", unsigned scale = 4000)
{
    RunSpec spec;
    spec.workload = makeWorkload(workload, scale);
    spec.tw.cache = CacheConfig::icache(4096);
    return spec;
}

TEST(FastPath, BitIdenticalAcrossScopes)
{
    for (SimScope scope :
         {SimScope::all(), SimScope::userOnly(),
          SimScope::kernelOnly(), SimScope::none()}) {
        RunSpec spec = baseSpec();
        spec.sys.scope = scope;
        expectCachePathsAgree(spec, 17);
    }
}

TEST(FastPath, BitIdenticalLargeCache)
{
    // Miss ratio well under 1%: the configuration the fast path is
    // for — nearly every reference takes the filtered skip.
    RunSpec spec = baseSpec();
    spec.sys.scope = SimScope::all();
    spec.tw.cache =
        CacheConfig::icache(1024 * 1024, 16, 1, Indexing::Virtual);
    expectCachePathsAgree(spec, 23);
}

TEST(FastPath, BitIdenticalWithSampling)
{
    RunSpec spec = baseSpec();
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = 8;
    spec.tw.sampleSeed = 1234;
    expectCachePathsAgree(spec, 5);

    spec.tw.sampleMode = SampleMode::ConstantBits;
    expectCachePathsAgree(spec, 5);
}

TEST(FastPath, BitIdenticalDataCacheNoAllocateOnWrite)
{
    // The store-to-trapped-granule path CLEARS a trap as a side
    // effect — the filter must deliver it (bit set means deliver).
    RunSpec spec = baseSpec();
    spec.tw.kind = SimCacheKind::Data;
    spec.tw.hostWrite = HostWritePolicy::NoAllocateOnWrite;
    expectCachePathsAgree(spec, 11);
}

TEST(FastPath, BitIdenticalDataCacheMatrix)
{
    // Data traps delivered mid-chunk: the chunked loop rewinds to the
    // trap's owning step and finishes that step's remaining data refs
    // in exact order, each of which may fault or trap again. Rates
    // above 1000 per mille give steps more than one data ref, and
    // storeEvery shifts which of them are stores.
    for (SimCacheKind kind : {SimCacheKind::Data, SimCacheKind::Unified})
    for (HostWritePolicy write : {HostWritePolicy::AllocateOnWrite,
                                  HostWritePolicy::NoAllocateOnWrite})
    for (double per1k : {350.0, 1500.0, 2600.0})
    for (unsigned store_every : {1u, 2u, 3u})
    for (std::uint64_t kb : {1u, 4u, 64u})
    for (std::uint64_t seed : {41u, 42u}) {
        SCOPED_TRACE(testing::Message()
                     << simCacheKindName(kind) << " noalloc="
                     << (write == HostWritePolicy::NoAllocateOnWrite)
                     << " per1k=" << per1k << " storeEvery="
                     << store_every << " " << kb << "KB seed=" << seed);
        RunSpec spec = baseSpec("mpeg_play", 16000);
        spec.sys.scope = SimScope::all();
        spec.workload.dataRefsPer1k = per1k;
        spec.workload.storeEvery = store_every;
        spec.tw.kind = kind;
        spec.tw.hostWrite = write;
        spec.tw.cache = CacheConfig::icache(kb * 1024);
        expectCachePathsAgree(spec, seed);
    }
}

TEST(FastPath, BitIdenticalClearRunsOnTrappedPages)
{
    // A fetch page with trap bits is consumed in runs of clear-bit
    // fetches, each run stopping before the first set bit. Set
    // sampling leaves most granules of a trapped page clear, so runs
    // get long; physical indexing and small caches put trap bits on
    // most pages; all-activity scope, DMA flushes and a short tick
    // interval put first-touch fault charges, handler fetches and
    // flushes next to those runs. A run that crosses a fault charge
    // or swallows the trapped fetch shows up as a different run.
    for (unsigned denom : {8u, 2u, 1u})
    for (Indexing indexing : {Indexing::Physical, Indexing::Virtual})
    for (std::uint64_t kb : {1u, 4u, 16u})
    for (std::uint64_t seed : {3u, 19u}) {
        SCOPED_TRACE(testing::Message()
                     << "1/" << denom << " "
                     << (indexing == Indexing::Physical ? "phys"
                                                        : "virt")
                     << " " << kb << "KB seed=" << seed);
        RunSpec spec = baseSpec("sdet", 8000);
        spec.sys.scope = SimScope::all();
        spec.sys.dmaFlushPeriod = 4;
        spec.sys.clockInterval = kClockHz / 16384;
        spec.tw.cache = CacheConfig::icache(kb * 1024, 16, 1, indexing);
        spec.tw.sampleNum = 1;
        spec.tw.sampleDenom = denom;
        expectCachePathsAgree(spec, seed);
    }
}

TEST(FastPath, UnifiedCacheRunsChunkedLoop)
{
    // A trap filter that delivers data refs keeps its task on the
    // chunked loop: every ref of a unified Tapeworm run is counted
    // there, none in the observed loop.
    static obs::Counter observed =
        obs::registry().counter("engine.refs.observed");
    static obs::Counter chunked =
        obs::registry().counter("engine.refs.chunked");
    RunSpec spec = baseSpec();
    spec.sys.scope = SimScope::all();
    spec.tw.kind = SimCacheKind::Unified;
    Counter observed0 = observed.value(), chunked0 = chunked.value();
    CacheRun run = runCache(spec, 7, false);
    // Only the clock handler's fetches bypass runInner.
    Counter handler = run.run.ticks * spec.sys.tickHandlerInstr;
    EXPECT_GT(run.run.dataRefs, 0u);
    EXPECT_EQ(observed.value(), observed0);
    EXPECT_EQ(chunked.value() - chunked0,
              run.run.totalInstr() - handler + run.run.dataRefs);
}

TEST(FastPath, BitIdenticalUninstrumented)
{
    // No client at all: pure stream batching, micro-TLB and
    // event-horizon math against the legacy stepper.
    RunSpec spec = baseSpec();
    spec.sim = SimKind::None;
    RunOutcome fast, slow;
    {
        ScopedSlowPath sp(false);
        fast = Runner::runOne(spec, 29);
    }
    {
        ScopedSlowPath sp(true);
        slow = Runner::runOne(spec, 29);
    }
    expectSameRun(fast.run, slow.run);
}

struct TraceRun
{
    RunResult run;
    Cache2000Stats stats;
    std::vector<LineInfo> lines;
};

/** Replicates Runner's Pixie+Cache2000 attachment but keeps the
 *  comparator's full statistics and final contents. */
TraceRun
runTrace(const RunSpec &spec, std::uint64_t seed, bool slow)
{
    ScopedSlowPath sp(slow);
    SystemConfig sys = spec.sys;
    sys.trialSeed = seed;
    System system(sys, spec.workload);
    Cache2000Config cfg = spec.c2k;
    if (cfg.sampleSeed == 0)
        cfg.sampleSeed = mixSeed(seed, 0x7e57);
    Cache2000 c2k(cfg);
    PixieClient pixie(spec.traceTarget, &c2k, spec.pixie);
    system.setClient(&pixie);
    TraceRun out;
    out.run = system.run();
    out.stats = c2k.stats();
    out.lines = c2k.cache().validLines();
    return out;
}

void
expectSameLines(const std::vector<LineInfo> &fast,
                const std::vector<LineInfo> &slow)
{
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].tagLine, slow[i].tagLine) << i;
        EXPECT_EQ(fast[i].paLine, slow[i].paLine) << i;
        EXPECT_EQ(fast[i].tid, slow[i].tid) << i;
        EXPECT_EQ(fast[i].dirty, slow[i].dirty) << i;
    }
}

TEST(FastPath, BitIdenticalTraceDriven)
{
    // Trace clients publish no filter: the fast path must still
    // deliver every in-scope reference to them. Pixie's charge on
    // every fetch no longer ends the inner loop (it runs to the
    // clock tick), other tasks take the chunked loop, and Cache2000
    // answers same-line repeats from its memo — none of which may
    // change a cycle, a count or a resident line, for any geometry,
    // replacement policy, set sample or seed.
    struct Geometry
    {
        unsigned assoc;
        ReplPolicy policy;
        unsigned sampleDenom;
    };
    const Geometry kGeometries[] = {
        {1, ReplPolicy::LRU, 1},    {2, ReplPolicy::LRU, 1},
        {2, ReplPolicy::FIFO, 1},   {2, ReplPolicy::Random, 1},
        {4, ReplPolicy::LRU, 1},    {4, ReplPolicy::FIFO, 1},
        {4, ReplPolicy::Random, 1}, {2, ReplPolicy::LRU, 4},
    };
    auto check = [](const RunSpec &spec, std::uint64_t seed) {
        TraceRun fast = runTrace(spec, seed, false);
        TraceRun slow = runTrace(spec, seed, true);
        expectSameRun(fast.run, slow.run);
        EXPECT_EQ(fast.stats.refs, slow.stats.refs);
        EXPECT_EQ(fast.stats.filtered, slow.stats.filtered);
        EXPECT_EQ(fast.stats.hits, slow.stats.hits);
        EXPECT_EQ(fast.stats.misses, slow.stats.misses);
        EXPECT_EQ(fast.stats.cycles, slow.stats.cycles);
        expectSameLines(fast.lines, slow.lines);
    };
    for (const Geometry &g : kGeometries) {
        for (std::uint64_t seed : {13u, 29u, 41u}) {
            SCOPED_TRACE(csprintf("%u-way %s 1/%u seed %llu", g.assoc,
                                  replPolicyName(g.policy),
                                  g.sampleDenom,
                                  static_cast<unsigned long long>(
                                      seed)));
            RunSpec spec = baseSpec();
            spec.sim = SimKind::TraceDriven;
            spec.c2k.cache = CacheConfig::icache(4096, 16, g.assoc,
                                                 Indexing::Virtual);
            spec.c2k.cache.policy = g.policy;
            spec.c2k.sampleDenom = g.sampleDenom;
            check(spec, seed);
        }
    }

    // A one-cycle charge per fetch makes a step land exactly on the
    // tick cycle at a third of all tick crossings: the tick is due
    // at equality, so the loop must stop there too.
    RunSpec cheap = baseSpec();
    cheap.sim = SimKind::TraceDriven;
    cheap.c2k.cache = CacheConfig::icache(4096, 16, 1,
                                          Indexing::Virtual);
    cheap.pixie.genCycles = 0;
    cheap.c2k.hitCycles = 1;
    cheap.c2k.missExtraCycles = 0;
    for (std::uint64_t seed : {13u, 29u, 41u}) {
        SCOPED_TRACE(csprintf("one-cycle charge seed %llu",
                              static_cast<unsigned long long>(seed)));
        check(cheap, seed);
    }
}

TEST(FastPath, BitIdenticalHybrid)
{
    // The hybrid annotation is unfiltered and charges every target
    // fetch, like Pixie; ousterhout gives it 14 other user tasks to
    // run outside its observe scope.
    for (std::uint64_t seed : {7u, 37u}) {
        HybridConfig cfg;
        cfg.cache = CacheConfig::icache(2048, 16, 2, Indexing::Virtual);
        RunResult run[2];
        HybridStats stats[2];
        std::vector<LineInfo> lines[2];
        for (bool slow : {false, true}) {
            ScopedSlowPath sp(slow);
            SystemConfig sys;
            sys.trialSeed = seed;
            System system(sys, makeWorkload("ousterhout", 1000));
            HybridClient hybrid(kFirstUserTaskId, cfg);
            system.setClient(&hybrid);
            run[slow] = system.run();
            stats[slow] = hybrid.stats();
            lines[slow] = hybrid.cache().validLines();
        }
        expectSameRun(run[0], run[1]);
        EXPECT_EQ(stats[0].refs, stats[1].refs);
        EXPECT_EQ(stats[0].misses, stats[1].misses);
        EXPECT_EQ(stats[0].cycles, stats[1].cycles);
        expectSameLines(lines[0], lines[1]);
    }
}

TEST(FastPath, BitIdenticalTraceBuffer)
{
    // The kernel trace buffer observes every task's fetches (no data
    // references) and charges a whole drain on the fetch that fills
    // it: a small buffer puts many large charges mid-horizon. It
    // also sees the clock handler's fetches, so a tick taken one
    // step late would reorder its trace; a one-cycle append lands a
    // step exactly on the tick cycle often enough to show that.
    for (std::uint64_t seed : {7u, 37u}) {
        TraceBufferConfig cfg;
        cfg.cache = CacheConfig::icache(4096, 16, 1, Indexing::Virtual);
        cfg.bufferEntries = 512;
        cfg.writeCycles = 1;
        RunResult run[2];
        TraceBufferStats stats[2];
        for (bool slow : {false, true}) {
            ScopedSlowPath sp(slow);
            SystemConfig sys;
            sys.trialSeed = seed;
            System system(sys, makeWorkload("mpeg_play", 4000));
            TraceBufferClient client(cfg);
            system.setClient(&client);
            run[slow] = system.run();
            client.drain();
            stats[slow] = client.stats();
        }
        expectSameRun(run[0], run[1]);
        EXPECT_EQ(stats[0].refs, stats[1].refs);
        EXPECT_EQ(stats[0].drains, stats[1].drains);
        EXPECT_EQ(stats[0].cycles, stats[1].cycles);
        for (unsigned c = 0; c < kNumComponents; ++c)
            EXPECT_EQ(stats[0].misses[c], stats[1].misses[c])
                << componentName(static_cast<Component>(c));
    }
}

/** An unfiltered client that charges a cycle per fetch (and now and
 *  then a "miss") and folds every delivered reference, with the
 *  machine's cycle count at the call, into an order-sensitive hash. */
class RecordingClient : public SimClient
{
  public:
    Cycles
    onRef(const Task &task, Addr va, Addr pa, bool intr_masked,
          AccessKind kind) override
    {
        for (std::uint64_t v :
             {static_cast<std::uint64_t>(task.tid), va, pa,
              static_cast<std::uint64_t>(intr_masked),
              static_cast<std::uint64_t>(kind)})
            hash_ = mixSeed(hash_, v);
        // The clock handler's base cycles are charged in bulk after
        // its loop (SimClient::bindClock), so only other tasks'
        // calls promise the exact count.
        if (task.tid != kKernelTid)
            hash_ = mixSeed(hash_, *now_);
        ++calls_;
        if (kind != AccessKind::Fetch)
            return 0;
        return va % 97 == 0 ? 50 : 1;
    }

    void bindClock(const Cycles *now) override { now_ = now; }

    std::uint64_t hash() const { return hash_; }
    Counter calls() const { return calls_; }

  private:
    const Cycles *now_ = nullptr;
    std::uint64_t hash_ = 0;
    Counter calls_ = 0;
};

TEST(FastPath, ObservedLoopKeepsLegacyOrderAndClock)
{
    // The observed loop's contract, seen from the client: every
    // reference arrives in legacy order with the exact cycle count
    // at the call. With many tasks and a one-cycle charge, a step
    // often lands exactly on the tick cycle; taking the tick one
    // step late would move the clock handler's fetches (and the
    // preemption after it) in the sequence.
    for (std::uint64_t seed : {3u, 11u}) {
        std::uint64_t hash[2];
        Counter calls[2];
        RunResult run[2];
        for (bool slow : {false, true}) {
            ScopedSlowPath sp(slow);
            SystemConfig sys;
            sys.trialSeed = seed;
            System system(sys, makeWorkload("ousterhout", 4000));
            RecordingClient client;
            system.setClient(&client);
            run[slow] = system.run();
            hash[slow] = client.hash();
            calls[slow] = client.calls();
        }
        expectSameRun(run[0], run[1]);
        EXPECT_EQ(calls[0], calls[1]) << seed;
        EXPECT_EQ(hash[0], hash[1]) << seed;
    }
}

/** Forwards to a client but hides its observe scope, so the machine
 *  treats it as observing everything (the dispatch before scopes). */
class UnscopedClient : public SimClient
{
  public:
    explicit UnscopedClient(SimClient *inner) : inner_(inner) {}

    Cycles
    onRef(const Task &task, Addr va, Addr pa, bool intr_masked,
          AccessKind kind) override
    {
        return inner_->onRef(task, va, pa, intr_masked, kind);
    }

  private:
    SimClient *inner_;
};

struct ScopeRun
{
    RunResult run;
    Counter traced = 0;
    Counter observed = 0; //!< engine.refs.observed during the run
    Counter chunked = 0;  //!< engine.refs.chunked during the run
};

ScopeRun
runPixieScoped(bool scoped)
{
    static obs::Counter observed =
        obs::registry().counter("engine.refs.observed");
    static obs::Counter chunked =
        obs::registry().counter("engine.refs.chunked");
    SystemConfig sys;
    sys.trialSeed = 3;
    System system(sys, makeWorkload("ousterhout", 1000));
    Cache2000Config cfg;
    cfg.cache = CacheConfig::icache(4096, 16, 1, Indexing::Virtual);
    Cache2000 c2k(cfg);
    PixieClient pixie(kFirstUserTaskId, &c2k);
    UnscopedClient unscoped(&pixie);
    system.setClient(scoped ? static_cast<SimClient *>(&pixie)
                            : &unscoped);
    Counter observed0 = observed.value(), chunked0 = chunked.value();
    ScopeRun out;
    out.run = system.run();
    out.traced = pixie.traced();
    out.observed = observed.value() - observed0;
    out.chunked = chunked.value() - chunked0;
    return out;
}

TEST(FastPath, ObserveScopeMovesOtherTasksToChunkedLoop)
{
    // Pixie's scope is its target's fetches. Kernel, server and the
    // other user tasks' references must leave the observed loop for
    // the chunked one, without changing the run.
    ScopeRun scoped = runPixieScoped(true);
    ScopeRun all = runPixieScoped(false);
    expectSameRun(scoped.run, all.run);
    EXPECT_EQ(scoped.traced, all.traced);

    // Everything runs observed without a scope.
    EXPECT_EQ(all.chunked, 0u);
    EXPECT_GT(all.observed, 0u);

    // With it, only the target's refs do: its fetches (each traced)
    // and the data references they carry.
    Counter per_mille = static_cast<Counter>(
        makeWorkload("ousterhout", 1000).dataRefsPer1k);
    Counter target_refs =
        scoped.traced + (scoped.traced * per_mille) / 1000 + 1;
    EXPECT_LE(scoped.observed, target_refs);
    EXPECT_GT(scoped.observed, target_refs / 2);

    // The rest moved to the chunked loop. Every ref but the clock
    // handler's runs through one of the two loops — boundary steps
    // included — so the two runs count exactly the same refs.
    EXPECT_EQ(scoped.observed + scoped.chunked, all.observed);
}

struct TlbRun
{
    RunResult run;
    TapewormTlbStats stats;
};

TlbRun
runTlb(const RunSpec &spec, std::uint64_t seed, bool slow)
{
    ScopedSlowPath sp(slow);
    SystemConfig sys = spec.sys;
    sys.trialSeed = seed;
    System system(sys, spec.workload);
    TapewormTlbConfig cfg = spec.tlb;
    if (cfg.filterFrames == 0)
        cfg.filterFrames = system.physMem().numFrames();
    TapewormTlb tlb(cfg);
    system.setClient(&tlb);
    TlbRun out;
    out.run = system.run();
    out.stats = tlb.stats();
    EXPECT_TRUE(tlb.checkInvariants());
    return out;
}

TEST(FastPath, BitIdenticalTlbMode)
{
    // The TLB filter is conservative (per-frame refcounts over
    // per-space valid bits) — skips must still be exact.
    RunSpec spec = baseSpec();
    spec.sim = SimKind::TapewormTlbSim;
    TlbRun fast = runTlb(spec, 7, false);
    TlbRun slow = runTlb(spec, 7, true);
    expectSameRun(fast.run, slow.run);
    expectSameTlbStats(fast.stats, slow.stats);
}

struct MuxRun
{
    RunResult run;
    TapewormStats cacheStats;
    TapewormTlbStats tlbStats;
    std::array<Counter, kNumComponents> oracleMisses{};
};

MuxRun
runMux(const RunSpec &spec, std::uint64_t seed, bool slow)
{
    ScopedSlowPath sp(slow);
    SystemConfig sys = spec.sys;
    sys.trialSeed = seed;
    System system(sys, spec.workload);

    TapewormConfig twCfg = spec.tw;
    twCfg.sampleSeed = 9;
    Tapeworm tapeworm(system.physMem(), twCfg);

    TapewormTlbConfig tlbCfg = spec.tlb;
    tlbCfg.filterFrames = system.physMem().numFrames();
    TapewormTlb tlb(tlbCfg);

    OracleClient oracle(spec.tw.cache, system.physMem().numFrames());

    MuxClient mux;
    mux.add(&tapeworm);
    mux.add(&tlb);
    mux.add(&oracle);
    // Mixed filters (oracle has none): the composite must be null
    // and filtering fall back to the per-child tests.
    EXPECT_EQ(mux.trapFilter().bits, nullptr);

    system.setClient(&mux);
    MuxRun out;
    out.run = system.run();
    out.cacheStats = tapeworm.stats();
    out.tlbStats = tlb.stats();
    for (unsigned c = 0; c < kNumComponents; ++c)
        out.oracleMisses[c] = oracle.misses(static_cast<Component>(c));
    return out;
}

TEST(FastPath, BitIdenticalMuxMixedClients)
{
    RunSpec spec = baseSpec();
    MuxRun fast = runMux(spec, 19, false);
    MuxRun slow = runMux(spec, 19, true);
    expectSameRun(fast.run, slow.run);
    expectSameStats(fast.cacheStats, slow.cacheStats);
    expectSameTlbStats(fast.tlbStats, slow.tlbStats);
    for (unsigned c = 0; c < kNumComponents; ++c)
        EXPECT_EQ(fast.oracleMisses[c], slow.oracleMisses[c])
            << componentName(static_cast<Component>(c));
}

TEST(FastPath, MuxOfIdenticalFiltersComposes)
{
    // Two Tapeworms over the same PhysMem publish the same view, so
    // the mux itself becomes filterable.
    PhysMem phys(1 << 20);
    TapewormConfig cfg;
    cfg.cache = CacheConfig::icache(4096);
    Tapeworm a(phys, cfg);
    cfg.cache = CacheConfig::icache(8192);
    Tapeworm b(phys, cfg);
    MuxClient mux;
    mux.add(&a);
    mux.add(&b);
    TrapFilterView v = mux.trapFilter();
    ASSERT_NE(v.bits, nullptr);
    EXPECT_TRUE(v.same(a.trapFilter()));
}

TEST(FastPath, BitIdenticalUnderTaskChurnAndDma)
{
    // sdet churns tasks (exit -> unmap -> respawn over recycled
    // frames) and an aggressive DMA period flushes translations —
    // the micro-TLB invalidation paths must keep both runs aligned.
    RunSpec spec = baseSpec("sdet", 8000);
    spec.sys.scope = SimScope::all();
    spec.sys.dmaFlushPeriod = 4;
    expectCachePathsAgree(spec, 31);
}

/** Force the scalar trap-bitmap scans for a scope, restoring the
 *  previous enablement after (mirrors TW_NO_SIMD / --no-simd). */
class ScopedNoSimd
{
  public:
    ScopedNoSimd() : wasWide_(simd::wide()) { simd::setEnabled(false); }
    ~ScopedNoSimd() { simd::setEnabled(wasWide_); }

  private:
    bool wasWide_;
};

void
expectSameOutcome(const RunOutcome &a, const RunOutcome &b)
{
    expectSameRun(a.run, b.run);
    EXPECT_DOUBLE_EQ(a.rawMisses, b.rawMisses);
    EXPECT_DOUBLE_EQ(a.estMisses, b.estMisses);
    for (unsigned c = 0; c < kNumComponents; ++c)
        EXPECT_DOUBLE_EQ(a.missesByComp[c], b.missesByComp[c])
            << componentName(static_cast<Component>(c));
    EXPECT_EQ(a.maskedTrapRefs, b.maskedTrapRefs);
    EXPECT_EQ(a.lostMaskedMisses, b.lostMaskedMisses);
}

/** The ten equivalence configurations, one per engine loop shape —
 *  shared by the tri-path and cost-backend-swap suites. */
struct FastPathConfig
{
    const char *label;
    RunSpec spec;
    std::uint64_t seed;
};

std::vector<FastPathConfig>
tenConfigs()
{
    std::vector<FastPathConfig> configs;

    {
        // 1: small icache, everything instrumented (chunked loop,
        // frequent traps).
        RunSpec s = baseSpec();
        s.sys.scope = SimScope::all();
        configs.push_back({"icache-4K-all", s, 101});
    }
    {
        // 2: large icache (hit-dominated chunked loop, long spans).
        RunSpec s = baseSpec();
        s.tw.cache =
            CacheConfig::icache(1024 * 1024, 16, 1, Indexing::Virtual);
        configs.push_back({"icache-1M", s, 102});
    }
    {
        // 3: user-only scope (mid-chunk scope exits).
        RunSpec s = baseSpec();
        s.sys.scope = SimScope::userOnly();
        configs.push_back({"icache-user-only", s, 103});
    }
    {
        // 4: data cache (chunked loop, data-page probes).
        RunSpec s = baseSpec();
        s.tw.kind = SimCacheKind::Data;
        configs.push_back({"dcache", s, 104});
    }
    {
        // 5: unified cache (chunked loop, fetch+data probes).
        RunSpec s = baseSpec();
        s.tw.kind = SimCacheKind::Unified;
        configs.push_back({"unified", s, 105});
    }
    {
        // 6: no-allocate-on-write stores (trap-clear side effects).
        RunSpec s = baseSpec();
        s.tw.kind = SimCacheKind::Data;
        s.tw.hostWrite = HostWritePolicy::NoAllocateOnWrite;
        configs.push_back({"dcache-noalloc", s, 106});
    }
    {
        // 7: set sampling (partial filter coverage).
        RunSpec s = baseSpec();
        s.tw.sampleNum = 1;
        s.tw.sampleDenom = 8;
        s.tw.sampleSeed = 1234;
        configs.push_back({"sampled-1-8", s, 107});
    }
    {
        // 8: TLB mode (page-granularity filter bitmap — the
        // unpadded one, exercising exact scan bounds).
        RunSpec s = baseSpec();
        s.sim = SimKind::TapewormTlbSim;
        configs.push_back({"tlb", s, 108});
    }
    {
        // 9: task churn + DMA flushes over recycled frames.
        RunSpec s = baseSpec("sdet", 8000);
        s.sys.scope = SimScope::all();
        s.sys.dmaFlushPeriod = 4;
        configs.push_back({"sdet-churn-dma", s, 109});
    }
    {
        // 10: uninstrumented (pure stream batching + span math).
        RunSpec s = baseSpec();
        s.sim = SimKind::None;
        configs.push_back({"uninstrumented", s, 110});
    }
    return configs;
}

TEST(FastPath, TriPathBitIdentityAcrossTenConfigs)
{
    // The full equivalence triangle on ten configurations spanning
    // every engine loop: fast path with wide scans, fast path
    // forced scalar (TW_NO_SIMD), and the legacy per-step path
    // (TW_SLOW_PATH=1) must all produce identical outcomes. SIMD is
    // an implementation detail of the probe, never of the result.
    std::vector<FastPathConfig> configs = tenConfigs();
    ASSERT_EQ(configs.size(), 10u);
    for (const FastPathConfig &cfg : configs) {
        SCOPED_TRACE(cfg.label);
        RunOutcome wide, scalar, slow;
        {
            ScopedSlowPath sp(false);
            wide = Runner::runOne(cfg.spec, cfg.seed);
        }
        {
            ScopedSlowPath sp(false);
            ScopedNoSimd noSimd;
            scalar = Runner::runOne(cfg.spec, cfg.seed);
        }
        {
            ScopedSlowPath sp(true);
            slow = Runner::runOne(cfg.spec, cfg.seed);
        }
        expectSameOutcome(wide, scalar);
        expectSameOutcome(wide, slow);
    }
}

TEST(FastPath, CostBackendSwapBitIdentityAcrossTenConfigs)
{
    // Routing miss pricing through an explicitly-selected table5
    // CostBackend must be indistinguishable from the default (the
    // pre-backend inline arithmetic) on every engine loop shape —
    // the refactor moved the seam, not the numbers.
    for (const FastPathConfig &cfg : tenConfigs()) {
        SCOPED_TRACE(cfg.label);
        RunOutcome base = Runner::runOne(cfg.spec, cfg.seed);

        RunSpec swapped = cfg.spec;
        std::string err;
        ASSERT_TRUE(parseCostBackendSpec(
            "table5", swapped.tw.costBackend, err))
            << err;
        swapped.tlb.costBackend = swapped.tw.costBackend;
        expectSameOutcome(base, Runner::runOne(swapped, cfg.seed));
    }
}

TEST(FastPath, IdealBackendDilatesLess)
{
    // The ~50-cycle Section 4.3 handler must accumulate LESS
    // simulated time than the 246-cycle measured handler. (Miss
    // counts may differ too: charged cycles advance the clock,
    // which moves tick interrupts — the dilation interference of
    // Figure 4 — so only the time comparison is exact.)
    RunSpec spec = baseSpec();
    spec.sys.scope = SimScope::all();
    RunOutcome table5 = Runner::runOne(spec, 42);
    spec.tw.costBackend.kind = CostBackendKind::Ideal;
    RunOutcome ideal = Runner::runOne(spec, 42);
    EXPECT_GT(table5.rawMisses, 0.0);
    EXPECT_LT(ideal.run.cycles, table5.run.cycles);
}

} // namespace
} // namespace tw
