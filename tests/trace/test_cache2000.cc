/** @file Tests of the trace-driven Cache2000 baseline. */

#include <cstdio>
#include <unistd.h>

#include <gtest/gtest.h>

#include "base/random.hh"
#include "base/logging.hh"
#include "trace/cache2000.hh"

namespace tw
{
namespace
{

Cache2000Config
dmConfig(std::uint64_t size = 4096)
{
    Cache2000Config cfg;
    cfg.cache = CacheConfig::icache(size, 16, 1, Indexing::Virtual);
    cfg.cache.tagIncludesTask = true;
    return cfg;
}

TEST(Cache2000, EveryAddressCosts)
{
    Cache2000 sim(dmConfig());
    Cycles miss_cost = sim.processAddr(0x400000, 1);
    Cycles hit_cost = sim.processAddr(0x400000, 1);
    EXPECT_EQ(hit_cost, sim.config().hitCycles);
    EXPECT_EQ(miss_cost,
              sim.config().hitCycles + sim.config().missExtraCycles);
    EXPECT_EQ(sim.stats().refs, 2u);
    EXPECT_EQ(sim.stats().hits, 1u);
    EXPECT_EQ(sim.stats().misses, 1u);
    EXPECT_EQ(sim.stats().cycles, hit_cost + miss_cost);
}

TEST(Cache2000, HitsNeverFree)
{
    // The defining trace-driven property: even a 100% hit stream
    // pays per-address processing (Figure 1, left).
    Cache2000 sim(dmConfig());
    sim.processAddr(0x400000, 1);
    Cycles total = 0;
    for (int i = 0; i < 1000; ++i)
        total += sim.processAddr(0x400000, 1);
    EXPECT_EQ(total, 1000 * sim.config().hitCycles);
}

TEST(Cache2000, MissCountsMatchDirectModel)
{
    Cache2000 sim(dmConfig(1024));
    Cache direct(dmConfig(1024).cache);
    Rng rng(5);
    Counter direct_misses = 0;
    for (int i = 0; i < 50000; ++i) {
        Addr va = 0x400000 + (rng.geometric(0.01) * 16);
        sim.processAddr(va, 1);
        LineRef ref{va >> 4, va >> 4, 1};
        direct_misses += !direct.access(ref).hit;
    }
    EXPECT_EQ(sim.stats().misses, direct_misses);
}

TEST(Cache2000, SamplingFiltersInSoftware)
{
    Cache2000Config cfg = dmConfig();
    cfg.sampleNum = 1;
    cfg.sampleDenom = 8;
    cfg.sampleSeed = 3;
    Cache2000 sim(cfg);
    // Sweep one page: every line visits a distinct set.
    for (Addr off = 0; off < 4096; off += 16)
        sim.processAddr(0x400000 + off, 1);
    EXPECT_EQ(sim.stats().misses, 32u);
    EXPECT_EQ(sim.stats().filtered, 224u);
    EXPECT_EQ(sim.stats().refs, 256u);
    EXPECT_DOUBLE_EQ(sim.estimatedMisses(), 256.0);
    // Filtered addresses still cost cycles — unlike Tapeworm.
    EXPECT_EQ(sim.stats().cycles,
              224 * cfg.filterCycles
                  + 32 * (cfg.hitCycles + cfg.missExtraCycles));
}

TEST(Cache2000, FileReplayMatchesOnline)
{
    std::string path = csprintf("%s/c2k_replay_%d.trc",
                                ::testing::TempDir().c_str(),
                                getpid());
    Rng rng(9);
    Cache2000 online(dmConfig(2048));
    {
        TraceWriter w(path);
        for (int i = 0; i < 20000; ++i) {
            Addr va = 0x400000 + rng.geometric(0.02) * 16;
            TraceRecord rec{va, 1};
            w.put(rec);
            online.processAddr(va, 1);
        }
        w.close();
    }
    Cache2000 replay(dmConfig(2048));
    TraceReader r(path);
    replay.run(r);
    EXPECT_EQ(replay.stats().misses, online.stats().misses);
    EXPECT_EQ(replay.stats().hits, online.stats().hits);
    std::remove(path.c_str());
}

TEST(Cache2000, TaskTagsSeparateAddressSpaces)
{
    Cache2000 sim(dmConfig());
    sim.processAddr(0x400000, 1);
    EXPECT_EQ(sim.stats().hits, 0u);
    sim.processAddr(0x400000, 2); // other task: distinct entry
    EXPECT_EQ(sim.stats().misses, 2u);
}

TEST(Cache2000, SameLineMemoMatchesBareCacheUnderEveryPolicy)
{
    // processAddr answers a repeat of the previous line and task
    // without searching the cache or bumping its LRU stamp. Against
    // a bare Cache::access loop on the same stream, that must change
    // neither a count nor a victim: long same-line runs (sequential
    // fetches inside one 16-byte line, loops re-fetching it) with
    // two tasks interleaved at random, in a 1 KB 4-way cache small
    // enough to evict constantly.
    for (ReplPolicy policy :
         {ReplPolicy::LRU, ReplPolicy::FIFO, ReplPolicy::Random}) {
        Cache2000Config cfg;
        cfg.cache = CacheConfig::icache(1024, 16, 4, Indexing::Virtual);
        cfg.cache.tagIncludesTask = true;
        cfg.cache.policy = policy;
        cfg.cache.seed = 99;
        Cache2000 sim(cfg);
        Cache bare(cfg.cache);

        Rng rng(31);
        Counter hits = 0, misses = 0;
        Addr va = 0x400000;
        for (int i = 0; i < 40000; ++i) {
            if (rng.chance(0.15))
                va = 0x400000 + rng.below(96) * 16; // new line
            else if (rng.chance(0.5))
                va = (va & ~Addr{15}) + rng.below(4) * 4; // same line
            TaskId tid = rng.chance(0.1) ? 2 : 1;
            Cycles cost = sim.processAddr(va, tid);

            LineRef ref{va >> 4, va >> 4, tid};
            bool hit = bare.access(ref).hit;
            hits += hit;
            misses += !hit;
            EXPECT_EQ(cost, hit ? cfg.hitCycles
                                : cfg.hitCycles + cfg.missExtraCycles)
                << replPolicyName(policy) << " ref " << i;
        }
        const char *name = replPolicyName(policy);
        EXPECT_EQ(sim.stats().hits, hits) << name;
        EXPECT_EQ(sim.stats().misses, misses) << name;
        EXPECT_EQ(sim.stats().cycles,
                  hits * cfg.hitCycles
                      + misses * (cfg.hitCycles + cfg.missExtraCycles))
            << name;
        for (Addr line = 0x40000; line < 0x40000 + 96; ++line) {
            for (TaskId tid : {1, 2}) {
                LineRef ref{line, line, tid};
                EXPECT_EQ(sim.cache().contains(ref), bare.contains(ref))
                    << name << " line " << line << " tid " << tid;
            }
        }
    }
}

TEST(Cache2000Death, PhysicalIndexingRejected)
{
    Cache2000Config cfg;
    cfg.cache = CacheConfig::icache(4096, 16, 1, Indexing::Physical);
    EXPECT_DEATH(Cache2000{cfg}, "virtual address traces");
}

} // namespace
} // namespace tw
