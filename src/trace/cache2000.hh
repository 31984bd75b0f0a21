/**
 * @file
 * The trace-driven baseline: a Cache2000-style simulator.
 *
 * Implements the left side of the paper's Figure 1: for EVERY
 * address in the trace, search the simulated cache, count a hit or
 * a miss, and run the replacement policy on misses. The per-address
 * processing cost — paid on hits and misses alike — is what gives
 * trace-driven simulation its ~20-30x slowdown floor (Figure 2),
 * regardless of how well the simulated cache performs.
 *
 * Supports software set-sampling of a filtered trace (Section 3.2's
 * comparison point): non-sample addresses still cost a filter test,
 * unlike Tapeworm where the hardware filters them for free.
 */

#ifndef TW_TRACE_CACHE2000_HH
#define TW_TRACE_CACHE2000_HH

#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "mem/cache.hh"
#include "trace/trace_io.hh"

namespace tw
{

/** Cost/configuration of a Cache2000 run. */
struct Cache2000Config
{
    CacheConfig cache;

    /**
     * Cycles to process one (hitting) trace address: the search
     * and bookkeeping. Table 5 reports 53 cycles per address for
     * Cache2000 including on-the-fly Pixie generation; we charge
     * generation separately (see PixieClient) and calibrate the
     * split so the Figure 2 slowdown floor (~22x) is reproduced.
     */
    Cycles hitCycles = 53;

    /** Extra cycles when the address misses (replacement, result
     *  recording). */
    Cycles missExtraCycles = 320;

    /** Sample sampleNum/sampleDenom of the sets; filtered addresses
     *  cost filterCycles each (software must still touch them). */
    unsigned sampleNum = 1;
    unsigned sampleDenom = 1;
    std::uint64_t sampleSeed = 0;
    Cycles filterCycles = 4;

    double
    sampledFraction() const
    {
        return static_cast<double>(sampleNum)
               / static_cast<double>(sampleDenom);
    }
};

/** Counters of a Cache2000 run. */
struct Cache2000Stats
{
    Counter refs = 0;     //!< addresses processed (incl. filtered)
    Counter filtered = 0; //!< addresses outside the set sample
    Counter hits = 0;
    Counter misses = 0;
    Cycles cycles = 0;    //!< total simulation cycles consumed
};

/**
 * Trace-driven cache simulator.
 */
class Cache2000 : public TraceSink
{
  public:
    explicit Cache2000(const Cache2000Config &config);

    /**
     * Process one trace address; returns the simulation cycles it
     * cost (the Figure 1 left-hand loop body).
     */
    Cycles processAddr(Addr va, TaskId tid);

    /** TraceSink interface: file-replay entry point. */
    void put(const TraceRecord &rec) override;

    /** Replay a whole trace file. */
    void run(TraceReader &reader);

    const Cache2000Stats &stats() const { return stats_; }
    const Cache2000Config &config() const { return cfg_; }
    const Cache &cache() const { return cache_; }

    /** Misses scaled by the inverse sample fraction. */
    double estimatedMisses() const;

    bool setSampled(std::uint64_t set_index) const;

  private:
    Cache2000Config cfg_;
    Cache cache_;
    unsigned lineShift_;
    bool allSampled_;
    std::vector<bool> sampledSets_;
    Cache2000Stats stats_;
    /** Line and task of the previous cache_ access (the same-line
     *  memo in processAddr; only processAddr mutates cache_). */
    Addr lastLine_ = 0;
    TaskId lastTid_ = kInvalidTid;
    bool haveLast_ = false;
};

} // namespace tw

#endif // TW_TRACE_CACHE2000_HH
