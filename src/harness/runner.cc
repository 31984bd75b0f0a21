#include "harness/runner.hh"

#include <array>
#include <chrono>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>

#include "base/arena.hh"
#include "base/env.hh"
#include "base/logging.hh"
#include "base/lru_map.hh"
#include "harness/oracle.hh"
#include "harness/specio.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sample/interval_sim.hh"
#include "sample/profile.hh"

namespace tw
{

namespace
{

/**
 * One memoized baseline. The entry is created under the map lock but
 * computed outside it under a per-key once_flag, so concurrent
 * trials of the same spec+seed block only each other (one computes,
 * the rest wait) and never serialize against different keys. The
 * shared_ptr keeps an entry alive for threads still computing or
 * reading it even if the LRU evicts the key meanwhile.
 */
struct BaselineEntry
{
    std::once_flag once;
    Cycles cycles = 0;
};

constexpr std::size_t kDefaultBaselineCap = 4096;

std::size_t
envBaselineCap()
{
    std::size_t v = envUnsigned("TW_BASELINE_CAP", 0,
                                std::numeric_limits<std::size_t>::max());
    return v > 0 ? v : kDefaultBaselineCap;
}

std::mutex baselinesMutex;
std::uint64_t baselineHits = 0;
std::uint64_t baselineMisses = 0;

/**
 * The baseline memo, keyed by the machine a baseline runs (specio's
 * baselineText: every field of the workload and the system) and the
 * trial seed. Machine texts are interned, so the entries of one
 * machine's seeds share one copy of its few KB, and the copy goes
 * with the last of them. Guarded by baselinesMutex, which is also
 * held wherever a Machine pointer is copied or dropped.
 */
struct BaselineMemo
{
    using Machine = std::shared_ptr<const std::string>;

    struct Key
    {
        Machine machine;
        std::uint64_t seed = 0;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return std::hash<const void *>()(k.machine.get())
                   ^ std::hash<std::uint64_t>()(k.seed);
        }
    };

    /** The one pointer to @p text: equal texts, equal pointers. */
    Machine
    intern(std::string text)
    {
        auto it = machines.try_emplace(std::move(text)).first;
        Machine m = it->second.lock();
        if (!m) {
            m = Machine(&it->first, [this](const std::string *t) {
                machines.erase(machines.find(*t));
            });
            it->second = m;
        }
        return m;
    }

    // Declared first, destroyed last: dropping `entries` erases
    // from it.
    std::unordered_map<std::string, std::weak_ptr<const std::string>>
        machines;
    LruMap<Key, std::shared_ptr<BaselineEntry>, KeyHash> entries{
        envBaselineCap()};
};

BaselineMemo &
baselines()
{
    static BaselineMemo memo;
    return memo;
}

std::shared_ptr<BaselineEntry>
baselineEntry(const RunSpec &spec, std::uint64_t trial_seed)
{
    static obs::Counter obsHits =
        obs::registry().counter("engine.baseline.hits");
    static obs::Counter obsMisses =
        obs::registry().counter("engine.baseline.misses");
    std::string machine = baselineText(spec);
    std::lock_guard<std::mutex> lock(baselinesMutex);
    BaselineMemo &memo = baselines();
    BaselineMemo::Key key{memo.intern(std::move(machine)), trial_seed};
    if (std::shared_ptr<BaselineEntry> *entry = memo.entries.find(key)) {
        ++baselineHits;
        obsHits.inc();
        return *entry;
    }
    ++baselineMisses;
    obsMisses.inc();
    return memo.entries.insert(key, std::make_shared<BaselineEntry>());
}

double
hostNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

} // anonymous namespace

namespace
{

/** Per fallback reason, SampleFallback::Kind first: its name (the
 *  counter suffix) and why such a spec runs in full (the stderr
 *  notice). */
struct FallbackText
{
    const char *name;
    const char *why;
};

constexpr FallbackText kFallbackText[] = {
    {"kind", "the simulated cache is not an instruction cache"},
    {"dram", "the dram cost backend prices misses by time"},
    {"geometry", "the cache is not direct-mapped and virtually indexed"},
    {"scope", "the scope is not user-only"},
    {"tasks", "the workload has more than one user task or binary"},
    {"dma", "DMA buffer flushes are on (grids: set TW_NO_DMA=1)"},
    {"short", "the budget is under four sample intervals"},
};

constexpr unsigned kNumFallbacks = std::size(kFallbackText);
static_assert(kNumFallbacks
              == static_cast<unsigned>(SampleFallback::Short)
                     - static_cast<unsigned>(SampleFallback::Kind) + 1);

} // anonymous namespace

SampleFallback
Runner::sampleEligible(const RunSpec &spec)
{
    if (!spec.sample.enabled || spec.sim != SimKind::Tapeworm)
        return SampleFallback::Disabled;
    const TapewormConfig &tw = spec.tw;
    if (tw.kind != SimCacheKind::Instruction)
        return SampleFallback::Kind;
    // Time-dependent cost backends (dram) price a miss by WHEN it
    // happens; interval replay reconstructs residency, not time, so
    // such specs run in full.
    if (tw.costBackend.kind == CostBackendKind::Dram)
        return SampleFallback::Dram;
    // Exact boundary reconstruction holds only for direct-mapped
    // virtually-indexed caches (the resident line of a set is the
    // most recently referenced line mapping to it).
    if (tw.cache.assoc != 1 || tw.cache.indexing != Indexing::Virtual)
        return SampleFallback::Geometry;
    // The estimator replays one user stream: the full run must trace
    // exactly that stream and nothing else.
    const SimScope &scope = spec.sys.scope;
    if (!scope.user || scope.servers || scope.kernel)
        return SampleFallback::Scope;
    if (spec.workload.taskCount != 1
        || spec.workload.concurrency != 1
        || spec.workload.binaries.size() != 1)
        return SampleFallback::Tasks;
    // DMA buffer recycling flushes lines at times the stream replay
    // cannot see; such specs run in full.
    if (spec.sys.dmaFlushPeriod != 0)
        return SampleFallback::Dma;
    // Below four intervals sampling cannot pay for itself.
    if (spec.workload.userInstr()
        < 4 * static_cast<Counter>(spec.sample.intervalRefs))
        return SampleFallback::Short;
    return SampleFallback::None;
}

namespace
{

/** Count a sampled spec that runs in full, by reason, and say why
 *  on stderr the first time each reason occurs in this process. */
void
noteSampleFallback(SampleFallback reason)
{
    static obs::Counter total =
        obs::registry().counter("engine.sample.fallbacks");
    static std::array<obs::Counter, kNumFallbacks> byReason = [] {
        std::array<obs::Counter, kNumFallbacks> c;
        for (unsigned r = 0; r < kNumFallbacks; ++r) {
            c[r] = obs::registry().counter(
                std::string("engine.sample.fallbacks.")
                + kFallbackText[r].name);
        }
        return c;
    }();
    static std::array<std::once_flag, kNumFallbacks> noticed;
    const unsigned r = static_cast<unsigned>(reason)
                       - static_cast<unsigned>(SampleFallback::Kind);
    total.inc();
    byReason[r].inc();
    std::call_once(noticed[r], [&] {
        warn("sampling falls back to a full run (%s): %s",
             kFallbackText[r].name, kFallbackText[r].why);
    });
}

/** The sampled Tapeworm estimate, in place of a machine run. */
void
runSampled(const RunSpec &spec, const TapewormConfig &cfg,
           RunOutcome &out)
{
    static obs::Counter obsRuns =
        obs::registry().counter("engine.sample.runs");
    static obs::Counter obsIntervalsTotal =
        obs::registry().counter("engine.sample.intervals_total");
    static obs::Counter obsIntervalsSim =
        obs::registry().counter("engine.sample.intervals_simulated");
    static obs::Counter obsRefsSim =
        obs::registry().counter("engine.sample.refs_simulated");
    static obs::Counter obsRefsSkipped =
        obs::registry().counter("engine.sample.refs_skipped");

    const StreamParams &params = spec.workload.binaries[0];
    // Replicate how the OS seeds and budgets the first (only) user
    // task: see System::spawnNextUser.
    std::uint64_t reset_seed = mixSeed(params.seed, 0x5eed00);
    Counter budget =
        std::max<Counter>(1, spec.workload.userInstr()
                                 / spec.workload.taskCount);

    std::shared_ptr<const SamplePlan> plan = getSamplePlan(
        params, reset_seed, budget, spec.sample, cfg.cache);
    IntervalEstimate est =
        estimateByIntervals(*plan, cfg, spec.sample);

    out.run.instr[static_cast<unsigned>(Component::User)] = budget;
    out.run.tasksCreated = 1;
    out.rawMisses = est.rawMisses;
    out.estMisses = est.estMisses;
    out.missesByComp[static_cast<unsigned>(Component::User)] =
        est.estMisses;
    out.sample.used = true;
    out.sample.intervalsTotal = est.intervalsTotal;
    out.sample.intervalsSimulated = est.intervalsSimulated;
    out.sample.refsSimulated = est.refsSimulated;
    out.sample.refsTotal = est.refsTotal;
    out.sample.ciHalfWidth = est.ciHalfWidth;

    obsRuns.inc();
    obsIntervalsTotal.add(est.intervalsTotal);
    obsIntervalsSim.add(est.intervalsSimulated);
    obsRefsSim.add(est.refsSimulated);
    obsRefsSkipped.add(est.refsTotal - std::min(est.refsTotal,
                                                est.refsSimulated));
}

} // anonymous namespace

RunOutcome
Runner::runOne(const RunSpec &spec, std::uint64_t trial_seed)
{
    obs::ScopedSpan span("trial", "harness");
    // Every trial-lifetime allocation below (page tables, cache
    // line arrays, trap bitmaps) lands in this worker's retained
    // bump arena; the scope rewinds it on exit, so in steady state
    // a trial costs zero malloc/free. Declared first so the System
    // and clients are destroyed before the rewind.
    ArenaScope arenaScope;
    const std::size_t reserved0 = arenaScope.arena().reservedBytes();

    const SampleFallback fallback = sampleEligible(spec);
    if (fallback != SampleFallback::Disabled) {
        if (fallback == SampleFallback::None) {
            RunOutcome out;
            double t0 = hostNow();
            TapewormConfig cfg = spec.tw;
            if (cfg.sampleSeed == 0)
                cfg.sampleSeed = mixSeed(trial_seed, 0x7e57);
            runSampled(spec, cfg, out);
            out.hostSeconds = hostNow() - t0;
            return out;
        }
        noteSampleFallback(fallback);
    }

    SystemConfig sys = spec.sys;
    sys.trialSeed = trial_seed;
    System system(sys, spec.workload);

    RunOutcome out;
    double t0 = hostNow();

    switch (spec.sim) {
      case SimKind::None: {
        out.run = system.run();
        break;
      }
      case SimKind::Tapeworm: {
        TapewormConfig cfg = spec.tw;
        // The trial seed picks the set sample unless the caller
        // pinned one explicitly.
        if (cfg.sampleSeed == 0)
            cfg.sampleSeed = mixSeed(trial_seed, 0x7e57);
        Tapeworm tapeworm(system.physMem(), cfg);
        system.setClient(&tapeworm);
        out.run = system.run();
        out.rawMisses =
            static_cast<double>(tapeworm.stats().totalMisses());
        out.estMisses = tapeworm.estimatedTotalMisses();
        for (unsigned c = 0; c < kNumComponents; ++c) {
            out.missesByComp[c] =
                tapeworm.estimatedMisses(static_cast<Component>(c));
        }
        out.maskedTrapRefs = tapeworm.stats().maskedTrapRefs;
        out.lostMaskedMisses = tapeworm.stats().lostMaskedMisses;
        break;
      }
      case SimKind::TapewormTlbSim: {
        TapewormTlbConfig cfg = spec.tlb;
        if (cfg.filterFrames == 0)
            cfg.filterFrames = system.physMem().numFrames();
        TapewormTlb tlb(cfg);
        system.setClient(&tlb);
        out.run = system.run();
        out.rawMisses =
            static_cast<double>(tlb.stats().totalMisses());
        out.estMisses = out.rawMisses;
        for (unsigned c = 0; c < kNumComponents; ++c) {
            out.missesByComp[c] = static_cast<double>(
                tlb.stats().misses[c]);
        }
        out.maskedTrapRefs = tlb.stats().maskedTrapRefs;
        out.lostMaskedMisses = tlb.stats().lostMaskedMisses;
        break;
      }
      case SimKind::TraceDriven: {
        Cache2000Config cfg = spec.c2k;
        if (cfg.sampleSeed == 0)
            cfg.sampleSeed = mixSeed(trial_seed, 0x7e57);
        Cache2000 c2k(cfg);
        PixieClient pixie(spec.traceTarget, &c2k, spec.pixie);
        system.setClient(&pixie);
        out.run = system.run();
        out.rawMisses = static_cast<double>(c2k.stats().misses);
        out.estMisses = c2k.estimatedMisses();
        // Pixie sees a single user task only.
        out.missesByComp[static_cast<unsigned>(Component::User)] =
            out.estMisses;
        break;
      }
      case SimKind::Oracle: {
        OracleClient oracle(spec.tw.cache,
                            system.physMem().numFrames(),
                            spec.tw.sampleNum, spec.tw.sampleDenom,
                            spec.tw.sampleSeed != 0
                                ? spec.tw.sampleSeed
                                : mixSeed(trial_seed, 0x7e57),
                            spec.tw.kind);
        system.setClient(&oracle);
        out.run = system.run();
        out.rawMisses = static_cast<double>(oracle.totalMisses());
        out.estMisses = oracle.estimatedTotalMisses();
        for (unsigned c = 0; c < kNumComponents; ++c) {
            out.missesByComp[c] = static_cast<double>(
                oracle.misses(static_cast<Component>(c)));
        }
        break;
      }
    }

    out.hostSeconds = hostNow() - t0;

    // All allocations have happened by now; account the arena's
    // growth (zero once a worker's chunks are warm) and the trial.
    static obs::Counter obsArenaBytes =
        obs::registry().counter("engine.arena.bytes_reserved");
    static obs::Counter obsArenaTrials =
        obs::registry().counter("engine.arena.trials_served");
    obsArenaBytes.add(arenaScope.arena().reservedBytes() - reserved0);
    obsArenaTrials.inc();
    return out;
}

RunOutcome
Runner::runWithSlowdown(const RunSpec &spec, std::uint64_t trial_seed)
{
    std::shared_ptr<BaselineEntry> entry =
        baselineEntry(spec, trial_seed);
    std::call_once(entry->once, [&] {
        obs::ScopedSpan span("baseline", "harness");
        RunSpec normal = spec;
        normal.sim = SimKind::None;
        entry->cycles = runOne(normal, trial_seed).run.cycles;
    });
    Cycles normal_cycles = entry->cycles;

    RunOutcome out = runOne(spec, trial_seed);
    out.normalCycles = normal_cycles;
    TW_ASSERT(normal_cycles > 0, "empty baseline run");
    double overhead = static_cast<double>(out.run.cycles)
                      - static_cast<double>(normal_cycles);
    out.slowdown = overhead / static_cast<double>(normal_cycles);
    return out;
}

void
Runner::clearBaselineCache()
{
    std::lock_guard<std::mutex> lock(baselinesMutex);
    baselines().entries.clear();
    baselineHits = 0;
    baselineMisses = 0;
}

void
Runner::setBaselineCacheCapacity(std::size_t entries)
{
    std::lock_guard<std::mutex> lock(baselinesMutex);
    baselines().entries.setCapacity(entries);
}

BaselineCacheStats
Runner::baselineCacheStats()
{
    std::lock_guard<std::mutex> lock(baselinesMutex);
    BaselineCacheStats s;
    s.size = baselines().entries.size();
    s.capacity = baselines().entries.capacity();
    s.hits = baselineHits;
    s.misses = baselineMisses;
    s.evictions = baselines().entries.evictions();
    return s;
}

} // namespace tw
