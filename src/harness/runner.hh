/**
 * @file
 * The experiment runner: one-call execution of an instrumented run,
 * with the paper's slowdown metric.
 *
 * Section 4.1 defines
 *
 *     Slowdown = Overhead / NormalWorkloadRunTime
 *
 * where Overhead is the time the instrumentation added. The runner
 * executes the same trial (same seed, hence same page allocation
 * and clock phase) once uninstrumented and once instrumented, and
 * reports (instrumented - normal) / normal in simulated cycles —
 * the measurement Monster made with a logic analyzer on the real
 * machine. Normal runs are memoized, since a whole cache-size sweep
 * shares one baseline.
 */

#ifndef TW_HARNESS_RUNNER_HH
#define TW_HARNESS_RUNNER_HH

#include <array>
#include <string>

#include "base/enum_names.hh"
#include "core/tapeworm.hh"
#include "core/tapeworm_tlb.hh"
#include "os/system.hh"
#include "sample/config.hh"
#include "trace/cache2000.hh"
#include "trace/pixie.hh"
#include "workload/spec.hh"

namespace tw
{

/** Which simulator to attach. */
enum class SimKind { None, Tapeworm, TapewormTlbSim, TraceDriven,
                     Oracle };

inline constexpr EnumName<SimKind> kSimKindNames[] = {
    {SimKind::None, "none"},
    {SimKind::Tapeworm, "tapeworm"},
    {SimKind::TapewormTlbSim, "tlb"},
    {SimKind::TraceDriven, "trace"},
    {SimKind::Oracle, "oracle"},
};
constexpr const auto &enumNames(SimKind) { return kSimKindNames; }

/**
 * Why a spec with sampling enabled runs in full instead (None: it is
 * sampled). Each reason is one clause of the interval estimator's
 * exactness contract (see Runner::sampleEligible).
 */
enum class SampleFallback
{
    None,     //!< eligible: the run is sampled
    Disabled, //!< sampling off or not a Tapeworm run (not counted)
    Kind,     //!< not an instruction cache
    Dram,     //!< time-dependent cost backend
    Geometry, //!< not direct-mapped and virtually indexed
    Scope,    //!< scope is not user-only
    Tasks,    //!< more than one user task or binary
    Dma,      //!< DMA buffer flushes on
    Short,    //!< budget under four intervals
};

/** Full description of an experimental run (minus the trial seed). */
struct RunSpec
{
    WorkloadSpec workload;
    SystemConfig sys;
    SimKind sim = SimKind::Tapeworm;

    /** Tapeworm / Oracle configuration. */
    TapewormConfig tw;

    /** TLB-mode configuration (SimKind::TapewormTlbSim). */
    TapewormTlbConfig tlb;

    /** Trace-driven configuration. */
    Cache2000Config c2k;
    PixieConfig pixie;
    /** The single task Pixie annotates. */
    TaskId traceTarget = kFirstUserTaskId;

    /**
     * Representative-interval sampling (Tapeworm runs only). When
     * enabled AND the spec is eligible (direct-mapped virtual
     * I-cache, user-only scope, single task, no DMA flushes — see
     * Runner::sampleEligible), the run replays only representative
     * stream intervals instead of executing the machine. Ineligible
     * specs fall back to a full run.
     */
    SampleConfig sample;
};

/** Everything measured in one run. */
struct RunOutcome
{
    RunResult run;

    /** Raw misses counted by the attached simulator. */
    double rawMisses = 0.0;
    /** Misses scaled by the inverse sampling fraction. */
    double estMisses = 0.0;
    /** Estimated misses by component. */
    std::array<double, kNumComponents> missesByComp{};

    Counter maskedTrapRefs = 0;
    Counter lostMaskedMisses = 0;

    /** Host (real) seconds the run took — used for the "actual
     *  wall-clock time" speed comparisons of Section 4.1. */
    double hostSeconds = 0.0;

    /** Overhead / normal run time; NaN unless runWithSlowdown. */
    double slowdown = 0.0;
    /** The uninstrumented baseline's cycles (0 unless paired). */
    Cycles normalCycles = 0;

    /** How the estimate was produced when interval sampling ran
     *  (sample.used == false for a conventional full run). */
    SampleOutcome sample;

    /** Estimated misses per total workload instruction (the
     *  Table 6 metric). */
    double
    missRatioTotal() const
    {
        Counter t = run.totalInstr();
        return t ? estMisses / static_cast<double>(t) : 0.0;
    }

    /** Estimated misses per user instruction (the Figure 2
     *  metric). */
    double
    missRatioUser() const
    {
        Counter u = run.instr[static_cast<unsigned>(Component::User)];
        return u ? estMisses / static_cast<double>(u) : 0.0;
    }

    /**
     * Misses per thousand instructions — the MPI metric Section 4.4
     * wishes for ("some studies require other measures, such as
     * miss ratios or misses per instruction"). The paper needed a
     * logic analyzer for the instruction count; the machine model's
     * retired-instruction counter provides it directly.
     */
    double
    mpi() const
    {
        return 1000.0 * missRatioTotal();
    }

    /** Servers = BSD + X (Table 6 groups them). */
    double
    serverMisses() const
    {
        return missesByComp[static_cast<unsigned>(Component::Bsd)]
               + missesByComp[static_cast<unsigned>(Component::X)];
    }
};

/** Occupancy/eviction counters of the baseline memo. */
struct BaselineCacheStats
{
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/**
 * Stateless run executor (normal-run memoization is internal).
 *
 * Thread-safe: concurrent trials may call runOne/runWithSlowdown
 * freely. The baseline memo is an LRU map guarded by a mutex; each
 * key is computed exactly once per residency (concurrent requests
 * for the same spec+seed wait for the first computation instead of
 * redoing it). The memo is BOUNDED — a long-lived daemon reruns an
 * evicted baseline (bit-identically, since baselines are pure
 * functions of spec+seed) instead of leaking memory.
 */
class Runner
{
  public:
    /** Execute one instrumented run. */
    static RunOutcome runOne(const RunSpec &spec,
                             std::uint64_t trial_seed);

    /**
     * Whether spec.sample (if enabled) can honor the exactness
     * contract of the interval estimator: a direct-mapped
     * virtually-indexed instruction cache simulated over a single
     * user task with user-only scope, no DMA flushes, and a budget
     * of at least four intervals. Returns SampleFallback::None if
     * so, else the first clause that fails. Such a spec falls back
     * to a full run, counted in engine.sample.fallbacks and
     * engine.sample.fallbacks.<reason>, with one stderr notice per
     * reason per process.
     */
    static SampleFallback sampleEligible(const RunSpec &spec);

    /** Execute the instrumented run plus (memoized) uninstrumented
     *  baseline; fills slowdown and normalCycles. */
    static RunOutcome runWithSlowdown(const RunSpec &spec,
                                      std::uint64_t trial_seed);

    /** Drop the memoized baselines (tests). */
    static void clearBaselineCache();

    /**
     * Cap the baseline memo at @p entries (>= 1). The default,
     * overridable via TW_BASELINE_CAP, is 4096 — comfortably above
     * any bench sweep (a sweep shares one baseline per trial seed)
     * while bounding a resident daemon to a few hundred KB of memo.
     */
    static void setBaselineCacheCapacity(std::size_t entries);

    static BaselineCacheStats baselineCacheStats();

  private:
    static std::string baselineKey(const RunSpec &spec,
                                   std::uint64_t trial_seed);
};

} // namespace tw

#endif // TW_HARNESS_RUNNER_HH
