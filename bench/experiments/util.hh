/**
 * @file
 * Shared helpers for the experiment registrations — the spec
 * builders and paper-scale conversions the old per-binary bench
 * glue carried in bench/common.hh, now serving ExperimentDef grid()
 * and present() functions instead of main() bodies.
 */

#ifndef TW_BENCH_EXPERIMENTS_UTIL_HH
#define TW_BENCH_EXPERIMENTS_UTIL_HH

#include <cstdlib>
#include <string>
#include <vector>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/trials.hh"
#include "sample/config.hh"
#include "workload/spec.hh"

namespace twbench
{

using namespace tw;

/** Host-side simulation rate of one run: simulated references
 *  (instructions + data refs) retired per real second. */
inline double
refsPerSec(const RunOutcome &o)
{
    if (o.hostSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(o.run.totalInstr() + o.run.dataRefs)
           / o.hostSeconds;
}

/** Total estimated misses across a set of outcomes (a JSON metric
 *  shared by the trial experiments). */
inline double
totalEstMisses(const std::vector<RunOutcome> &outcomes)
{
    double sum = 0.0;
    for (const auto &o : outcomes)
        sum += o.estMisses;
    return sum;
}

/** Scale misses measured at 1/scale workload size back to the
 *  paper's full-size runs, in millions. */
inline double
paperMillions(double misses, unsigned scale_div)
{
    return misses * static_cast<double>(scale_div) / 1.0e6;
}

/**
 * TW_COST_BACKEND (set by `bench_driver --cost-backend`): the
 * miss-cost backend every grid spec uses, NAME[:k=v,...]. Unset or
 * empty keeps the table5 default (and the default spec bytes).
 * Fatal on a malformed value — a typo must not silently run the
 * default backend.
 */
inline CostBackendConfig
costBackendFromEnv()
{
    CostBackendConfig cfg;
    if (const char *env = std::getenv("TW_COST_BACKEND")) {
        std::string err;
        if (*env && !parseCostBackendSpec(env, cfg, err))
            fatal("TW_COST_BACKEND: %s", err.c_str());
    }
    return cfg;
}

/** Default experiment spec: Tapeworm, all activity, 4 KB DM cache.
 *  TW_COST_BACKEND applies here, so every registered experiment can
 *  re-run under a different pricing model. */
inline RunSpec
defaultSpec(const std::string &workload, unsigned scale_div)
{
    RunSpec spec;
    spec.workload = makeWorkload(workload, scale_div);
    spec.sys.scope = SimScope::all();
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(4096);
    spec.tw.costBackend = costBackendFromEnv();
    spec.tlb.costBackend = spec.tw.costBackend;
    return spec;
}

/**
 * Apply the TW_SAMPLE / TW_SAMPLE_* environment (set by
 * `bench_driver --sample`) to one grid spec, plus TW_NO_DMA — the
 * comparison protocol that runs both the sampled and the full side
 * without DMA frame recycling (an OS perturbation the stream-driven
 * estimator deliberately does not model). Call only on units whose
 * geometry can be eligible (Tapeworm, direct-mapped, virtual); a
 * spec that ends up ineligible anyway just falls back to the full
 * run (engine.sample.fallbacks counts it).
 */
inline void
applySampleEnv(RunSpec &spec)
{
    spec.sample = sampleConfigFromEnv();
    if (envNoDma())
        spec.sys.dmaFlushPeriod = 0;
}

/**
 * TW_CI_TARGET (set by `bench_driver --ci-target`): an adaptive
 * trial-stopping rule at that relative CI half-width; disabled when
 * unset, empty or zero. A value that is not a plain decimal ("0.1x",
 * "-1") is fatal.
 */
inline StopRule
stopRuleFromEnv()
{
    StopRule rule;
    double target = envDouble("TW_CI_TARGET", 0.0);
    if (target > 0.0) {
        rule.enabled = true;
        rule.ciRelTarget = target;
    }
    return rule;
}

/** The trial plan a variation sweep uses: the fixed @p n-trial plan,
 *  or up to @p n trials stopping at TW_CI_TARGET when that is set. */
inline TrialPlan
variationPlan(unsigned n, std::uint64_t base,
              bool with_slowdown = false)
{
    StopRule rule = stopRuleFromEnv();
    if (rule.enabled)
        return TrialPlan::adaptive(n, base, rule, with_slowdown);
    return TrialPlan::derived(n, base, with_slowdown);
}

/** Convenience: a one-seed grid unit. */
inline ExperimentUnit
unitOf(std::string id, RunSpec spec, TrialPlan plan)
{
    ExperimentUnit unit;
    unit.id = std::move(id);
    unit.spec = std::move(spec);
    unit.plan = std::move(plan);
    return unit;
}

} // namespace twbench

#endif // TW_BENCH_EXPERIMENTS_UTIL_HH
