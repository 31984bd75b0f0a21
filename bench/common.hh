/**
 * @file
 * Shared helpers for the per-table/figure bench binaries.
 *
 * Every binary regenerates one table or figure of the paper and
 * prints (a) the paper's published numbers where useful and (b) the
 * numbers measured on this reproduction. Instruction counts are
 * scaled down by TW_SCALE_DIV (see workload/spec.hh); miss counts
 * are extrapolated back to paper scale so the columns are directly
 * comparable to the publication.
 */

#ifndef TW_BENCH_COMMON_HH
#define TW_BENCH_COMMON_HH

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/env.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/trials.hh"
#include "workload/spec.hh"

namespace twbench
{

using namespace tw;

/**
 * Common bench CLI handling: `--threads N` (or `TW_THREADS`) sets
 * the trial-dispatch width for every runTrials in the binary.
 * Unrecognized arguments are ignored so the binaries stay drop-in
 * compatible with plain invocation.
 */
inline void
initBench(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *n = nullptr;
        if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc)
            n = argv[++i];
        else if (std::strncmp(arg, "--threads=", 10) == 0)
            n = arg + 10;
        if (n)
            setDefaultThreads(static_cast<unsigned>(
                decimalKnob("--threads", n, UINT_MAX)));
    }
}

/**
 * Machine-readable companion to the printed tables: collects scalar
 * metrics and writes BENCH_<name>.json on destruction (wall-clock
 * covers the object's lifetime). Funnels through the experiment
 * layer's writeBenchReport so non-registry benches (serve, micro)
 * emit the same schema as bench_driver --report.
 */
class JsonReport
{
  public:
    JsonReport(std::string name, std::string generated_by)
        : name_(std::move(name)),
          generatedBy_(std::move(generated_by)),
          t0_(std::chrono::steady_clock::now())
    {
    }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    /** Record one scalar metric (insertion order is kept). */
    void
    set(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
    }

    ~JsonReport()
    {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
        writeBenchReport(name_, name_, generatedBy_, wall, metrics_);
    }

  private:
    std::string name_;
    std::string generatedBy_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<std::pair<std::string, double>> metrics_;
};

/** Was @p flag passed on the command line? */
inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

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
 *  shared by the trial benches). */
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

/** Default experiment spec: Tapeworm, all activity, 4 KB DM cache. */
inline RunSpec
defaultSpec(const std::string &workload, unsigned scale_div)
{
    RunSpec spec;
    spec.workload = makeWorkload(workload, scale_div);
    spec.sys.scope = SimScope::all();
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(4096);
    return spec;
}

/** Print a bench header naming the regenerated artifact. */
inline void
banner(const char *artifact, const char *description,
       unsigned scale_div)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s — %s\n", artifact, description);
    std::printf("workloads scaled 1/%u; miss columns extrapolated "
                "to paper scale; %u trial thread(s)\n", scale_div,
                defaultThreads());
    std::printf("==============================================="
                "=================\n");
}

} // namespace twbench

#endif // TW_BENCH_COMMON_HH
