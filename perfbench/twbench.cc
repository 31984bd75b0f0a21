/**
 * @file
 * twbench — the measuring half of the repository benchmark.
 *
 * Drives Tapeworm II only through its public entry points (the
 * experiment registry and runExperiment, Runner, specio, the obs
 * registry and tracer, RefStream, and twserved over the wire with
 * serve::Client) and writes one raw JSON document of samples. The
 * summarising half (perfbench/run.py, perfbench/stats.py) turns the
 * samples into the benchmark's metrics.
 *
 *   twbench batch  --workload fig2_sweep|allactivity_trials
 *                  --seed S --seconds T --trace 0|1 --out FILE
 *                  --driver PATH
 *   twbench served --seed S --seconds T --trace 0|1 --out FILE
 *                  --twserved PATH
 *   twbench setup  --workload W --seed S     (one set-up probe)
 *
 * Every repetition starts from the state a user's run starts from:
 * the baseline memo is cleared before each cold batch repetition and
 * the served pool is spawned afresh for every cycle.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/specio.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/client.hh"
#include "serve/shard/shard_map.hh"
#include "workload/loop_nest.hh"

extern char **environ;

using namespace tw;

namespace
{

using Clock = std::chrono::steady_clock;

/** The seed that reproduces the registry experiments' own seeds. */
constexpr std::uint64_t kDefaultSeed = 7;

/** Figure 2's published Tapeworm slowdown column, 1K..1M. */
const double kFig2PaperTw[] = {6.27, 5.16, 3.84, 1.20, 0.87, 0.11,
                               0.10, 0.01, 0.00, 0.00, 0.00};
const unsigned kFig2Kb[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Children not yet reaped, so a fatal exit can still stop them. */
std::mutex gChildrenMutex;
std::set<pid_t> gChildren;

/** SIGTERM, a grace period, then SIGKILL; always reaps @p pid. */
void
terminate(pid_t pid)
{
    kill(pid, SIGTERM);
    for (int i = 0; i < 500; ++i) {
        if (waitpid(pid, nullptr, WNOHANG) == pid)
            return;
        usleep(10000);
    }
    kill(pid, SIGKILL);
    while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "twbench: %s\n", msg.c_str());
    std::set<pid_t> children;
    {
        std::lock_guard<std::mutex> lock(gChildrenMutex);
        children.swap(gChildren);
    }
    for (pid_t pid : children)
        terminate(pid);
    std::exit(2);
}

/** Knobs that change the measured program. A stray export would
 *  silently benchmark a different program, so refuse to run. */
void
refuseProgramKnobs()
{
    static const char *const kRefused[] = {
        "TW_SLOW_PATH",   "TW_NO_SIMD",     "TW_SAMPLE",
        "TW_NO_DMA",      "TW_COST_BACKEND", "TW_CI_TARGET",
        "TW_SCALE_DIV",   "TW_FIG2_ONLY_KB", "TW_TRACE",
        "TW_BASELINE_CAP", "TW_PIN",
    };
    for (char **e = environ; *e; ++e) {
        std::string kv = *e;
        std::string name = kv.substr(0, kv.find('='));
        bool refused = name.rfind("TW_SAMPLE_", 0) == 0;
        for (const char *k : kRefused)
            refused = refused || name == k;
        if (refused)
            die(name + " is set; it changes the measured program. "
                       "Unset it to benchmark.");
    }
}

unsigned
hostCpus()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

Json
fingerprint(unsigned threads, unsigned scale)
{
    Json j = Json::object();
    j.set("nproc", Json::number(hostCpus()));
    j.set("simd", Json::str(simd::levelName(simd::activeLevel())));
#if defined(__clang__)
    j.set("compiler", Json::str(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
    j.set("compiler", Json::str(std::string("gcc ") + __VERSION__));
#else
    j.set("compiler", Json::str("unknown"));
#endif
    j.set("build_type", Json::str(TWBENCH_BUILD_TYPE));
    j.set("threads", Json::number(threads));
    j.set("scale", Json::number(scale));
    return j;
}

/** Peak resident set (VmHWM) of @p pid in MB; 0 when unreadable. */
double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

using Counters = std::map<std::string, std::uint64_t>;

Counters
localCounters()
{
    Counters c;
    for (const auto &cv : obs::registry().counterValues())
        c[cv.name] = cv.value;
    return c;
}

Counters
countersFromSnapshot(const Json &snap)
{
    Counters c;
    if (const Json *counters = snap.find("counters")) {
        for (const auto &[name, v] : counters->members())
            c[name] = v.asU64();
    }
    return c;
}

Counters
operator-(const Counters &after, const Counters &before)
{
    Counters d;
    for (const auto &[name, v] : after) {
        auto it = before.find(name);
        d[name] = v - (it == before.end() ? 0 : it->second);
    }
    return d;
}

Counters &
operator+=(Counters &acc, const Counters &d)
{
    for (const auto &[name, v] : d)
        acc[name] += v;
    return acc;
}

/** Refs the engine's reference loops delivered in a counter delta.
 *  The clock-tick handler's fetches are not among them, so this is
 *  short of a run's instructions plus data refs; it is 0 exactly when
 *  no run was made. */
std::uint64_t
simRefs(const Counters &c)
{
    std::uint64_t refs = 0;
    for (const char *name : {"engine.refs.chunked", "engine.refs.filtered",
                             "engine.refs.observed"}) {
        auto it = c.find(name);
        refs += it == c.end() ? 0 : it->second;
    }
    return refs;
}

Json
countersJson(const Counters &c)
{
    Json j = Json::object();
    for (const auto &[name, v] : c)
        j.set(name, Json::number(v));
    return j;
}

Json
numbers(const std::vector<double> &v)
{
    Json a = Json::array();
    for (double x : v)
        a.push(Json::number(x));
    return a;
}

/** A spawned child process; stopped (SIGTERM, then SIGKILL) and
 *  reaped by the destructor if still running. */
class Process
{
  public:
    Process() = default;
    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;
    ~Process() { stop(); }

    /** Where the child's stdout goes. */
    enum class Out { Null, Pipe };

    /** Spawn @p argv with @p extra_env appended to the environment;
     *  with Out::Pipe the child's stdout is readable by line(). */
    void
    start(const std::vector<std::string> &argv, Out out = Out::Null,
          const std::vector<std::string> &extra_env = {})
    {
        const bool pipe_out = out == Out::Pipe;
        std::vector<char *> args;
        for (const auto &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        std::vector<std::string> envs;
        for (char **e = environ; *e; ++e)
            envs.emplace_back(*e);
        envs.insert(envs.end(), extra_env.begin(), extra_env.end());
        std::vector<char *> envp;
        for (auto &e : envs)
            envp.push_back(e.data());
        envp.push_back(nullptr);

        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        int fds[2] = {-1, -1};
        if (pipe_out) {
            if (pipe(fds) != 0)
                die("pipe: " + std::string(std::strerror(errno)));
            posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
            posix_spawn_file_actions_addclose(&fa, fds[0]);
            posix_spawn_file_actions_addclose(&fa, fds[1]);
        } else {
            posix_spawn_file_actions_addopen(&fa, 1, "/dev/null",
                                             O_WRONLY, 0);
        }
        int rc = posix_spawn(&pid_, args[0], &fa, nullptr, args.data(),
                             envp.data());
        posix_spawn_file_actions_destroy(&fa);
        if (pipe_out) {
            close(fds[1]);
            out_ = fds[0];
        }
        if (rc != 0) {
            pid_ = -1;
            die("spawn " + argv[0] + ": " + std::strerror(rc));
        }
        std::lock_guard<std::mutex> lock(gChildrenMutex);
        gChildren.insert(pid_);
    }

    pid_t pid() const { return pid_; }

    /** One line of the child's stdout ("" at EOF). */
    std::string
    line()
    {
        std::string s;
        char c;
        while (out_ >= 0 && read(out_, &c, 1) == 1 && c != '\n')
            s += c;
        return s;
    }

    /** Wait for exit; the exit status (-1 if signalled). */
    int
    wait()
    {
        if (pid_ < 0)
            return -1;
        int status = 0;
        while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        reaped();
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    /** SIGTERM, a grace period, then SIGKILL; always reaps. */
    void
    stop()
    {
        if (pid_ < 0)
            return;
        terminate(pid_);
        reaped();
    }

  private:
    void
    reaped()
    {
        {
            std::lock_guard<std::mutex> lock(gChildrenMutex);
            gChildren.erase(pid_);
        }
        pid_ = -1;
        if (out_ >= 0)
            close(out_);
        out_ = -1;
    }

    pid_t pid_ = -1;
    int out_ = -1;
};

/** Failure accounting shared by every workload (see stats.py). */
struct Accounting
{
    std::uint64_t requests = 0;
    std::uint64_t requestsFailed = 0;
    std::uint64_t checks = 0;
    std::uint64_t checksFailed = 0;
    std::vector<std::string> notes;

    /** One correctness check: attempted, and failed unless @p ok. */
    void
    check(bool ok, const std::string &why)
    {
        ++checks;
        if (!ok) {
            ++checksFailed;
            fail(why);
        }
    }

    /** A note on a failure that is already counted. */
    void
    fail(const std::string &why)
    {
        if (notes.size() < 20)
            notes.push_back(why);
    }

    void
    add(const Accounting &other)
    {
        requests += other.requests;
        requestsFailed += other.requestsFailed;
        checks += other.checks;
        checksFailed += other.checksFailed;
        for (const auto &n : other.notes)
            fail(n);
    }

    Json
    toJson() const
    {
        Json j = Json::object();
        j.set("requests", Json::number(requests));
        j.set("requests_failed", Json::number(requestsFailed));
        j.set("checks", Json::number(checks));
        j.set("checks_failed", Json::number(checksFailed));
        Json n = Json::array();
        for (const auto &s : notes)
            n.push(Json::str(s));
        j.set("notes", std::move(n));
        return j;
    }
};

std::string
simKindLabel(const RunSpec &spec)
{
    switch (spec.sim) {
      case SimKind::Tapeworm:
        return spec.tw.kind == SimCacheKind::Unified ? "twd" : "tw";
      case SimKind::TraceDriven:
        return "c2k";
      default:
        return simKindName(spec.sim);
    }
}

/** Instructions plus data refs of one run. */
std::uint64_t
rowRefs(const RunOutcome &o)
{
    return o.run.totalInstr() + o.run.dataRefs;
}

/** An uninstrumented baseline run, as Runner::runWithSlowdown makes
 *  and memoizes it. */
struct Baseline
{
    RunSpec spec;
    std::uint64_t seed = 0;
    RunOutcome outcome;
};

/** The memo's key of a job's baseline: its workload, system and
 *  seed (nothing of the simulator). */
std::string
baselineKey(const ExperimentJob &job)
{
    RunSpec key;
    key.workload = job.spec.workload;
    key.sys = job.spec.sys;
    return formatRunSpec(key) + csprintf("|%llu",
                                         static_cast<unsigned long long>(
                                             job.seed));
}

/**
 * Every distinct baseline behind @p jobs, re-run here untimed so its
 * refs can be counted: a cold run makes each of them once, a warm one
 * none.
 */
std::map<std::string, Baseline>
baselinesOf(const std::vector<ExperimentJob> &jobs)
{
    std::map<std::string, Baseline> out;
    for (const auto &job : jobs) {
        if (!job.withSlowdown)
            continue;
        Baseline b;
        b.spec = job.spec;
        b.spec.sim = SimKind::None;
        b.seed = job.seed;
        out.emplace(baselineKey(job), std::move(b));
    }
    std::vector<Baseline *> todo;
    for (auto &[key, b] : out)
        todo.push_back(&b);
    parallelFor(
        todo.size(),
        [&](std::uint64_t i) {
            todo[i]->outcome = Runner::runOne(todo[i]->spec, todo[i]->seed);
        },
        std::min(hostCpus(), 4u));
    return out;
}

std::uint64_t
baselineRefs(const std::map<std::string, Baseline> &baselines)
{
    std::uint64_t refs = 0;
    for (const auto &[key, b] : baselines)
        refs += rowRefs(b.outcome);
    return refs;
}

// --------------------------------------------------------------------
// Per-layer probes shared by batch and served.

/** Keeps the drained addresses observable, so the drain is not
 *  optimised away. */
volatile Addr gDrainSink = 0;

/**
 * Drain every RefStream a workload would build (user binaries,
 * kernel and server text, their data segments) through nextBatch,
 * with no machine attached, in the proportions the workload spec
 * gives. Returns {refs, seconds}.
 */
std::pair<double, double>
drainStreams(const WorkloadSpec &w)
{
    obs::ScopedSpan span("bench.stream_probe", "workload");
    struct Part
    {
        const StreamParams *params;
        double refs;
    };
    const double instr = static_cast<double>(w.totalInstr);
    const double dataPer = w.dataRefsPer1k / 1000.0;
    std::vector<Part> parts;
    const double userShare =
        w.binaries.empty() ? 0.0 : w.fracUser / w.binaries.size();
    for (std::size_t b = 0; b < w.binaries.size(); ++b) {
        parts.push_back({&w.binaries[b], instr * userShare});
        if (b < w.binaryData.size())
            parts.push_back({&w.binaryData[b], instr * userShare * dataPer});
    }
    const std::pair<const StreamParams *, double> sys[] = {
        {&w.kernelText, w.fracKernel}, {&w.bsdText, w.fracBsd},
        {&w.xText, w.fracX}};
    const StreamParams *sysData[] = {&w.kernelData, &w.bsdData, &w.xData};
    for (unsigned i = 0; i < 3; ++i) {
        if (sys[i].second <= 0.0)
            continue;
        parts.push_back({sys[i].first, instr * sys[i].second});
        parts.push_back({sysData[i], instr * sys[i].second * dataPer});
    }

    constexpr unsigned kBatch = 256;
    Addr buf[kBatch];
    Addr sink = 0;
    double refs = 0.0;
    auto t0 = Clock::now();
    for (const Part &p : parts) {
        if (p.refs < 1.0 || p.params->textBytes == 0)
            continue;
        LoopNestStream stream(*p.params);
        auto n = static_cast<std::uint64_t>(p.refs);
        for (std::uint64_t done = 0; done < n; done += kBatch) {
            stream.nextBatch(buf, kBatch);
            sink ^= buf[kBatch - 1];
        }
        refs += static_cast<double>((n + kBatch - 1) / kBatch * kBatch);
    }
    double secs = secondsSince(t0);
    gDrainSink = sink;
    return {refs, secs};
}

/** Specio round trip per job: format, parse back, key. Also checks
 *  the round trip reproduces the text (a correctness row each). */
double
specioUsPerJob(const std::vector<ExperimentJob> &jobs, Accounting &acct)
{
    obs::ScopedSpan span("bench.specio", "harness");
    constexpr unsigned kLoops = 5;
    std::size_t keyBytes = 0;
    auto t0 = Clock::now();
    for (unsigned l = 0; l < kLoops; ++l) {
        for (const auto &job : jobs) {
            std::string text = formatRunSpec(job.spec);
            RunSpec back;
            std::string err;
            bool ok = parseRunSpec(text, back, err);
            keyBytes += cacheKey(back, job.seed, job.withSlowdown).size();
            if (l == 0) {
                acct.check(ok && formatRunSpec(back) == text,
                           "specio round trip differs for " + job.unit);
            }
        }
    }
    double secs = secondsSince(t0);
    acct.check(keyBytes > 0, "empty cache keys");
    return secs * 1e6 / static_cast<double>(kLoops * jobs.size());
}

/** experimentRowJson + dump per row, over @p outs. */
double
rowUsPerRow(const std::string &experiment,
            const std::vector<std::pair<std::string, RunOutcome>> &outs)
{
    obs::ScopedSpan span("bench.row_encode", "harness");
    constexpr unsigned kLoops = 20;
    std::size_t bytes = 0;
    auto t0 = Clock::now();
    for (unsigned l = 0; l < kLoops; ++l) {
        std::uint64_t seq = 0;
        for (const auto &[unit, o] : outs)
            bytes += experimentRowJson(experiment, unit, seq++, 0, 1, o)
                         .dump()
                         .size();
    }
    double secs = secondsSince(t0);
    if (bytes == 0)
        die("no rows encoded");
    return secs * 1e6 / static_cast<double>(kLoops * outs.size());
}

// --------------------------------------------------------------------
// Batch workloads: fig2_sweep and allactivity_trials.

struct BatchWorkload
{
    std::string registryName;
    /** Grids run side by side in a repetition, one thread each. */
    unsigned copies = 1;
    /** Trial threads inside each grid. */
    unsigned threads = 1;
    /** Workload scale divisor; 0 = the experiment's own. */
    unsigned scale = 0;
};

/**
 * fig2 runs on 1 trial thread, so a repetition runs min(nproc, 4)
 * copies of it side by side, each on its own thread and seed: on a
 * shared host one thread's speed follows its CPU's neighbours, and
 * the copies sample every CPU at once, as Table 7's trial threads do.
 */
BatchWorkload
batchWorkload(const std::string &name)
{
    const unsigned width = std::min(hostCpus(), 4u);
    if (name == "fig2_sweep")
        return {"fig2", width, 1, 1000};
    if (name == "allactivity_trials")
        return {"table7", 1, width, 0};
    die("unknown batch workload '" + name + "'");
}

/** The benchmark seed of copy @p c: copy 0 keeps the seed itself. */
std::uint64_t
copySeed(std::uint64_t seed, unsigned c)
{
    return seed + 1009ull * c;
}

/**
 * The registry experiment with every trial seed derived from the
 * benchmark seed. The default seed (7) gives fig2 its seed 7 and
 * table7 its base 0xbead, i.e. the registry's own plans.
 */
ExperimentDef
seededDef(const std::string &workload, std::uint64_t seed)
{
    BatchWorkload bw = batchWorkload(workload);
    // The unified-cache row per size (fig2's TW_FIG2_DCACHE switch).
    setenv("TW_FIG2_DCACHE", "1", 1);
    const ExperimentDef *reg =
        ExperimentRegistry::instance().find(bw.registryName);
    if (!reg)
        die("experiment '" + bw.registryName + "' is not registered");
    ExperimentDef def = *reg;
    if (bw.scale)
        def.scaleDiv = bw.scale;
    auto grid = def.grid;
    const bool fig2 = bw.registryName == "fig2";
    const std::uint64_t base = 0xbeadull ^ kDefaultSeed ^ seed;
    def.grid = [grid, fig2, seed, base](unsigned scale) {
        std::vector<ExperimentUnit> units = grid(scale);
        for (auto &u : units) {
            u.plan.seeds = fig2 ? std::vector<std::uint64_t>{seed}
                                : derivedTrialSeeds(u.plan.seeds.size(),
                                                    base);
        }
        return units;
    };
    return def;
}

/** Collects canonical rows and when each was delivered. */
class RowSink : public StatSink
{
  public:
    Clock::time_point t0;
    std::vector<std::string> rows;
    std::vector<double> latency;
    std::vector<std::pair<std::string, RunOutcome>> outcomes;

    void
    row(const ExperimentRow &r) override
    {
        rows.push_back(experimentRowJson(r.experiment, r.unit, r.seq,
                                         r.trial, r.seed, *r.outcome,
                                         r.costBackend)
                           .dump());
        latency.push_back(secondsSince(t0));
        outcomes.emplace_back(r.unit, *r.outcome);
    }
};

struct GridResult
{
    double wall = 0.0;
    RowSink sink;
};

/**
 * One repetition: every copy's grid run at once on @p pool (one worker
 * per copy, kept across repetitions so each keeps its trial arena),
 * each wrapped in a `bench.grid` span. Cold clears the baseline memo
 * first. Returns the copies' results; @p counters gets the delta.
 */
std::vector<GridResult>
runRep(ThreadPool &pool, const std::vector<ExperimentDef> &defs,
       unsigned scale, bool cold, Counters &counters)
{
    if (cold)
        Runner::clearBaselineCache();
    std::vector<GridResult> grids(defs.size());
    RunExperimentOptions opts;
    opts.scaleDiv = scale;
    Counters before = localCounters();
    for (std::size_t c = 0; c < defs.size(); ++c) {
        pool.run([&, c] {
            obs::ScopedSpan span("bench.grid", "harness");
            GridResult &g = grids[c];
            g.sink.t0 = Clock::now();
            runExperiment(defs[c], g.sink, opts);
            g.wall = secondsSince(g.sink.t0);
        });
    }
    pool.wait();
    counters = localCounters() - before;
    return grids;
}

/** Compare @p rows with the reference; count every row checked. */
void
checkRows(const std::vector<std::string> &rows,
          const std::vector<std::string> &ref, const std::string &what,
          Accounting &acct)
{
    std::size_t n = std::max(rows.size(), ref.size());
    acct.checks += n;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= rows.size() || i >= ref.size() || rows[i] != ref[i])
            ++bad;
    }
    if (bad) {
        acct.checksFailed += bad;
        acct.fail(csprintf("%zu of %zu rows differ from %s", bad, n,
                           what.c_str()));
    }
}

/** At the default seed the rows must be byte-identical to
 *  `bench_driver --run X --rows` at the same settings. */
void
checkAgainstDriver(const std::string &driver, const std::string &reg,
                   unsigned threads, unsigned scale,
                   const std::string &rows_path,
                   const std::vector<std::string> &rows, Accounting &acct)
{
    Process p;
    p.start({driver, "--run", reg, "--threads", std::to_string(threads),
             "--scale", std::to_string(scale), "--rows", rows_path},
            Process::Out::Null, {"TW_FIG2_DCACHE=1"});
    ++acct.requests;
    if (p.wait() != 0) {
        ++acct.requestsFailed;
        acct.fail("bench_driver exited non-zero");
        return;
    }
    std::ifstream in(rows_path);
    std::vector<std::string> ref;
    for (std::string line; std::getline(in, line);)
        ref.push_back(line);
    checkRows(rows, ref, "bench_driver --rows", acct);
}

/** Spawn `twbench setup` @p n times: process start to the job list
 *  built (the last step before the first job is dispatched). */
std::vector<double>
measureSetup(const std::string &self, const std::string &workload,
             std::uint64_t seed, unsigned n)
{
    std::vector<double> out;
    for (unsigned i = 0; i < n; ++i) {
        Process p;
        auto t0 = Clock::now();
        p.start({self, "setup", "--workload", workload, "--seed",
                 std::to_string(seed)},
                Process::Out::Pipe);
        std::string ready = p.line();
        double s = secondsSince(t0);
        if (p.wait() != 0 || ready.rfind("ready ", 0) != 0)
            die("set-up probe failed: '" + ready + "'");
        out.push_back(s);
    }
    return out;
}

struct Options
{
    std::string mode;
    std::string workload;
    std::string out;
    std::string driver;
    std::string twserved;
    std::string self;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
};

std::string
dirOf(const std::string &path)
{
    auto slash = path.rfind('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

int
runBatch(const Options &o)
{
    BatchWorkload bw = batchWorkload(o.workload);
    setDefaultThreads(bw.threads);
    std::vector<ExperimentDef> defs;
    for (unsigned c = 0; c < bw.copies; ++c)
        defs.push_back(seededDef(o.workload, copySeed(o.seed, c)));
    const unsigned scale = defs[0].scaleDiv;
    std::vector<std::vector<ExperimentJob>> jobs;
    for (const auto &def : defs)
        jobs.push_back(experimentJobs(def, scale));
    Accounting acct;

    Json out = Json::object();
    out.set("workload", Json::str(o.workload));
    out.set("seed", Json::number(o.seed));
    Json fp = fingerprint(bw.threads, scale);
    fp.set("copies", Json::number(bw.copies));
    out.set("fingerprint", std::move(fp));
    out.set("setup_s", numbers(measureSetup(o.self, o.workload, o.seed, 41)));

    // Repetitions alternate cold (baseline memo cleared, as a fresh
    // process starts) and warm (memo kept, as a long-lived process has
    // it); with --trace 1 each round adds a traced cold repetition, so
    // the tracing overhead compares repetitions run side by side.
    // Every copy's rows must repeat byte for byte.
    const unsigned period = o.trace ? 3 : 2;
    std::vector<std::vector<std::string>> firstRows(bw.copies);
    std::vector<std::vector<std::pair<std::string, RunOutcome>>>
        firstOutcomes(bw.copies);
    std::uint64_t allRowRefs = 0;
    std::vector<std::uint64_t> baselinesRun[2];
    std::vector<std::pair<bool, Json>> untracedReps;  // {cold, sample}
    Json tracedReps = Json::array();
    ThreadPool pool(bw.copies);
    auto t0 = Clock::now();
    for (unsigned rep = 0;; ++rep) {
        const unsigned phase = rep % period;
        const bool traced = phase == 2;
        std::string path;
        if (traced) {
            path = csprintf("%s/trace-%s-%u.json", dirOf(o.out).c_str(),
                            o.workload.c_str(), rep);
            std::string err;
            if (!obs::traceStart(path, &err))
                die("traceStart: " + err);
        }
        Counters counters;
        std::vector<GridResult> grids =
            runRep(pool, defs, scale, phase != 1, counters);
        if (traced)
            obs::traceStop();
        Json walls = Json::array();
        std::vector<double> latency;
        for (unsigned c = 0; c < bw.copies; ++c) {
            const RowSink &sink = grids[c].sink;
            if (rep == 0) {
                firstRows[c] = sink.rows;
                firstOutcomes[c] = sink.outcomes;
                for (const auto &[unit, oc] : sink.outcomes)
                    allRowRefs += rowRefs(oc);
            } else {
                checkRows(sink.rows, firstRows[c], "the first repetition",
                          acct);
            }
            walls.push(Json::number(grids[c].wall));
            latency.insert(latency.end(), sink.latency.begin(),
                           sink.latency.end());
        }
        baselinesRun[phase == 1].push_back(
            counters["engine.baseline.misses"]);
        Json j = Json::object();
        j.set("walls_s", std::move(walls));
        if (traced) {
            j.set("trace", Json::str(path));
            j.set("counters", countersJson(counters));
            tracedReps.push(std::move(j));
        } else {
            j.set("rows", Json::number(grids[0].sink.rows.size()));
            j.set("latency_s", numbers(latency));
            untracedReps.emplace_back(phase == 0, std::move(j));
        }
        // At least 11 rounds: warm_tail_ms needs ten warm samples
        // beyond it.
        if (phase == period - 1 && rep / period + 1 >= 11
            && secondsSince(t0) >= o.seconds)
            break;
    }

    // A cold repetition runs each distinct baseline once, a warm one
    // none; every row's baseline cycles must be the re-run's.
    std::vector<ExperimentJob> allJobs;
    for (unsigned c = 0; c < bw.copies; ++c) {
        if (firstOutcomes[c].size() != jobs[c].size())
            die("the grid emitted a different number of rows than jobs");
        allJobs.insert(allJobs.end(), jobs[c].begin(), jobs[c].end());
    }
    const auto baselines = baselinesOf(allJobs);
    for (unsigned c = 0; c < bw.copies; ++c) {
        for (std::size_t i = 0; i < jobs[c].size(); ++i) {
            if (!jobs[c][i].withSlowdown)
                continue;
            const Baseline &b = baselines.at(baselineKey(jobs[c][i]));
            acct.check(b.outcome.run.cycles
                           == firstOutcomes[c][i].second.normalCycles,
                       "baseline re-run disagrees with the memo");
        }
    }
    // Simulated refs of a repetition: every copy's rows, plus every
    // baseline when cold.
    const std::uint64_t allBaseRefs = baselineRefs(baselines);
    Json cold = Json::array(), warm = Json::array();
    for (auto &[isCold, j] : untracedReps) {
        j.set("refs", Json::number(allRowRefs + (isCold ? allBaseRefs : 0)));
        (isCold ? cold : warm).push(std::move(j));
    }
    out.set("cold", std::move(cold));
    out.set("warm", std::move(warm));
    for (std::uint64_t n : baselinesRun[0]) {
        acct.check(n == baselines.size(),
                   csprintf("a cold repetition ran %llu baselines, not %zu",
                            static_cast<unsigned long long>(n),
                            baselines.size()));
    }
    for (std::uint64_t n : baselinesRun[1])
        acct.check(n == 0, "a warm repetition re-ran a baseline");

    const ExperimentDef &def = defs[0];
    if (o.seed == kDefaultSeed) {
        checkAgainstDriver(o.driver, def.name, bw.threads, scale,
                           dirOf(o.out) + "/driver-rows.ndjson",
                           firstRows[0], acct);
    }

    if (def.name == "fig2") {
        // Mean absolute error of the Tapeworm slowdown column against
        // Figure 2's published column, for the benchmark seed's copy.
        std::map<std::string, double> slow;
        for (const auto &[unit, oc] : firstOutcomes[0])
            slow[unit] = oc.slowdown;
        double err = 0.0;
        for (unsigned i = 0; i < 11; ++i)
            err += std::abs(slow[csprintf("tw/%uK", kFig2Kb[i])]
                            - kFig2PaperTw[i]);
        out.set("paper_err", Json::number(err / 11.0));
    }

    if (o.trace) {
        Json traced = Json::object();
        traced.set("threads", Json::number(bw.threads));
        Json kinds = Json::object(), rows = Json::array();
        for (const auto &job : jobs[0])
            kinds.set(job.unit, Json::str(simKindLabel(job.spec)));
        for (const auto &outs : firstOutcomes) {
            for (const auto &[unit, oc] : outs) {
                Json row = Json::object();
                row.set("unit", Json::str(unit));
                row.set("refs", Json::number(rowRefs(oc)));
                rows.push(std::move(row));
            }
        }
        traced.set("kinds", std::move(kinds));
        traced.set("rows", std::move(rows));
        traced.set("reps", std::move(tracedReps));

        // Probes, each timed by the benchmark around one layer call.
        std::string probeTrace = dirOf(o.out) + "/trace-probe.json";
        std::string perr;
        if (!obs::traceStart(probeTrace, &perr))
            die("traceStart: " + perr);
        Json probe = Json::object();
        std::vector<double> gridS;
        for (unsigned i = 0; i < 5; ++i) {
            obs::ScopedSpan span("bench.grid_build", "harness");
            auto g0 = Clock::now();
            auto again = experimentJobs(def, scale);
            gridS.push_back(secondsSince(g0));
            acct.check(again.size() == jobs[0].size(),
                       "experimentJobs is not deterministic");
        }
        std::sort(gridS.begin(), gridS.end());
        probe.set("grid_s", Json::number(gridS[gridS.size() / 2]));

        double genRefs = 0.0, genSecs = 0.0;
        std::set<std::string> seen;
        for (const auto &job : jobs[0]) {
            if (!seen.insert(job.spec.workload.name).second)
                continue;
            auto [refs, secs] = drainStreams(job.spec.workload);
            genRefs += refs;
            genSecs += secs;
        }
        probe.set("gen_ns_per_ref", Json::number(genSecs * 1e9 / genRefs));
        probe.set("specio_us_per_job",
                  Json::number(specioUsPerJob(jobs[0], acct)));
        probe.set("row_us_per_row",
                  Json::number(rowUsPerRow(def.name, firstOutcomes[0])));
        obs::traceStop();
        traced.set("probe", std::move(probe));
        traced.set("baseline_refs", Json::number(allBaseRefs));
        out.set("traced", std::move(traced));
    }

    out.set("rss_mb", Json::number(peakRssMb(getpid())));
    out.set("accounting", acct.toJson());
    std::ofstream f(o.out);
    f << out.dump() << "\n";
    return f ? 0 : 2;
}

int
runSetupProbe(const Options &o)
{
    BatchWorkload bw = batchWorkload(o.workload);
    setDefaultThreads(bw.threads);
    ExperimentDef def = seededDef(o.workload, o.seed);
    std::vector<ExperimentJob> jobs = experimentJobs(def, def.scaleDiv);
    std::printf("ready %zu\n", jobs.size());
    std::fflush(stdout);
    return jobs.empty() ? 1 : 0;
}

// --------------------------------------------------------------------
// Served workload: served_sweeps.

constexpr unsigned kSeedsPerSweep = 32;
constexpr unsigned kSweepSets = 24;
constexpr unsigned kServedScale = 4000;
constexpr unsigned kWorkerThreads = 2;
const char *const kWorkerSocks[] = {"./w0.sock", "./w1.sock"};
const char *const kRouterSock = "./r.sock";

RunSpec
servedSpec()
{
    RunSpec spec;
    spec.workload = makeWorkload("espresso", kServedScale);
    spec.sys.scope = SimScope::userOnly();
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(2048);
    return spec;
}

/** One request of the closed loop: a 32-seed sweep or a smoke
 *  run_experiment (set < 0). */
struct Request
{
    int set = -1;
    std::vector<std::uint64_t> seeds;
};

std::vector<Request>
servedRequests(std::uint64_t seed)
{
    const std::uint64_t base = 40'000'000ull + seed * 10'000ull;
    std::vector<Request> reqs;
    for (unsigned s = 0; s < kSweepSets; ++s) {
        Request r;
        r.set = static_cast<int>(s);
        for (unsigned i = 0; i < kSeedsPerSweep; ++i)
            r.seeds.push_back(base + s * kSeedsPerSweep + i);
        reqs.push_back(std::move(r));
        if (s % 4 == 3)
            reqs.push_back(Request{});
    }
    return reqs;
}

bool
sameOutcome(const RunOutcome &a, const RunOutcome &b)
{
    return outcomeToJson(a).dump() == outcomeToJson(b).dump();
}

/** The served pool: two workers and a router, spawned fresh. */
class Pool
{
  public:
    explicit Pool(const std::string &twserved,
                  const std::vector<std::string> &worker_env = {})
    {
        for (unsigned w = 0; w < 2; ++w) {
            unlink(kWorkerSocks[w]);
            std::vector<std::string> env;
            if (w < worker_env.size())
                env.push_back(worker_env[w]);
            workers_[w].start({twserved, "--socket", kWorkerSocks[w],
                               "--workers",
                               std::to_string(kWorkerThreads), "--quiet"},
                              Process::Out::Null, env);
        }
        for (unsigned w = 0; w < 2; ++w)
            waitPing(kWorkerSocks[w]);
        unlink(kRouterSock);
        router_.start({twserved, "--router", "--socket", kRouterSock,
                       "--shards",
                       std::string(kWorkerSocks[0]) + "," + kWorkerSocks[1],
                       "--quiet"});
        waitPing(kRouterSock);
        waitShards();
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;
    ~Pool() { shutdown(); }

    /** Sum of the three processes' peak RSS. */
    double
    rssMb() const
    {
        return peakRssMb(router_.pid()) + peakRssMb(workers_[0].pid())
               + peakRssMb(workers_[1].pid());
    }

    /** Drain and stop every process (router first). */
    void
    shutdown()
    {
        for (Process *p : {&router_, &workers_[0], &workers_[1]})
            p->stop();
    }

    static void
    connect(serve::Client &c, const char *sock)
    {
        std::string err;
        if (!c.connectUnix(sock, &err))
            die(std::string("connect ") + sock + ": " + err);
    }

  private:
    static void
    waitPing(const char *sock)
    {
        auto t0 = Clock::now();
        while (secondsSince(t0) < 30.0) {
            serve::Client c;
            if (c.connectUnix(sock) && c.ping())
                return;
            usleep(2000);
        }
        die(std::string("no ping answer on ") + sock);
    }

    /** Until the router's stats fan-out hears from both workers. */
    static void
    waitShards()
    {
        auto t0 = Clock::now();
        serve::Client c;
        connect(c, kRouterSock);
        while (secondsSince(t0) < 30.0) {
            Json stats;
            const Json *up = nullptr;
            if (c.stats(stats) && (up = stats.findPath("router.shards_up"))
                && up->asU64() == 2)
                return;
            usleep(2000);
        }
        die("the router never reached both workers");
    }

    Process workers_[2];
    Process router_;
};

Counters
poolCounters(const char *sock)
{
    serve::Client c;
    Pool::connect(c, sock);
    Json snap;
    std::string err;
    if (!c.metrics(snap, nullptr, false, &err))
        die(std::string("metrics on ") + sock + ": " + err);
    return countersFromSnapshot(snap);
}

Counters
workerCounters()
{
    Counters c = poolCounters(kWorkerSocks[0]);
    c += poolCounters(kWorkerSocks[1]);
    return c;
}

/** Per-phase samples of the closed loop. */
struct Phase
{
    double wall = 0.0;
    std::uint64_t rows = 0;
    /** Refs of the rows the workers computed (cold: every row). */
    std::uint64_t rowRefs = 0;
    /** Refs of every run the workers made, from engine.refs.*. */
    std::uint64_t refs = 0;
    std::vector<double> latency;
};

/**
 * Closed loop over @p conns connections: each sends its next request
 * only after the previous one's last row. Cold: every request once,
 * none of it cached, rows recorded as the reference. Warm: cycle the
 * same requests until @p seconds pass; every row must be cached and
 * equal the reference.
 */
Phase
closedLoop(unsigned conns, const std::vector<Request> &reqs, bool warm,
           double seconds, std::vector<std::vector<RunOutcome>> &ref,
           const std::vector<std::string> &smoke_ref, Accounting &acct)
{
    const RunSpec spec = servedSpec();
    std::atomic<std::size_t> next{0};
    std::vector<Phase> parts(conns);
    std::vector<Accounting> accts(conns);
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            Pool::connect(client, kRouterSock);
            Accounting &a = accts[c];
            Phase &part = parts[c];
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (!warm && i >= reqs.size())
                    break;
                if (warm && secondsSince(t0) >= seconds)
                    break;
                const Request &r = reqs[i % reqs.size()];
                obs::ScopedSpan span(r.set < 0 ? "bench.request.smoke"
                                               : "bench.request.sweep",
                                     "client");
                auto s0 = Clock::now();
                ++a.requests;
                if (r.set < 0) {
                    serve::ExperimentResult res =
                        client.runExperiment("smoke");
                    part.latency.push_back(secondsSince(s0));
                    const std::uint64_t n = res.rows.size();
                    if (!res.ok || n != smoke_ref.size()
                        || res.cached != (warm ? n : 0)) {
                        ++a.requestsFailed;
                        a.fail(csprintf("smoke request: %s %s cached "
                                        "%llu/%llu",
                                        res.errorCode.c_str(),
                                        res.errorMsg.c_str(),
                                        static_cast<unsigned long long>(
                                            res.cached),
                                        static_cast<unsigned long long>(n)));
                        continue;
                    }
                    for (std::size_t k = 0; k < n; ++k) {
                        const auto &row = res.rows[k];
                        if (!warm)
                            part.rowRefs += rowRefs(row.outcome);
                        a.check(experimentRowJson("smoke", row.unit, row.seq,
                                                  row.trial, row.seed,
                                                  row.outcome)
                                        .dump()
                                    == smoke_ref[k],
                                "served smoke row differs from local");
                    }
                    part.rows += n;
                    continue;
                }
                serve::SweepResult res = client.submitSweep(spec, r.seeds);
                part.latency.push_back(secondsSince(s0));
                const std::uint64_t n = r.seeds.size();
                if (!res.ok || res.rows.size() != n
                    || res.cached != (warm ? n : 0)) {
                    ++a.requestsFailed;
                    a.fail(csprintf("sweep set %d: %s %s cached %llu/%llu",
                                    r.set, res.errorCode.c_str(),
                                    res.errorMsg.c_str(),
                                    static_cast<unsigned long long>(
                                        res.cached),
                                    static_cast<unsigned long long>(n)));
                    continue;
                }
                part.rows += n;
                auto &setRef = ref[static_cast<std::size_t>(r.set)];
                if (!warm) {
                    setRef.assign(n, RunOutcome{});
                    for (const auto &row : res.rows) {
                        part.rowRefs += rowRefs(row.outcome);
                        setRef[row.trial] = row.outcome;
                    }
                    continue;
                }
                for (const auto &row : res.rows) {
                    a.check(row.trial < setRef.size()
                                && sameOutcome(row.outcome,
                                               setRef[row.trial]),
                            "warm row differs from its cold row");
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    Phase p;
    p.wall = secondsSince(t0);
    for (unsigned c = 0; c < conns; ++c) {
        p.latency.insert(p.latency.end(), parts[c].latency.begin(),
                         parts[c].latency.end());
        p.rows += parts[c].rows;
        p.rowRefs += parts[c].rowRefs;
        acct.add(accts[c]);
    }
    return p;
}

Json
phaseJson(const Phase &p)
{
    Json j = Json::object();
    j.set("wall_s", Json::number(p.wall));
    j.set("rows", Json::number(p.rows));
    j.set("row_refs", Json::number(p.rowRefs));
    j.set("refs", Json::number(p.refs));
    j.set("latency_s", numbers(p.latency));
    return j;
}

/** Warm p50 of @p seeds sent @p n times to @p sock. */
double
warmP50(const char *sock, const std::vector<std::uint64_t> &seeds,
        unsigned n, Accounting &acct)
{
    serve::Client c;
    Pool::connect(c, sock);
    const RunSpec spec = servedSpec();
    std::vector<double> lat;
    for (unsigned i = 0; i < n; ++i) {
        obs::ScopedSpan span("bench.request.hop", "client");
        auto t0 = Clock::now();
        serve::SweepResult res = c.submitSweep(spec, seeds);
        lat.push_back(secondsSince(t0));
        ++acct.requests;
        if (!res.ok || res.cached != seeds.size()) {
            ++acct.requestsFailed;
            acct.fail(std::string("hop probe not fully cached on ") + sock);
        }
    }
    std::sort(lat.begin(), lat.end());
    return lat[lat.size() / 2];
}

int
runServed(const Options &o)
{
    // Sockets are short names relative to the output directory.
    const std::string dir = dirOf(o.out);
    if (chdir(dir.c_str()) != 0)
        die("chdir " + dir + ": " + std::strerror(errno));
    const RunSpec spec = servedSpec();
    const std::vector<Request> reqs = servedRequests(o.seed);
    const unsigned conns = std::min(hostCpus(), 4u);
    Accounting acct;

    Json out = Json::object();
    out.set("workload", Json::str("served_sweeps"));
    out.set("seed", Json::number(o.seed));
    Json fp = fingerprint(conns, kServedScale);
    fp.set("pool", Json::str(csprintf("router + 2 workers x %u threads",
                                      kWorkerThreads)));
    out.set("fingerprint", std::move(fp));

    // Local references: the smoke experiment's canonical rows, and
    // (below) a sample of (spec, seed) pairs computed through Runner.
    const ExperimentDef &smoke = *ExperimentRegistry::instance().find("smoke");
    std::vector<std::string> smokeRef;
    {
        RowSink sink;
        runExperiment(smoke, sink);
        smokeRef = sink.rows;
    }

    // The cold pass asks each distinct request once: every sweep set,
    // and the smoke experiment only the first time, since a repeat
    // would come back from the result cache.
    std::vector<Request> coldReqs;
    bool smokeSent = false;
    for (const Request &r : reqs) {
        if (r.set < 0 && std::exchange(smokeSent, true))
            continue;
        coldReqs.push_back(r);
    }

    // The jobs of the cold pass and their baselines, each made once on
    // a fresh pool; re-run here untimed to count their refs.
    std::vector<ExperimentJob> coldJobs;
    for (const Request &r : coldReqs) {
        if (r.set < 0) {
            auto smokeJobs = experimentJobs(smoke, smoke.scaleDiv);
            coldJobs.insert(coldJobs.end(), smokeJobs.begin(),
                            smokeJobs.end());
            continue;
        }
        for (std::uint64_t s : r.seeds) {
            ExperimentJob j;
            j.unit = csprintf("set%d", r.set);
            j.seed = s;
            j.withSlowdown = true;
            j.spec = spec;
            coldJobs.push_back(std::move(j));
        }
    }
    const auto coldBaselines = baselinesOf(coldJobs);
    const std::uint64_t baseRefs = baselineRefs(coldBaselines);

    // Extra pool spawns for set-up samples alone.
    Json setup = Json::array();
    for (unsigned i = 0; i < 16; ++i) {
        auto s0 = Clock::now();
        Pool pool(o.twserved);
        setup.push(Json::number(secondsSince(s0)));
    }

    // Each cycle: a fresh pool (set-up sample), flush, one cold pass,
    // then a warm phase; about 3.5 s a cycle gives enough cold passes
    // for a steady median. With --trace 1 the middle cycle is traced,
    // so the tracing overhead compares cycles that ran side by side.
    const unsigned cycles =
        std::max(3u, static_cast<unsigned>(o.seconds / 3.5));
    const double budget = o.seconds / cycles;
    Json cold = Json::array(), warm = Json::array();
    std::vector<double> rss;
    Json traced = Json::object();
    for (unsigned cyc = 0; cyc < cycles; ++cyc) {
        const bool tracing = o.trace && cyc == cycles / 2;
        auto c0 = Clock::now();
        std::string tracePath;
        if (tracing) {
            tracePath = dir + "/trace-served.json";
            std::string err;
            if (!obs::traceStart(tracePath, &err))
                die("traceStart: " + err);
        }
        std::vector<std::string> workerEnv, workerTraces;
        for (unsigned w = 0; tracing && w < 2; ++w) {
            workerTraces.push_back(csprintf("%s/trace-served-w%u.json",
                                            dir.c_str(), w));
            workerEnv.push_back("TW_TRACE=" + workerTraces.back());
        }
        Pool pool(o.twserved, workerEnv);
        double setupS = secondsSince(c0);
        for (const char *w : kWorkerSocks) {
            serve::Client c;
            Pool::connect(c, w);
            if (!c.flushCache())
                die(std::string("flush-cache failed on ") + w);
        }
        Counters w0 = workerCounters();
        Counters r0 = poolCounters(kRouterSock);

        std::vector<std::vector<RunOutcome>> ref(kSweepSets);
        Phase pc;
        {
            obs::ScopedSpan span("bench.phase.cold", "client");
            pc = closedLoop(conns, coldReqs, false, 0.0, ref, smokeRef,
                            acct);
        }
        Counters w1 = workerCounters();
        Counters wCold = w1 - w0;
        pc.refs = pc.rowRefs + baseRefs;
        acct.check(wCold["engine.baseline.misses"] == coldBaselines.size(),
                   "the cold pass did not run one baseline per seed");

        // Sampled bit-identity: served rows against Runner locally.
        const Request &sample = reqs[cyc % 2];
        for (unsigned k = 0; k < 2 && !ref[sample.set].empty(); ++k) {
            unsigned t = (cyc * 7 + k * 13) % kSeedsPerSweep;
            RunOutcome local = Runner::runWithSlowdown(spec, sample.seeds[t]);
            acct.check(sameOutcome(local, ref[sample.set][t]),
                       "served row differs from the local Runner row");
        }

        double warmSecs = std::max(0.5, budget - secondsSince(c0));
        Phase pw;
        {
            obs::ScopedSpan span("bench.phase.warm", "client");
            pw = closedLoop(conns, reqs, true, warmSecs, ref, smokeRef,
                            acct);
        }
        pw.refs = simRefs(workerCounters() - w1);
        acct.check(pw.refs == 0, "a warm phase ran the engine");
        if (!tracing) {
            cold.push(phaseJson(pc));
            warm.push(phaseJson(pw));
            setup.push(Json::number(setupS));
            rss.push_back(pool.rssMb());
            continue;
        }

        // Traced cycle: router hop, then every process's counters.
        const serve::ShardMap ring({kWorkerSocks[0], kWorkerSocks[1]});
        std::vector<std::uint64_t> owned;
        for (std::uint64_t s : reqs[0].seeds) {
            if (ring.ownerIndex(specFingerprint(spec, s, true)) == 0)
                owned.push_back(s);
        }
        double hop = 0.0;
        if (!owned.empty()) {
            double viaRouter = warmP50(kRouterSock, owned, 200, acct);
            double direct = warmP50(kWorkerSocks[0], owned, 200, acct);
            hop = viaRouter - direct;
        }
        traced.set("router_hop_s", Json::number(hop));
        traced.set("worker_counters",
                   countersJson(workerCounters() - w0));
        traced.set("router_counters",
                   countersJson(poolCounters(kRouterSock) - r0));
        pool.shutdown();
        obs::traceStop();
        traced.set("trace", Json::str(tracePath));
        Json wt = Json::array();
        for (const auto &t : workerTraces)
            wt.push(Json::str(t));
        traced.set("worker_traces", std::move(wt));
        traced.set("cold", phaseJson(pc));
        traced.set("warm", phaseJson(pw));
        traced.set("baseline_refs", Json::number(baseRefs));
        traced.set("threads", Json::number(conns));
        traced.set("wall_s", Json::number(pc.wall + pw.wall));
    }
    out.set("setup_s", std::move(setup));
    out.set("cold", std::move(cold));
    out.set("warm", std::move(warm));
    std::sort(rss.begin(), rss.end());
    out.set("rss_mb", Json::number(rss[rss.size() / 2]));

    if (o.trace) {
        std::string probeTrace = dir + "/trace-probe.json";
        std::string perr;
        if (!obs::traceStart(probeTrace, &perr))
            die("traceStart: " + perr);
        Json probe = Json::object();
        std::vector<double> gridS;
        for (unsigned i = 0; i < 5; ++i) {
            obs::ScopedSpan span("bench.grid_build", "harness");
            auto g0 = Clock::now();
            acct.check(servedRequests(o.seed).size() == reqs.size()
                           && formatRunSpec(servedSpec())
                                  == formatRunSpec(spec),
                       "the served grid is not deterministic");
            gridS.push_back(secondsSince(g0));
        }
        std::sort(gridS.begin(), gridS.end());
        probe.set("grid_s", Json::number(gridS[gridS.size() / 2]));
        auto [refs, secs] = drainStreams(spec.workload);
        probe.set("gen_ns_per_ref", Json::number(secs * 1e9 / refs));
        probe.set("specio_us_per_job",
                  Json::number(specioUsPerJob(coldJobs, acct)));
        std::vector<std::pair<std::string, RunOutcome>> outs;
        outs.emplace_back("set0",
                          Runner::runWithSlowdown(spec, reqs[0].seeds[0]));
        probe.set("row_us_per_row", Json::number(rowUsPerRow("served", outs)));
        obs::traceStop();
        traced.set("probe", std::move(probe));
        out.set("traced", std::move(traced));
    }

    out.set("accounting", acct.toJson());
    std::ofstream f(o.out);
    f << out.dump() << "\n";
    return f ? 0 : 2;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    if (argc < 2)
        die("usage: twbench batch|served|setup [options]");
    o.mode = argv[1];
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0)
        die("cannot resolve /proc/self/exe");
    exe[n] = '\0';
    o.self = exe;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + a);
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 0);
            if (v.empty() || *end)
                die("--seed: not a number: " + v);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0.0))
                die("--seconds: not a positive number: " + v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                die("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out") {
            o.out = v;
        } else if (a == "--driver") {
            o.driver = v;
        } else if (a == "--twserved") {
            o.twserved = v;
        } else {
            die("unknown option " + a);
        }
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    refuseProgramKnobs();
    Options o = parseArgs(argc, argv);
    if (o.mode == "setup")
        return runSetupProbe(o);
    if (o.out.empty())
        die("--out is required");
    if (o.mode == "batch") {
        if (o.driver.empty())
            die("--driver is required");
        return runBatch(o);
    }
    if (o.mode == "served") {
        if (o.twserved.empty())
            die("--twserved is required");
        return runServed(o);
    }
    die("unknown mode '" + o.mode + "'");
}
