/**
 * @file
 * twctl — command-line client for twserved.
 *
 * Builds a RunSpec from the same flags twsim takes, derives the
 * trial seed list exactly the way runTrials() does, and submits the
 * sweep over the socket. `twctl local` computes the identical sweep
 * in-process with no server — with --canonical both paths print one
 * canonical RunOutcome line per trial, so
 *
 *   diff <(twctl local ...) <(twctl --socket S submit ...)
 *
 * is the bit-for-bit served-vs-direct check the smoke test runs.
 *
 * Examples:
 *   twctl --socket /tmp/tw.sock ping
 *   twctl --socket /tmp/tw.sock submit --workload mpeg_play \
 *         --cache 1K --indexing virtual --scope user --trials 4
 *   twctl --socket /tmp/tw.sock stats --path cache.hits
 *   twctl --socket /tmp/tw.sock shutdown
 */

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/env.hh"
#include "harness/cli_spec.hh"
#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "serve/client.hh"
#include "serve/shard/shard_map.hh"
#include "tapeworm.hh"

using namespace tw;
using namespace tw::serve;

namespace
{

void
usage()
{
    std::printf(
        "twctl — client for the twserved experiment service\n\n"
        "usage: twctl [--socket PATH | --tcp HOST:PORT] COMMAND "
        "[options]\n\n"
        "commands:\n"
        "  submit       submit a sweep and stream results\n"
        "  local        run the same sweep in-process (no "
        "server)\n"
        "  stats        print server stats JSON\n"
        "  metrics      print the process-wide metric registry\n"
        "               (--prom for Prometheus text format)\n"
        "  trace-lint FILE  validate a --trace-out / TW_TRACE\n"
        "               file (Chrome trace-event JSON); with\n"
        "               --require A,B each name must appear\n"
        "  flush-cache  drop the server's result cache\n"
        "  ping         check liveness; --retry N --retry-delay-ms "
        "M\n"
        "               retries connect+ping until the server (or\n"
        "               router pool) answers — the startup wait\n"
        "               primitive the smoke scripts use\n"
        "  shard-owner  no server: print which pool member owns "
        "each\n"
        "               trial of the sweep (--pool A,B,C plus the\n"
        "               usual sweep flags; --vnodes N to match a\n"
        "               non-default ring)\n"
        "  shutdown     ask the server to drain and exit\n\n"
        "sweep options (submit and local):\n"
        "  --workload NAME   (default mpeg_play)\n"
        "  --cache SIZE      e.g. 1K, 32K (default 4K)\n"
        "  --line BYTES      (default 16)\n"
        "  --assoc N         (default 1)\n"
        "  --indexing MODE   physical|virtual (default physical)\n"
        "  --policy NAME     fifo|random|lru\n"
        "  --sim KIND        tapeworm|tlb|trace|oracle (default "
        "tapeworm)\n"
        "  --kind KIND       instruction|data|unified\n"
        "  --scope SCOPE     all|user|servers|kernel (default "
        "all)\n"
        "  --sample N        simulate 1/N of the sets\n"
        "  --cost-backend B  miss pricing: table5|ideal|"
        "dram[:k=v,...]\n"
        "  --tlb-entries N   --tlb-page SIZE\n"
        "  --scale N         divide instruction counts by N\n"
        "                    (default 200; also TW_SCALE_DIV)\n"
        "  --trials N        trials; seeds derived as runTrials "
        "does\n"
        "  --seed N          base trial seed (default 1)\n"
        "  --seeds A,B,...   explicit seed list (overrides "
        "--trials)\n"
        "  --experiment NAME run a registry experiment instead of a\n"
        "                    hand-built sweep: submit sends the\n"
        "                    run_experiment op, local computes the\n"
        "                    same jobs in-process; both print one\n"
        "                    canonical row per trial (sorted by "
        "seq)\n"
        "  --no-slowdown     skip the baseline/slowdown pairing\n"
        "  --deadline MS     per-request deadline (server-side)\n"
        "  --canonical       one canonical outcome line per trial\n"
        "other:\n"
        "  stats --path P    print one dotted-path value of the "
        "stats\n"
        "  metrics --path P  same, over the metrics snapshot\n"
        "  --help            this text\n\n"
        "exit status: 0 ok; 1 usage/transport; 2 server rejected "
        "(the\ncode — e.g. 'overloaded' — is printed to "
        "stderr).\n");
}

struct SweepArgs
{
    RunSpec spec;
    std::vector<std::uint64_t> seeds;
    bool slowdown = true;
    std::optional<std::uint64_t> deadlineMs;
    bool canonical = false;
};

void
printRows(const std::vector<RunOutcome> &outcomes,
          const std::vector<bool> &cached, bool canonical)
{
    if (canonical) {
        for (const RunOutcome &o : outcomes)
            std::printf("%s\n", formatRunOutcome(o).c_str());
        return;
    }
    TextTable t({"trial", "misses", "missRatio", "MPI", "slowdown",
                 "cached"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunOutcome &o = outcomes[i];
        t.addRow({
            csprintf("%zu", i + 1),
            fmtF(o.estMisses, 0),
            fmtF(o.missRatioTotal(), 4),
            fmtF(o.mpi(), 2),
            fmtF(o.slowdown, 2),
            i < cached.size() && cached[i] ? "yes" : "no",
        });
    }
    std::printf("%s", t.render().c_str());
}

/**
 * Validate a trace file offline: strict-parse the JSON, check every
 * event is a complete-span record, and (optionally) demand that
 * each required name appears at least once. A required token R
 * matches an event named R exactly or "R:<anything>" — so
 * --require unit matches the per-unit spans "unit:4K" etc.
 * Returns the process exit status.
 */
int
lintTraceFile(const std::string &path, const std::string &required)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal("trace-lint: cannot open %s", path.c_str());
    std::string text;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    Json root;
    std::string err;
    if (!Json::parse(text, root, &err))
        fatal("trace-lint: %s: not valid JSON: %s", path.c_str(),
              err.c_str());
    const Json *events =
        root.isObject() ? root.find("traceEvents") : nullptr;
    if (!events || !events->isArray())
        fatal("trace-lint: %s: no traceEvents array", path.c_str());

    std::vector<std::string> names;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &e = events->at(i);
        const Json *name = e.isObject() ? e.find("name") : nullptr;
        const Json *ph = e.isObject() ? e.find("ph") : nullptr;
        const Json *ts = e.isObject() ? e.find("ts") : nullptr;
        const Json *dur = e.isObject() ? e.find("dur") : nullptr;
        const Json *tid = e.isObject() ? e.find("tid") : nullptr;
        if (!name || !name->isString() || !ph || !ph->isString()
            || ph->asString() != "X" || !ts || !ts->isNumber()
            || !dur || !dur->isNumber() || !tid || !tid->isNumber())
            fatal("trace-lint: %s: event %zu is not a complete "
                  "span record",
                  path.c_str(), i);
        names.push_back(name->asString());
    }

    bool ok = true;
    const char *p = required.c_str();
    while (*p) {
        const char *comma = std::strchr(p, ',');
        std::string want =
            comma ? std::string(p, comma - p) : std::string(p);
        p = comma ? comma + 1 : p + want.size();
        if (want.empty())
            continue;
        std::size_t count = 0;
        for (const std::string &got : names)
            if (got == want
                || (got.size() > want.size() + 1
                    && got.compare(0, want.size(), want) == 0
                    && got[want.size()] == ':'))
                ++count;
        std::printf("span %-12s count=%zu\n", want.c_str(), count);
        if (count == 0) {
            std::fprintf(stderr,
                         "trace-lint: %s: no '%s' span\n",
                         path.c_str(), want.c_str());
            ok = false;
        }
    }
    std::printf("trace-lint: %s: %zu span(s) ok\n", path.c_str(),
                names.size());
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath, tcpHost;
    int tcpPort = 0;
    std::string command, statsPath, traceFile, requireList;
    bool promFormat = false;
    unsigned pingRetries = 0, pingRetryDelayMs = 100;
    std::string poolList;
    unsigned poolVnodes = 0;

    SweepFlags flags;
    std::string experiment;
    SweepArgs sweep;
    std::string seedList;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--help") {
            usage();
            return 0;
        } else if (arg == "--socket") {
            socketPath = value();
        } else if (arg == "--tcp") {
            std::string hp = value();
            std::size_t colon = hp.rfind(':');
            if (colon == std::string::npos)
                fatal("--tcp wants HOST:PORT");
            tcpHost = hp.substr(0, colon);
            tcpPort = static_cast<int>(
                decimalKnob("--tcp port", hp.c_str() + colon + 1, 65535));
        } else if (flags.take(argc, argv, i)) {
            continue;
        } else if (arg == "--experiment") {
            experiment = value();
        } else if (arg == "--seeds") {
            seedList = value();
        } else if (arg == "--no-slowdown") {
            sweep.slowdown = false;
        } else if (arg == "--deadline") {
            sweep.deadlineMs =
                decimalKnob("--deadline", value().c_str(), kMaxDeadlineMs);
        } else if (arg == "--canonical") {
            sweep.canonical = true;
        } else if (arg == "--path") {
            statsPath = value();
        } else if (arg == "--prom") {
            promFormat = true;
        } else if (arg == "--require") {
            requireList = value();
        } else if (arg == "--retry") {
            pingRetries = static_cast<unsigned>(
                decimalKnob("--retry", value().c_str(), UINT_MAX));
        } else if (arg == "--retry-delay-ms") {
            pingRetryDelayMs = static_cast<unsigned>(decimalKnob(
                "--retry-delay-ms", value().c_str(), UINT_MAX));
        } else if (arg == "--pool") {
            poolList = value();
        } else if (arg == "--vnodes") {
            poolVnodes = static_cast<unsigned>(
                decimalKnob("--vnodes", value().c_str(), UINT_MAX));
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            fatal("unknown option '%s'", arg.c_str());
        } else if (command.empty()) {
            command = arg;
        } else if (command == "trace-lint" && traceFile.empty()) {
            traceFile = arg;
        } else {
            usage();
            fatal("extra argument '%s'", arg.c_str());
        }
    }
    if (command.empty()) {
        usage();
        return 1;
    }

    sweep.spec = flags.spec();
    const RunSpec &spec = sweep.spec;

    // ---- Seed list ------------------------------------------------
    if (!seedList.empty()) {
        std::size_t pos = 0;
        while (pos <= seedList.size()) {
            std::size_t comma = seedList.find(',', pos);
            if (comma == std::string::npos)
                comma = seedList.size();
            std::string one = seedList.substr(pos, comma - pos);
            sweep.seeds.push_back(
                decimalKnob("--seeds", one.c_str(), UINT64_MAX));
            pos = comma + 1;
        }
    } else {
        // Exactly runTrials()'s derivation: trial t gets
        // mixSeed(base, 1000 + t).
        for (unsigned t = 0; t < flags.trials; ++t)
            sweep.seeds.push_back(mixSeed(flags.seed, 1000 + t));
    }

    // ---- Registry experiments -------------------------------------
    // Both paths print the canonical experimentRowJson lines in seq
    // order, so `diff <(twctl --experiment E local) <(twctl
    // --socket S --experiment E submit)` is the served-vs-local
    // bit-identity check (use an explicit --scale so client and
    // daemon agree when their environments differ).
    if (!experiment.empty()) {
        if (command != "local" && command != "submit")
            fatal("--experiment only applies to local/submit");
        const ExperimentDef *def =
            ExperimentRegistry::instance().find(experiment);
        if (!def)
            fatal("unknown experiment '%s' (bench_driver --list "
                  "shows the registry)",
                  experiment.c_str());
        unsigned expScale =
            experimentScale(*def, flags.scaleSet ? flags.scale : 0);
        if (command == "local") {
            for (const ExperimentJob &job :
                 experimentJobs(*def, expScale)) {
                RunOutcome out =
                    job.withSlowdown
                        ? Runner::runWithSlowdown(job.spec, job.seed)
                        : Runner::runOne(job.spec, job.seed);
                std::printf("%s\n",
                            experimentRowJson(def->name, job.unit,
                                              job.seq, job.trial,
                                              job.seed, out,
                                              costBackendTag(
                                                  job.spec))
                                .dump()
                                .c_str());
            }
            return 0;
        }
        Client client;
        std::string err;
        bool connected =
            !socketPath.empty()
                ? client.connectUnix(socketPath, &err)
                : (tcpPort != 0
                       ? client.connectTcp(tcpHost, tcpPort, &err)
                       : (err = "need --socket or --tcp", false));
        if (!connected)
            fatal("connect: %s", err.c_str());
        ExperimentResult result = client.runExperiment(
            def->name, flags.scaleSet ? flags.scale : expScale);
        if (!result.ok) {
            if (!result.errorCode.empty()) {
                std::fprintf(stderr, "rejected: %s (%s)\n",
                             result.errorCode.c_str(),
                             result.errorMsg.c_str());
                return 2;
            }
            fatal("run_experiment: %s", result.errorMsg.c_str());
        }
        // The wire row carries no spec; re-derive each seq's cost
        // backend from the same job list the daemon ran so the
        // re-rendered rows stay bit-identical to `local`.
        std::vector<std::string> seqBackend;
        for (const ExperimentJob &job :
             experimentJobs(*def, expScale)) {
            if (job.seq >= seqBackend.size())
                seqBackend.resize(job.seq + 1);
            seqBackend[job.seq] = costBackendTag(job.spec);
        }
        for (const ServedExperimentRow &row : result.rows) {
            if (row.expired)
                continue;
            std::printf("%s\n",
                        experimentRowJson(def->name, row.unit,
                                          row.seq, row.trial,
                                          row.seed, row.outcome,
                                          row.seq < seqBackend.size()
                                              ? seqBackend[row.seq]
                                              : std::string())
                            .dump()
                            .c_str());
        }
        std::fprintf(
            stderr,
            "experiment=%s rows=%zu cached=%llu computed=%llu "
            "expired=%llu\n",
            def->name.c_str(), result.rows.size(),
            (unsigned long long)result.cached,
            (unsigned long long)result.computed,
            (unsigned long long)result.expired);
        return 0;
    }

    // ---- trace-lint: offline, no server ---------------------------
    if (command == "trace-lint") {
        if (traceFile.empty())
            fatal("trace-lint wants a FILE argument");
        return lintTraceFile(traceFile, requireList);
    }

    // ---- shard-owner: no server involved --------------------------
    // Predict routing for a pool: build the identical ShardMap the
    // router builds from the same member strings, fingerprint each
    // trial the way both the router and the ResultCache do, and
    // print the owner. Lets an operator (or shard_smoke.sh) verify
    // placement without standing up a single process.
    if (command == "shard-owner") {
        if (poolList.empty())
            fatal("shard-owner wants --pool A,B,...");
        std::vector<std::string> members;
        for (std::size_t at = 0; at < poolList.size();) {
            std::size_t comma = poolList.find(',', at);
            if (comma == std::string::npos)
                comma = poolList.size();
            if (comma > at)
                members.push_back(poolList.substr(at, comma - at));
            at = comma + 1;
        }
        ShardMap map(members, poolVnodes ? poolVnodes
                                         : ShardMap::kDefaultVnodes);
        for (std::uint64_t s : sweep.seeds) {
            std::uint64_t fp =
                specFingerprint(spec, s, sweep.slowdown);
            std::printf("seed=%llu fingerprint=%016llx owner=%s\n",
                        (unsigned long long)s,
                        (unsigned long long)fp,
                        map.owner(fp).c_str());
        }
        return 0;
    }

    // ---- local: no server involved --------------------------------
    if (command == "local") {
        std::vector<RunOutcome> outcomes(sweep.seeds.size());
        for (std::size_t t = 0; t < sweep.seeds.size(); ++t)
            outcomes[t] =
                sweep.slowdown
                    ? Runner::runWithSlowdown(spec, sweep.seeds[t])
                    : Runner::runOne(spec, sweep.seeds[t]);
        printRows(outcomes, {}, sweep.canonical);
        return 0;
    }

    // ---- ping with retries: the startup-wait primitive ------------
    // Each attempt is a fresh connect + ping, because a server mid-
    // startup can accept the connect and still die before replying.
    // Total attempts = 1 + --retry.
    if (command == "ping" && pingRetries > 0) {
        std::string perr;
        for (unsigned attempt = 0; attempt <= pingRetries;
             ++attempt) {
            if (attempt)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(pingRetryDelayMs));
            Client c;
            bool connected =
                !socketPath.empty()
                    ? c.connectUnix(socketPath, &perr)
                    : (tcpPort != 0
                           ? c.connectTcp(tcpHost, tcpPort, &perr)
                           : (perr = "need --socket or --tcp",
                              false));
            if (!connected)
                continue;
            if (c.ping(&perr)) {
                std::printf("pong\n");
                return 0;
            }
        }
        fatal("ping: no answer after %u attempt(s): %s",
              pingRetries + 1, perr.c_str());
    }

    // ---- Everything else talks to a server ------------------------
    Client client;
    std::string err;
    bool ok = !socketPath.empty()
                  ? client.connectUnix(socketPath, &err)
                  : (tcpPort != 0
                         ? client.connectTcp(tcpHost, tcpPort, &err)
                         : (err = "need --socket or --tcp", false));
    if (!ok)
        fatal("connect: %s", err.c_str());

    if (command == "ping") {
        if (!client.ping(&err))
            fatal("ping: %s", err.c_str());
        std::printf("pong\n");
        return 0;
    }
    if (command == "stats") {
        Json stats;
        if (!client.stats(stats, &err))
            fatal("stats: %s", err.c_str());
        if (!statsPath.empty()) {
            const Json *v = stats.findPath(statsPath);
            if (!v)
                fatal("no '%s' in stats", statsPath.c_str());
            std::printf("%s\n", v->dump().c_str());
        } else {
            std::printf("%s\n", stats.dump().c_str());
        }
        return 0;
    }
    if (command == "metrics") {
        if (promFormat) {
            Json unused;
            std::string prom;
            if (!client.metrics(unused, &prom, true, &err))
                fatal("metrics: %s", err.c_str());
            std::fputs(prom.c_str(), stdout);
            return 0;
        }
        Json m;
        if (!client.metrics(m, nullptr, false, &err))
            fatal("metrics: %s", err.c_str());
        if (!statsPath.empty()) {
            const Json *v = m.findPath(statsPath);
            if (!v)
                fatal("no '%s' in metrics", statsPath.c_str());
            std::printf("%s\n", v->dump().c_str());
        } else {
            std::printf("%s\n", m.dump().c_str());
        }
        return 0;
    }
    if (command == "flush-cache") {
        if (!client.flushCache(&err))
            fatal("flush-cache: %s", err.c_str());
        std::printf("ok\n");
        return 0;
    }
    if (command == "shutdown") {
        if (!client.shutdownServer(&err))
            fatal("shutdown: %s", err.c_str());
        std::printf("ok\n");
        return 0;
    }
    if (command != "submit") {
        usage();
        fatal("unknown command '%s'", command.c_str());
    }

    SweepResult result = client.submitSweep(
        spec, sweep.seeds, sweep.slowdown, sweep.deadlineMs);
    if (!result.ok) {
        if (!result.errorCode.empty()) {
            std::fprintf(stderr, "rejected: %s (%s)\n",
                         result.errorCode.c_str(),
                         result.errorMsg.c_str());
            return 2;
        }
        fatal("submit: %s", result.errorMsg.c_str());
    }
    std::vector<RunOutcome> outcomes = result.outcomes();
    std::vector<bool> cached(outcomes.size(), false);
    for (const SweepRow &r : result.rows)
        if (r.trial < cached.size())
            cached[r.trial] = r.cached;
    printRows(outcomes, cached, sweep.canonical);
    std::fprintf(stderr,
                 "rows=%zu cached=%llu computed=%llu expired=%llu\n",
                 result.rows.size(),
                 (unsigned long long)result.cached,
                 (unsigned long long)result.computed,
                 (unsigned long long)result.expired);
    return 0;
}
