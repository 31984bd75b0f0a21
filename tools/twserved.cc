/**
 * @file
 * twserved — the persistent experiment daemon.
 *
 * Section 5 of the paper: a trap-driven simulator is cheap enough
 * to leave RESIDENT, answering "what would an 8K cache do to this
 * workload" queries as they arrive instead of rebooting a simulator
 * per question. twserved is that residency: it keeps the Runner's
 * baseline memo and a result cache warm across requests, bounds its
 * appetite with an explicit job queue, and drains gracefully on
 * SIGTERM so an operator can restart it without losing admitted
 * work.
 *
 * Protocol and policy: DESIGN.md §9. Client: twctl (or anything
 * that can write newline-delimited JSON to a socket).
 *
 *   twserved --socket /tmp/tw.sock
 *   twserved --socket /tmp/tw.sock --tcp 7733 --workers 8 \
 *            --queue 512 --cache 8192
 */

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <pthread.h>
#include <string>
#include <thread>

#include "base/env.hh"
#include "base/logging.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "serve/shard/router.hh"

using namespace tw;
using namespace tw::serve;

namespace
{

void
usage()
{
    std::printf(
        "twserved — persistent Tapeworm II experiment service\n\n"
        "usage: twserved --socket PATH [options]\n"
        "  --socket PATH     unix-domain socket to listen on "
        "(required)\n"
        "  --tcp PORT        also listen on TCP PORT (loopback)\n"
        "  --bind ADDR       TCP bind address (default "
        "127.0.0.1)\n"
        "  --workers N       simulation workers (default: "
        "TW_THREADS,\n"
        "                    else hardware threads)\n"
        "  --queue N         job-queue bound; a sweep that does "
        "not\n"
        "                    fit is rejected 'overloaded' "
        "(default 256)\n"
        "  --cache N         result-cache entries (default 4096)\n"
        "  --baseline-cap N  Runner baseline-memo entries "
        "(default\n"
        "                    4096, or TW_BASELINE_CAP)\n"
        "  --send-timeout MS per-connection send timeout; a "
        "client\n"
        "                    that stops reading its rows is "
        "dropped\n"
        "                    after MS ms (default 30000, 0 = "
        "never)\n"
        "  --quiet           no per-request logging\n"
        "  --help            this text\n\n"
        "router mode (MANUAL.md §10):\n"
        "  --router          run as the pool's async front door\n"
        "                    instead of a worker; requires "
        "--shards\n"
        "  --shards A,B,...  worker addresses (unix socket paths "
        "or\n"
        "                    host:port); the address strings are "
        "the\n"
        "                    consistent-hash ring members\n"
        "  --vnodes N        virtual nodes per shard (default "
        "64)\n"
        "  --health-interval MS   worker ping cadence (default "
        "1000)\n\n"
        "environment:\n"
        "  TW_TRACE=FILE     record request-phase spans; the "
        "Chrome\n"
        "                    trace-event JSON is written at "
        "drain\n"
        "  TW_LOG=json       structured log lines on stderr\n\n"
        "Stop with SIGTERM/SIGINT (drains admitted jobs, then "
        "exits 0)\nor with `twctl shutdown`.\n");
}

/** Run @p service until a SIGTERM/SIGINT (@p sigs, blocked in every
 *  thread) or a `shutdown` op has drained it. */
template <typename Service>
int
serveUntilDrained(Service &service, sigset_t &sigs, bool verbose)
{
    std::thread watcher([&] {
        while (true) {
            int sig = 0;
            if (sigwait(&sigs, &sig) != 0)
                continue;
            if (sig == SIGUSR1)
                return; // main is done; unblocked for join
            if (verbose)
                std::fprintf(stderr, "twserved: %s, draining...\n",
                             strsignal(sig));
            service.requestStop();
        }
    });
    service.join();
    pthread_kill(watcher.native_handle(), SIGUSR1);
    watcher.join();
    obs::traceStop(); // writes TW_TRACE, if armed
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogComponent("twserved");
    ServerConfig cfg;
    cfg.verbose = true;
    std::size_t baselineCap = 0;
    bool routerMode = false;
    std::string shardsArg;
    unsigned vnodes = 0;
    unsigned healthIntervalMs = 1000;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        auto number = [&](std::uint64_t max) {
            return decimalKnob(arg.c_str(), value().c_str(), max);
        };
        if (arg == "--help") {
            usage();
            return 0;
        } else if (arg == "--socket") {
            cfg.socketPath = value();
        } else if (arg == "--tcp") {
            cfg.tcpPort = static_cast<int>(number(65535));
            if (cfg.tcpPort == 0)
                fatal("--tcp: 0 is not a port (1..65535)");
        } else if (arg == "--bind") {
            cfg.tcpBind = value();
        } else if (arg == "--workers") {
            cfg.workers = static_cast<unsigned>(number(UINT_MAX));
        } else if (arg == "--queue") {
            cfg.queueCapacity = number(SIZE_MAX);
        } else if (arg == "--cache") {
            cfg.cacheCapacity = number(SIZE_MAX);
        } else if (arg == "--baseline-cap") {
            baselineCap = number(SIZE_MAX);
        } else if (arg == "--send-timeout") {
            cfg.sendTimeoutMs = static_cast<unsigned>(number(UINT_MAX));
        } else if (arg == "--router") {
            routerMode = true;
        } else if (arg == "--shards") {
            shardsArg = value();
        } else if (arg == "--vnodes") {
            vnodes = static_cast<unsigned>(number(UINT_MAX));
        } else if (arg == "--health-interval") {
            healthIntervalMs = static_cast<unsigned>(number(UINT_MAX));
        } else if (arg == "--quiet") {
            cfg.verbose = false;
        } else {
            usage();
            fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (cfg.socketPath.empty()) {
        usage();
        fatal("--socket is required");
    }
    if (baselineCap)
        Runner::setBaselineCacheCapacity(baselineCap);

    if (const char *tracePath = std::getenv("TW_TRACE");
        tracePath && *tracePath) {
        std::string terr;
        if (!obs::traceStart(tracePath, &terr))
            fatal("TW_TRACE: %s", terr.c_str());
    }

    // Signals are consumed synchronously by a watcher thread:
    // requestStop() takes locks, so it must not run in handler
    // context. Block them BEFORE any thread spawns so every thread
    // inherits the mask.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    std::string err;
    if (routerMode) {
        RouterConfig rcfg;
        rcfg.socketPath = cfg.socketPath;
        rcfg.tcpPort = cfg.tcpPort;
        rcfg.tcpBind = cfg.tcpBind;
        rcfg.verbose = cfg.verbose;
        if (vnodes)
            rcfg.vnodes = vnodes;
        rcfg.healthIntervalMs = healthIntervalMs;
        if (shardsArg.empty()) {
            usage();
            fatal("--router requires --shards A,B,...");
        }
        std::vector<ShardAddress> shards;
        if (!parseShardList(shardsArg, shards, err))
            fatal("--shards: %s", err.c_str());
        for (const ShardAddress &a : shards)
            rcfg.shards.push_back(a.name);

        Router router(rcfg);
        if (!router.start(&err))
            fatal("cannot start router: %s", err.c_str());
        return serveUntilDrained(router, sigs, cfg.verbose);
    }

    Server server(cfg);
    if (!server.start(&err))
        fatal("cannot start: %s", err.c_str());
    return serveUntilDrained(server, sigs, cfg.verbose);
}
