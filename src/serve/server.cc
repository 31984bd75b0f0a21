#include "serve/server.hh"

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstdint>
#include <optional>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/specio.hh"
#include "obs/trace.hh"
#include "serve/wire.hh"

namespace tw
{
namespace serve
{

using Clock = std::chrono::steady_clock;

namespace
{

/** Version of the `stats` reply payload. 1 was the unversioned
 *  PR 4 shape; 2 adds schema_version itself, started_at_s, and
 *  ops.metrics. Bump on any field removal or meaning change. */
constexpr unsigned kStatsSchemaVersion = 2;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now()
                                                     - t0)
        .count();
}

/** Stats key of a spec's miss-cost backend. Unlike the row tag
 *  (empty for the default), stats name the default explicitly. */
std::string
costBackendStatName(const RunSpec &spec)
{
    std::string tag = costBackendTag(spec);
    return tag.empty() ? "table5" : tag;
}

} // anonymous namespace

/** One connected client. Row streaming happens from worker threads
 *  while the session thread keeps reading requests, so every write
 *  goes through send() under writeMutex. The socket carries
 *  SO_SNDTIMEO (ServerConfig::sendTimeoutMs): a peer that stops
 *  reading fails the send when the timeout lapses and the session
 *  goes dead, instead of parking workers behind a full socket
 *  buffer indefinitely. */
struct Server::Session
{
    int fd = -1;
    std::mutex writeMutex;
    std::atomic<bool> dead{false};

    ~Session()
    {
        // Runs only when the LAST reference drops — session thread
        // reaped, no worker Job pointing here — so the fd number
        // cannot be recycled under a concurrent send().
        if (fd >= 0)
            ::close(fd);
    }

    bool
    send(const Json &j)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        if (dead.load(std::memory_order_relaxed))
            return false;
        if (!sendJsonLine(fd, j)) {
            // Client vanished (or timed out); stop wasting writes.
            dead.store(true, std::memory_order_relaxed);
            return false;
        }
        return true;
    }

    /** Send pre-framed ('\n'-terminated) bytes in ONE write: the
     *  row-batching path — a sweep's cached rows cost one syscall
     *  instead of one per row. */
    bool
    sendRaw(const std::string &framed)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        if (dead.load(std::memory_order_relaxed))
            return false;
        if (!sendAll(fd, framed.data(), framed.size())) {
            dead.store(true, std::memory_order_relaxed);
            return false;
        }
        return true;
    }
};

/** Bookkeeping for one session thread. Lives in sessions_ (a
 *  std::list, so the address stays valid for the thread to mark
 *  itself finished); reaped by the accept loop, or at join(). */
struct Server::SessionEntry
{
    std::shared_ptr<Session> session;
    std::thread thread;
    std::atomic<bool> finished{false};
};

/** One submit request in flight: shared by every Job of its sweep.
 *  remaining starts at jobs+1 — the extra count is held by the
 *  session thread until it has streamed the cached rows, so "done"
 *  can never outrun them. */
struct Server::Request
{
    std::shared_ptr<Session> session;
    std::uint64_t id = 0;
    std::shared_ptr<const RunSpec> spec;
    /** Registry entry behind a run_experiment request; empty for
     *  ad-hoc submits. Rows of an experiment carry the name plus
     *  the unit/seq coordinates of the registry's job enumeration. */
    std::string experiment;
    bool slowdown = true;
    std::optional<Clock::time_point> deadline;
    Clock::time_point start = Clock::now();

    std::atomic<std::uint64_t> remaining{0};
    std::atomic<std::uint64_t> rows{0};
    std::atomic<std::uint64_t> cached{0};
    std::atomic<std::uint64_t> computed{0};
    std::atomic<std::uint64_t> expired{0};
};

/** One trial waiting on the bounded queue. Each job carries its own
 *  spec and slowdown flag: a submit shares one spec across its
 *  seeds, while an experiment's grid gives every unit a different
 *  spec (and its trial plan may mix slowdown on and off). */
struct Server::Job
{
    std::shared_ptr<Request> req;
    std::shared_ptr<const RunSpec> spec;
    std::uint64_t seed = 0;
    std::uint64_t trial = 0;
    bool slowdown = true;
    std::string unit;
    std::uint64_t seq = 0;
    std::string key;
    Clock::time_point enqueued;
};

/** A trial answered straight from the result cache at admission. */
struct Server::CachedHit
{
    std::string unit;
    std::uint64_t seq = 0;
    std::uint64_t trial = 0;
    std::uint64_t seed = 0;
    RunOutcome outcome;
};

namespace
{

/** The row-identity prefix shared by cached and computed rows. */
void
setRowIdentity(Json &row, const std::string &experiment,
               std::uint64_t id, const std::string &unit,
               std::uint64_t seq, std::uint64_t trial,
               std::uint64_t seed)
{
    row.set("id", Json::number(id));
    row.set("ev", Json::str("row"));
    if (!experiment.empty()) {
        row.set("experiment", Json::str(experiment));
        row.set("unit", Json::str(unit));
        row.set("seq", Json::number(seq));
    }
    row.set("trial", Json::number(trial));
    row.set("seed", Json::number(seed));
}

} // anonymous namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.cacheCapacity),
      queue_(cfg_.queueCapacity)
{
    if (cfg_.workers == 0)
        cfg_.workers = defaultThreads();
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *err)
{
    if (started_.load()) {
        if (err)
            *err = "server already started";
        return false;
    }
    if (cfg_.socketPath.empty()) {
        if (err)
            *err = "no socket path configured";
        return false;
    }
    unixFd_ = listenUnixSocket(cfg_.socketPath, err);
    if (unixFd_ < 0)
        return false;
    if (cfg_.tcpPort != 0) {
        tcpFd_ = listenTcpSocket(cfg_.tcpBind, cfg_.tcpPort, err);
        if (tcpFd_ < 0) {
            ::close(unixFd_);
            unixFd_ = -1;
            ::unlink(cfg_.socketPath.c_str());
            return false;
        }
    }
    started_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    if (cfg_.verbose)
        std::fprintf(stderr,
                     "twserved: listening on %s (%u workers, "
                     "queue %zu, cache %zu)\n",
                     cfg_.socketPath.c_str(), cfg_.workers,
                     queue_.capacity(), cfg_.cacheCapacity);
    return true;
}

void
Server::requestStop()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    // New submits now bounce with shutting_down; admitted jobs
    // keep draining because close() allows pops until empty.
    queue_.close();
    wakeWorkers();
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Server::join()
{
    if (!started_.load())
        return;
    {
        std::unique_lock<std::mutex> lock(stopMutex_);
        stopCv_.wait(lock, [this] { return stopRequested_; });
        if (joined_)
            return;
        joined_ = true;
    }

    // Order matters: stop accepting, drain the queue (workers exit
    // when pop() returns nullopt on the closed empty queue), and
    // only then yank sessions — admitted sweeps finish streaming.
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (auto &w : workers_)
        if (w.joinable())
            w.join();

    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (SessionEntry &e : sessions_) {
            e.session->dead.store(true);
            // Unblocks the session thread's recv().
            ::shutdown(e.session->fd, SHUT_RDWR);
        }
    }
    // The accept thread (the only other mutator of sessions_) is
    // already joined, so iterating without the lock is safe here.
    for (SessionEntry &e : sessions_)
        if (e.thread.joinable())
            e.thread.join();
    // Workers are drained too: dropping these last references
    // closes every remaining fd (~Session).
    sessions_.clear();

    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        ::unlink(cfg_.socketPath.c_str());
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
    }
    started_.store(false);
    if (cfg_.verbose)
        std::fprintf(stderr, "twserved: drained and stopped\n");
}

void
Server::stop()
{
    if (!started_.load())
        return;
    requestStop();
    join();
}

void
Server::pauseWorkers()
{
    std::lock_guard<std::mutex> lock(workMutex_);
    paused_ = true;
}

void
Server::resumeWorkers()
{
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        paused_ = false;
    }
    workCv_.notify_all();
}

void
Server::wakeWorkers()
{
    // Producers mutate queue state under the BoundedQueue's own
    // mutex, but workers wait on workCv_/workMutex_ with a
    // predicate over that state. Taking workMutex_ — even empty —
    // before notifying closes the lost-wakeup window: a worker is
    // either already blocked (the notify reaches it) or its next
    // predicate check is ordered after this critical section and
    // sees the new queue state. A bare notify_all() could land
    // between a worker's predicate check and its block and be lost,
    // stalling an admitted sweep forever.
    { std::lock_guard<std::mutex> lock(workMutex_); }
    workCv_.notify_all();
}

std::optional<Server::Job>
Server::nextJob()
{
    std::unique_lock<std::mutex> lock(workMutex_);
    while (true) {
        workCv_.wait(lock, [this] {
            return !paused_
                   && (queue_.size() > 0 || queue_.closed());
        });
        // tryPop under workMutex_: dequeue is serialized through
        // this one place, so the paused predicate above is the
        // whole truth — a paused server can never lose a job to a
        // worker that was already waiting.
        if (std::optional<Job> job = queue_.tryPop())
            return job;
        if (queue_.closed())
            return std::nullopt; // closed and drained
    }
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        reapSessions();
        pollfd fds[2];
        nfds_t nfds = 0;
        fds[nfds++] = {unixFd_, POLLIN, 0};
        if (tcpFd_ >= 0)
            fds[nfds++] = {tcpFd_, POLLIN, 0};
        // Short timeout so a stop request is noticed promptly.
        int ready = ::poll(fds, nfds, 100);
        if (ready <= 0)
            continue;
        for (nfds_t i = 0; i < nfds; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            int fd = ::accept(fds[i].fd, nullptr, nullptr);
            if (fd < 0) {
                // EMFILE and friends leave the listen fd readable,
                // so a bare continue would spin at 100% CPU. Back
                // off; the next pass reaps finished sessions and
                // may free fds.
                if (errno != EINTR && errno != ECONNABORTED)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                continue;
            }
            if (cfg_.sendTimeoutMs > 0) {
                timeval tv{};
                tv.tv_sec = cfg_.sendTimeoutMs / 1000;
                tv.tv_usec = static_cast<suseconds_t>(
                    (cfg_.sendTimeoutMs % 1000) * 1000);
                ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv,
                             sizeof(tv));
            }
            auto session = std::make_shared<Session>();
            session->fd = fd;
            metrics_.sessionsOpened.inc();
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            sessions_.emplace_back();
            SessionEntry &entry = sessions_.back();
            entry.session = std::move(session);
            entry.thread = std::thread(
                [this, e = &entry] { sessionLoop(e); });
        }
    }
}

void
Server::reapSessions()
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->finished.load(std::memory_order_acquire)) {
            it->thread.join(); // already exited; returns at once
            it = sessions_.erase(it);
        } else {
            ++it;
        }
    }
}

std::size_t
Server::liveSessionCount()
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    return sessions_.size();
}

void
Server::sessionLoop(SessionEntry *entry)
{
    std::shared_ptr<Session> session = entry->session;
    LineReader reader(session->fd);
    std::string line;
    while (true) {
        LineReader::Status st = reader.readLine(line);
        if (st != LineReader::Status::Line)
            break;
        if (line.empty())
            continue;
        handleLine(session, line);
    }
    session->dead.store(true);
    // Void any two-phase reservations the peer (a router, usually)
    // still held: a dead router must not leak queue slots.
    releaseSessionReservations(session.get());
    metrics_.sessionsClosed.inc();
    // Hand the entry to the accept loop's reaper: it joins this
    // thread and drops the list's Session reference. The fd closes
    // (~Session) once the last in-flight Job's reference goes too —
    // workers' sends fail fast on `dead` in the meantime.
    entry->finished.store(true, std::memory_order_release);
}

void
Server::sendError(const std::shared_ptr<Session> &session,
                  std::uint64_t id, const char *code,
                  const std::string &msg)
{
    Json j = Json::object();
    j.set("id", Json::number(id));
    j.set("ev", Json::str("error"));
    j.set("code", Json::str(code));
    j.set("msg", Json::str(msg));
    session->send(j);
}

void
Server::handleLine(const std::shared_ptr<Session> &session,
                   const std::string &line)
{
    Json req;
    std::string err;
    bool parsed;
    {
        obs::ScopedSpan span("parse", "serve");
        parsed = Json::parse(line, req, &err) && req.isObject();
    }
    if (!parsed) {
        metrics_.badRequests.inc();
        sendError(session, 0, kErrBadRequest,
                  "unparseable request: " + err);
        return;
    }
    std::uint64_t id = 0;
    if (const Json *j = req.find("id"); j && j->isNumber())
        id = j->asU64();
    const Json *opj = req.find("op");
    if (!opj || !opj->isString()) {
        metrics_.badRequests.inc();
        sendError(session, id, kErrBadRequest, "missing op");
        return;
    }
    const std::string &op = opj->asString();

    if (op == "submit") {
        handleSubmit(session, id, req);
        return;
    }
    if (op == "run_experiment") {
        handleRunExperiment(session, id, req);
        return;
    }
    if (op == "reserve") {
        handleReserve(session, id, req);
        return;
    }
    if (op == "release") {
        handleRelease(session, id, req);
        return;
    }
    if (op == "run_jobs") {
        handleRunJobs(session, id, req);
        return;
    }
    if (op == "stats") {
        metrics_.statsReqs.inc();
        Json resp = Json::object();
        resp.set("id", Json::number(id));
        resp.set("ev", Json::str("stats"));
        resp.set("stats", statsJson());
        session->send(resp);
        return;
    }
    if (op == "metrics") {
        // The whole-process registry — engine counters next to
        // serve counters — not the per-server stats view.
        metrics_.metricsReqs.inc();
        Json resp = Json::object();
        resp.set("id", Json::number(id));
        resp.set("ev", Json::str("metrics"));
        bool prom = false;
        if (const Json *j = req.find("format"); j && j->isString())
            prom = j->asString() == "prom";
        if (prom)
            resp.set("prom", Json::str(obs::registry().promText()));
        else
            resp.set("metrics", obs::registry().snapshotJson());
        session->send(resp);
        return;
    }
    if (op == "flush-cache") {
        metrics_.flushes.inc();
        cache_.flush();
        Json resp = Json::object();
        resp.set("id", Json::number(id));
        resp.set("ev", Json::str("ok"));
        session->send(resp);
        return;
    }
    if (op == "ping") {
        metrics_.pings.inc();
        Json resp = Json::object();
        resp.set("id", Json::number(id));
        resp.set("ev", Json::str("pong"));
        session->send(resp);
        return;
    }
    if (op == "shutdown") {
        metrics_.shutdowns.inc();
        Json resp = Json::object();
        resp.set("id", Json::number(id));
        resp.set("ev", Json::str("ok"));
        session->send(resp);
        requestStop();
        return;
    }
    metrics_.badRequests.inc();
    sendError(session, id, kErrBadRequest, "unknown op '" + op + "'");
}

void
Server::handleSubmit(const std::shared_ptr<Session> &session,
                     std::uint64_t id, const Json &reqJson)
{
    metrics_.submits.inc();

    // ---- Parse ----------------------------------------------------
    auto bad = [&](const std::string &msg) {
        metrics_.badRequests.inc();
        sendError(session, id, kErrBadRequest, msg);
    };

    const Json *specj = reqJson.find("spec");
    if (!specj)
        return bad("missing spec");
    auto spec = std::make_shared<RunSpec>();
    std::string err;
    if (specj->isString()) {
        // Canonical text pass-through (what twctl sends).
        if (!parseRunSpec(specj->asString(), *spec, err))
            return bad("bad spec: " + err);
    } else if (specj->isObject()) {
        if (!specFromJson(*specj, *spec, err))
            return bad("bad spec: " + err);
    } else {
        return bad("spec must be an object or canonical text");
    }

    std::vector<std::uint64_t> seeds;
    if (!readSeeds(reqJson, seeds, err))
        return bad(err);

    bool slowdown = true;
    if (const Json *j = reqJson.find("slowdown")) {
        if (!j->isBool())
            return bad("slowdown must be a bool");
        slowdown = j->asBool();
    }
    std::optional<std::uint64_t> deadlineMs;
    if (!readDeadlineMs(reqJson, deadlineMs, err))
        return bad(err);
    std::optional<Clock::time_point> deadline;
    if (deadlineMs)
        deadline = Clock::now() + std::chrono::milliseconds(*deadlineMs);

    // ---- Plan: cache hits vs jobs ---------------------------------
    auto request = std::make_shared<Request>();
    request->session = session;
    request->id = id;
    request->spec = spec;
    request->slowdown = slowdown;
    request->deadline = deadline;

    std::vector<CachedHit> hits;
    std::vector<Job> jobs;
    for (std::size_t t = 0; t < seeds.size(); ++t) {
        std::string key = cacheKey(*spec, seeds[t], slowdown);
        RunOutcome out;
        bool hit = cache_.lookup(key, out);
        metrics_.recordCacheLookup("_adhoc", hit);
        metrics_.recordCostBackend(costBackendStatName(*spec));
        if (hit) {
            hits.push_back({"", 0, t, seeds[t], std::move(out)});
        } else {
            Job job;
            job.req = request;
            job.spec = spec;
            job.seed = seeds[t];
            job.trial = t;
            job.slowdown = slowdown;
            job.key = std::move(key);
            jobs.push_back(std::move(job));
        }
    }
    admitAndStream(session, id, request, std::move(jobs), hits);
}

void
Server::handleRunExperiment(const std::shared_ptr<Session> &session,
                            std::uint64_t id, const Json &reqJson)
{
    metrics_.runExperiments.inc();

    auto bad = [&](const std::string &msg) {
        metrics_.badRequests.inc();
        sendError(session, id, kErrBadRequest, msg);
    };

    const Json *ej = reqJson.find("experiment");
    if (!ej || !ej->isString())
        return bad("missing experiment");
    const ExperimentDef *def =
        ExperimentRegistry::instance().find(ej->asString());
    if (!def)
        return bad("unknown experiment '" + ej->asString() + "'");

    std::uint64_t scaleOverride = 0;
    if (const Json *j = reqJson.find("scale")) {
        if (!j->toUnsigned(UINT_MAX, scaleOverride))
            return bad("scale must be a non-negative integer");
    }
    unsigned scale =
        experimentScale(*def, static_cast<unsigned>(scaleOverride));

    // The SAME deterministic enumeration bench_driver runs locally:
    // units in grid order, trials in plan order, seq dense from 0.
    // Each job's cache key is the one a local run would use, so a
    // served experiment and a local one populate and hit the same
    // ResultCache entries. Adaptive plans (TrialPlan::stopWhen) do
    // not perturb this: experimentJobs always enumerates the FULL
    // seed list — the upper bound an adaptive local run may stop
    // short of — so all-or-nothing admission sizes against a known
    // worst case, and every key a stopped-early local sweep wrote is
    // a prefix of the keys enumerated here.
    std::vector<ExperimentJob> plan = experimentJobs(*def, scale);

    auto request = std::make_shared<Request>();
    request->session = session;
    request->id = id;
    request->experiment = def->name;

    std::vector<CachedHit> hits;
    std::vector<Job> jobs;
    for (ExperimentJob &pj : plan) {
        std::string key = cacheKey(pj.spec, pj.seed, pj.withSlowdown);
        RunOutcome out;
        bool hit = cache_.lookup(key, out);
        metrics_.recordCacheLookup(def->name, hit);
        metrics_.recordCostBackend(costBackendStatName(pj.spec));
        if (hit) {
            hits.push_back({pj.unit, pj.seq, pj.trial, pj.seed,
                            std::move(out)});
        } else {
            Job job;
            job.req = request;
            job.spec = std::make_shared<RunSpec>(std::move(pj.spec));
            job.seed = pj.seed;
            job.trial = pj.trial;
            job.slowdown = pj.withSlowdown;
            job.unit = std::move(pj.unit);
            job.seq = pj.seq;
            job.key = std::move(key);
            jobs.push_back(std::move(job));
        }
    }
    admitAndStream(session, id, request, std::move(jobs), hits);
}

void
Server::handleReserve(const std::shared_ptr<Session> &session,
                      std::uint64_t id, const Json &reqJson)
{
    metrics_.reserves.inc();
    const Json *j = reqJson.find("jobs");
    std::uint64_t n = 0;
    if (!j || !j->toUnsigned(SIZE_MAX, n) || n == 0) {
        metrics_.badRequests.inc();
        sendError(session, id, kErrBadRequest,
                  "jobs must be a positive integer");
        return;
    }
    if (!queue_.tryReserve(n)) {
        metrics_.reserveRejects.inc();
        if (stopping_.load()) {
            metrics_.rejectedShuttingDown.inc();
            sendError(session, id, kErrShuttingDown,
                      "server is draining");
        } else {
            metrics_.rejectedOverloaded.inc();
            sendError(session, id, kErrOverloaded,
                      csprintf("cannot reserve %zu slots "
                               "(capacity %zu)",
                               n, queue_.capacity()));
        }
        return;
    }
    std::uint64_t token;
    {
        std::lock_guard<std::mutex> lock(reservationsMutex_);
        token = nextReservation_++;
        reservations_[token] = {n, session.get()};
    }
    Json resp = Json::object();
    resp.set("id", Json::number(id));
    resp.set("ev", Json::str("reserved"));
    resp.set("reservation", Json::number(token));
    resp.set("jobs", Json::number(static_cast<std::uint64_t>(n)));
    session->send(resp);
}

void
Server::handleRelease(const std::shared_ptr<Session> &session,
                      std::uint64_t id, const Json &reqJson)
{
    metrics_.releases.inc();
    const Json *j = reqJson.find("reservation");
    std::uint64_t token = 0;
    if (!j || !j->toUnsigned(UINT64_MAX, token)) {
        metrics_.badRequests.inc();
        sendError(session, id, kErrBadRequest,
                  "reservation must be a non-negative integer");
        return;
    }
    // Idempotent: releasing a settled (or never-issued) token
    // releases 0 — a router retrying a release after a timeout must
    // not get an error storm.
    std::size_t slots = takeReservation(token, session.get());
    if (slots > 0)
        queue_.releaseReserved(slots);
    Json resp = Json::object();
    resp.set("id", Json::number(id));
    resp.set("ev", Json::str("ok"));
    resp.set("released",
             Json::number(static_cast<std::uint64_t>(slots)));
    session->send(resp);
}

void
Server::handleRunJobs(const std::shared_ptr<Session> &session,
                      std::uint64_t id, const Json &reqJson)
{
    metrics_.runJobsReqs.inc();

    auto bad = [&](const std::string &msg) {
        metrics_.badRequests.inc();
        sendError(session, id, kErrBadRequest, msg);
    };

    std::uint64_t reservation = 0;
    if (const Json *j = reqJson.find("reservation")) {
        if (!j->toUnsigned(UINT64_MAX, reservation))
            return bad("reservation must be a non-negative integer");
    }
    std::string experiment;
    if (const Json *j = reqJson.find("experiment")) {
        if (!j->isString())
            return bad("experiment must be a string");
        experiment = j->asString();
    }
    std::optional<std::uint64_t> deadlineMs;
    std::string deadlineErr;
    if (!readDeadlineMs(reqJson, deadlineMs, deadlineErr))
        return bad(deadlineErr);
    std::optional<Clock::time_point> deadline;
    if (deadlineMs)
        deadline = Clock::now() + std::chrono::milliseconds(*deadlineMs);
    // Batch-level default spec: jobs that omit their own "spec"
    // share this one, parsed once. A fan-out batch is usually one
    // sweep's slice, so this turns O(jobs) copies of the ~6 KB
    // canonical text into one per request.
    std::shared_ptr<RunSpec> defaultSpec;
    if (const Json *j = reqJson.find("spec")) {
        if (!j->isString())
            return bad("spec must be canonical spec text");
        defaultSpec = std::make_shared<RunSpec>();
        std::string err;
        if (!parseRunSpec(j->asString(), *defaultSpec, err))
            return bad("bad spec: " + err);
    }
    const Json *jobsj = reqJson.find("jobs");
    if (!jobsj || !jobsj->isArray() || jobsj->size() == 0)
        return bad("jobs must be a non-empty array");

    auto request = std::make_shared<Request>();
    request->session = session;
    request->id = id;
    request->experiment = experiment;
    request->deadline = deadline;

    // Each entry names its trial explicitly (spec canonical text,
    // seed, slowdown, unit/seq/trial coordinates), so the cache key
    // computed here is byte-identical to the one a single-node
    // submit or run_experiment of the same trial would use — the
    // property that makes shard-local caches line up with the ring.
    std::vector<CachedHit> hits;
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < jobsj->size(); ++i) {
        const Json &jj = jobsj->at(i);
        if (!jj.isObject())
            return bad("jobs entries must be objects");
        std::shared_ptr<RunSpec> spec;
        if (const Json *specj = jj.find("spec")) {
            if (!specj->isString())
                return bad("job spec must be canonical spec text");
            spec = std::make_shared<RunSpec>();
            std::string err;
            if (!parseRunSpec(specj->asString(), *spec, err))
                return bad("bad job spec: " + err);
        } else if (defaultSpec) {
            spec = defaultSpec;
        } else {
            return bad("job has no spec and the request has no "
                       "default spec");
        }
        const Json *seedj = jj.find("seed");
        std::uint64_t seed = 0;
        if (!seedj || !seedj->toUnsigned(UINT64_MAX, seed))
            return bad("job seed must be a non-negative integer");
        bool slowdown = true;
        if (const Json *j = jj.find("slowdown")) {
            if (!j->isBool())
                return bad("job slowdown must be a bool");
            slowdown = j->asBool();
        }
        std::uint64_t trial = i;
        if (const Json *j = jj.find("trial")) {
            if (!j->toUnsigned(UINT64_MAX, trial))
                return bad("job trial must be a non-negative "
                           "integer");
        }
        std::string unit;
        if (const Json *j = jj.find("unit")) {
            if (!j->isString())
                return bad("job unit must be a string");
            unit = j->asString();
        }
        std::uint64_t seq = trial;
        if (const Json *j = jj.find("seq")) {
            if (!j->toUnsigned(UINT64_MAX, seq))
                return bad("job seq must be a non-negative integer");
        }

        std::string key = cacheKey(*spec, seed, slowdown);
        RunOutcome out;
        bool hit = cache_.lookup(key, out);
        metrics_.recordCacheLookup(
            experiment.empty() ? "_adhoc" : experiment, hit);
        metrics_.recordCostBackend(costBackendStatName(*spec));
        if (hit) {
            hits.push_back(
                {std::move(unit), seq, trial, seed, std::move(out)});
        } else {
            Job job;
            job.req = request;
            job.spec = std::move(spec);
            job.seed = seed;
            job.trial = trial;
            job.slowdown = slowdown;
            job.unit = std::move(unit);
            job.seq = seq;
            job.key = std::move(key);
            jobs.push_back(std::move(job));
        }
    }
    admitAndStream(session, id, request, std::move(jobs), hits,
                   reservation);
}

std::size_t
Server::takeReservation(std::uint64_t token, const Session *owner)
{
    std::lock_guard<std::mutex> lock(reservationsMutex_);
    auto it = reservations_.find(token);
    if (it == reservations_.end() || it->second.owner != owner)
        return 0;
    std::size_t slots = it->second.slots;
    reservations_.erase(it);
    return slots;
}

void
Server::releaseSessionReservations(const Session *owner)
{
    std::size_t slots = 0;
    {
        std::lock_guard<std::mutex> lock(reservationsMutex_);
        for (auto it = reservations_.begin();
             it != reservations_.end();) {
            if (it->second.owner == owner) {
                slots += it->second.slots;
                it = reservations_.erase(it);
            } else {
                ++it;
            }
        }
    }
    if (slots > 0)
        queue_.releaseReserved(slots);
}

void
Server::admitAndStream(const std::shared_ptr<Session> &session,
                       std::uint64_t id,
                       const std::shared_ptr<Request> &request,
                       std::vector<Job> jobs,
                       const std::vector<CachedHit> &hits,
                       std::uint64_t reservation)
{
    // ---- Admit ATOMICALLY, before streaming anything --------------
    // All-or-nothing: a sweep either fully fits the queue's free
    // space or is rejected whole with `overloaded` — no partial
    // sweeps wedged behind a full queue, and the client can simply
    // retry the identical request later (the earlier trials will
    // then be cache hits). A committed reservation substitutes its
    // pre-claimed slots for the free-space check.
    request->remaining.store(jobs.size() + 1);
    std::size_t reservedSlots = 0;
    if (reservation != 0) {
        reservedSlots = takeReservation(reservation, session.get());
        if (reservedSlots == 0) {
            // Never issued, another session's, or already settled
            // (committed, released, or voided at disconnect).
            metrics_.badRequests.inc();
            sendError(session, id, kErrBadRequest,
                      "unknown reservation");
            return;
        }
        if (jobs.size() > reservedSlots) {
            queue_.releaseReserved(reservedSlots);
            metrics_.badRequests.inc();
            sendError(session, id, kErrBadRequest,
                      csprintf("%zu jobs exceed reservation of %zu "
                               "slots",
                               jobs.size(), reservedSlots));
            return;
        }
    }
    if (!jobs.empty()) {
        obs::ScopedSpan span("admit", "serve");
        Clock::time_point now = Clock::now();
        for (auto &j : jobs)
            j.enqueued = now;
        std::size_t n = jobs.size();
        bool admitted =
            reservation != 0
                ? queue_.pushReserved(std::move(jobs), reservedSlots)
                : queue_.tryPushAll(std::move(jobs));
        if (!admitted) {
            if (stopping_.load()) {
                metrics_.rejectedShuttingDown.inc();
                sendError(session, id, kErrShuttingDown,
                          "server is draining");
            } else {
                metrics_.rejectedOverloaded.inc();
                sendError(session, id, kErrOverloaded,
                          csprintf("queue full (%zu jobs would "
                                   "exceed capacity %zu)",
                                   n, queue_.capacity()));
            }
            return;
        }
        metrics_.jobsInFlight.add(static_cast<std::int64_t>(n));
        // Wake workers parked in nextJob(): the queue has its own
        // cv, but dequeues are serialized on workCv_ (pause gate).
        wakeWorkers();
    } else if (reservedSlots > 0) {
        // Every reserved trial became a cache hit between reserve
        // and commit; hand the slots straight back.
        queue_.releaseReserved(reservedSlots);
    }

    // ---- Stream cached rows, then release our +1 ------------------
    if (!hits.empty()) {
        obs::ScopedSpan span("stream", "serve");
        // One coalesced write for the whole cached prefix: at high
        // hit rates the send() syscall per row WAS the serve cost.
        std::string batch;
        for (const CachedHit &h : hits) {
            Json row = Json::object();
            setRowIdentity(row, request->experiment, id, h.unit,
                           h.seq, h.trial, h.seed);
            row.set("cached", Json::boolean(true));
            row.set("host_s", Json::number(h.outcome.hostSeconds));
            row.set("outcome", outcomeToJson(h.outcome));
            batch += row.dump();
            batch.push_back('\n');
            request->rows.fetch_add(1, std::memory_order_relaxed);
            request->cached.fetch_add(1, std::memory_order_relaxed);
            metrics_.rowsStreamed.inc();
            metrics_.rowsCached.inc();
        }
        session->sendRaw(batch);
        metrics_.netFlushes.inc();
        metrics_.netFlushedBytes.add(batch.size());
        metrics_.netBatchedRows.add(hits.size());
    }
    finishOne(request);
}

void
Server::workerLoop()
{
    while (true) {
        std::optional<Job> job = nextJob();
        if (!job)
            return; // closed and drained
        double waitUs = usSince(job->enqueued);
        metrics_.queueWait.record(waitUs);
        if (obs::traceEnabled()) {
            // The wait already happened; backdate its begin so the
            // span covers [enqueue, dequeue).
            double nowUs =
                static_cast<double>(obs::traceNowUs());
            obs::traceRecord("queue", "serve",
                             std::max(0.0, nowUs - waitUs),
                             waitUs);
        }

        const Request &req = *job->req;
        Json row = Json::object();
        setRowIdentity(row, req.experiment, req.id, job->unit,
                       job->seq, job->trial, job->seed);

        bool expired =
            req.deadline && Clock::now() > *req.deadline;
        if (expired) {
            row.set("cached", Json::boolean(false));
            row.set("error", Json::str("deadline"));
            job->req->expired.fetch_add(1,
                                        std::memory_order_relaxed);
            metrics_.rowsExpired.inc();
        } else {
            Clock::time_point t0 = Clock::now();
            RunOutcome out;
            {
                obs::ScopedSpan span("run", "serve");
                out = job->slowdown
                          ? Runner::runWithSlowdown(*job->spec,
                                                    job->seed)
                          : Runner::runOne(*job->spec, job->seed);
            }
            metrics_.runStage.record(usSince(t0));
            cache_.insert(job->key, out);
            row.set("cached", Json::boolean(false));
            row.set("host_s", Json::number(out.hostSeconds));
            row.set("outcome", outcomeToJson(out));
            job->req->computed.fetch_add(
                1, std::memory_order_relaxed);
            metrics_.rowsComputed.inc();
        }
        {
            obs::ScopedSpan span("stream", "serve");
            std::string framed = row.dump();
            framed.push_back('\n');
            req.session->sendRaw(framed);
            metrics_.netFlushes.inc();
            metrics_.netFlushedBytes.add(framed.size());
        }
        job->req->rows.fetch_add(1, std::memory_order_relaxed);
        metrics_.rowsStreamed.inc();
        metrics_.jobsInFlight.add(-1);
        finishOne(job->req);
    }
}

void
Server::finishOne(const std::shared_ptr<Request> &req)
{
    if (req->remaining.fetch_sub(1) != 1)
        return;
    Json done = Json::object();
    done.set("id", Json::number(req->id));
    done.set("ev", Json::str("done"));
    done.set("rows",
             Json::number(req->rows.load(std::memory_order_relaxed)));
    done.set("cached",
             Json::number(
                 req->cached.load(std::memory_order_relaxed)));
    done.set("computed",
             Json::number(
                 req->computed.load(std::memory_order_relaxed)));
    done.set("expired",
             Json::number(
                 req->expired.load(std::memory_order_relaxed)));
    // Record before sending: a client that reads `done` and then
    // asks for stats must see this request in the latency counters.
    metrics_.request.record(usSince(req->start));
    req->session->send(done);
    if (cfg_.verbose)
        std::fprintf(
            stderr,
            "twserved: req %llu done (%llu rows, %llu cached)\n",
            static_cast<unsigned long long>(req->id),
            static_cast<unsigned long long>(req->rows.load()),
            static_cast<unsigned long long>(req->cached.load()));
}

Json
Server::statsJson()
{
    Json j = Json::object();
    j.set("schema_version",
          Json::number(static_cast<std::uint64_t>(
              kStatsSchemaVersion)));
    j.set("uptime_s", Json::number(metrics_.uptimeSeconds()));
    j.set("started_at_s",
          Json::number(metrics_.startedAtSeconds()));
    j.set("workers", Json::number(
                         static_cast<std::uint64_t>(cfg_.workers)));

    Json q = Json::object();
    q.set("depth", Json::number(
                       static_cast<std::uint64_t>(queue_.size())));
    q.set("capacity",
          Json::number(
              static_cast<std::uint64_t>(queue_.capacity())));
    q.set("in_flight",
          Json::number(metrics_.jobsInFlight.value()));
    j.set("queue", std::move(q));

    j.set("cache", cache_.statsJson());

    Json baseline = Json::object();
    BaselineCacheStats b = Runner::baselineCacheStats();
    baseline.set("size", Json::number(
                             static_cast<std::uint64_t>(b.size)));
    baseline.set("capacity",
                 Json::number(
                     static_cast<std::uint64_t>(b.capacity)));
    baseline.set("hits", Json::number(b.hits));
    baseline.set("misses", Json::number(b.misses));
    baseline.set("evictions", Json::number(b.evictions));
    j.set("baseline", std::move(baseline));

    Json ops = Json::object();
    auto n = [](const ServeCounter &c) {
        return Json::number(c.value());
    };
    ops.set("submits", n(metrics_.submits));
    ops.set("run_experiments", n(metrics_.runExperiments));
    ops.set("stats", n(metrics_.statsReqs));
    ops.set("metrics", n(metrics_.metricsReqs));
    ops.set("flushes", n(metrics_.flushes));
    ops.set("pings", n(metrics_.pings));
    ops.set("shutdowns", n(metrics_.shutdowns));
    ops.set("bad_requests", n(metrics_.badRequests));
    j.set("ops", std::move(ops));

    Json rows = Json::object();
    rows.set("streamed", n(metrics_.rowsStreamed));
    rows.set("cached", n(metrics_.rowsCached));
    rows.set("computed", n(metrics_.rowsComputed));
    rows.set("expired", n(metrics_.rowsExpired));
    j.set("rows", std::move(rows));

    // Result-cache hit/miss per experiment ("_adhoc" = plain
    // submits), counted at admission time.
    j.set("experiments", metrics_.experimentsJson());

    // Trials admitted per miss-cost backend, so a stats reply says
    // which pricing model the served rows used.
    j.set("cost_backends", metrics_.costBackendsJson());

    Json rej = Json::object();
    rej.set("overloaded", n(metrics_.rejectedOverloaded));
    rej.set("shutting_down", n(metrics_.rejectedShuttingDown));
    j.set("rejected", std::move(rej));

    Json shard = Json::object();
    {
        std::lock_guard<std::mutex> lock(reservationsMutex_);
        shard.set("reservations",
                  Json::number(static_cast<std::uint64_t>(
                      reservations_.size())));
    }
    shard.set("reserved_slots",
              Json::number(static_cast<std::uint64_t>(
                  queue_.reserved())));
    shard.set("reserves", n(metrics_.reserves));
    shard.set("reserve_rejects", n(metrics_.reserveRejects));
    shard.set("releases", n(metrics_.releases));
    shard.set("run_jobs", n(metrics_.runJobsReqs));
    j.set("shard", std::move(shard));

    Json net = Json::object();
    net.set("flushes", n(metrics_.netFlushes));
    net.set("flushed_bytes", n(metrics_.netFlushedBytes));
    net.set("batched_rows", n(metrics_.netBatchedRows));
    j.set("net", std::move(net));

    Json sess = Json::object();
    sess.set("opened", n(metrics_.sessionsOpened));
    sess.set("closed", n(metrics_.sessionsClosed));
    j.set("sessions", std::move(sess));

    Json lat = Json::object();
    lat.set("queue_wait", metrics_.queueWait.toJson());
    lat.set("run", metrics_.runStage.toJson());
    lat.set("request", metrics_.request.toJson());
    j.set("latency", std::move(lat));
    return j;
}

} // namespace serve
} // namespace tw
