#include "serve/shard/router.hh"

#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "base/logging.hh"
#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/wire.hh"

namespace tw
{
namespace serve
{

using Clock = std::chrono::steady_clock;

namespace
{

/** router.* counters (process-wide; the router runs one per
 *  process). Names are asserted prom-mangleable by tests/obs. */
struct RouterCounters
{
    obs::Counter submits =
        obs::registry().counter("router.requests.submits");
    obs::Counter runExperiments =
        obs::registry().counter("router.requests.run_experiments");
    obs::Counter badRequests =
        obs::registry().counter("router.requests.bad");
    obs::Counter rejected =
        obs::registry().counter("router.requests.rejected");
    obs::Counter rowsMerged =
        obs::registry().counter("router.rows.merged");
    obs::Counter rowsBuffered =
        obs::registry().counter("router.rows.buffered");
    obs::Counter reserves =
        obs::registry().counter("router.fanout.reserves");
    obs::Counter commits =
        obs::registry().counter("router.fanout.commits");
    obs::Counter releases =
        obs::registry().counter("router.fanout.releases");
    obs::Counter shardFailures =
        obs::registry().counter("router.shards.failures");
    obs::Counter clientsAccepted =
        obs::registry().counter("router.clients.accepted");
    obs::Counter healthPings =
        obs::registry().counter("router.health.pings");
};

RouterCounters &
rc()
{
    static RouterCounters c;
    return c;
}

} // anonymous namespace

/** Common epoll-tag head: every registered pointer starts with a
 *  Type so wait() results dispatch without RTTI. */
struct Router::Io
{
    enum class Type { Listen, Client, Worker };
    Type type;
    explicit Io(Type t) : type(t) {}
};

struct Router::Listener : Io
{
    Listener() : Io(Type::Listen) {}
    int fd = -1;
};

struct Router::ClientConn : Io
{
    ClientConn() : Io(Type::Client) {}
    Conn conn;
    std::set<Pending *> pendings;
    std::set<AdminFan *> fans;
};

struct Router::WorkerLink : Io
{
    WorkerLink() : Io(Type::Worker) {}
    std::string name; //!< address string = ring member name
    bool isUnix = true;
    std::string host;
    int port = 0;
    Conn conn;
    bool up = false;
    bool awaitingPong = false;
};

/** One trial, planned and fingerprinted at the front door. */
struct Router::PlannedJob
{
    std::string specText;
    std::uint64_t fingerprint = 0;
    std::uint64_t seed = 0;
    bool slowdown = true;
    std::string unit;
    std::uint64_t seq = 0;
    std::uint64_t trial = 0;
};

/** One client request fanned over the ring: per-shard two-phase
 *  state plus the seq reorder buffer of the streaming merge. */
struct Router::Pending
{
    ClientConn *client = nullptr; //!< null once the client is gone
    std::uint64_t clientId = 0;
    std::string experiment;
    std::optional<std::uint64_t> deadlineMs;

    struct Part
    {
        WorkerLink *link = nullptr;
        std::vector<PlannedJob> jobs;
        std::uint64_t reservation = 0;
        enum class State
        {
            Reserving,
            Reserved,
            Running,
            Done,
            Failed
        } state = State::Reserving;
    };
    std::vector<Part> parts;
    std::size_t terminal = 0;
    bool committed = false;
    bool failed = false;

    /** seq -> re-tagged framed row line, drained in order. */
    std::map<std::uint64_t, std::string> buffered;
    std::uint64_t nextSeq = 0;
    std::uint64_t totalJobs = 0;

    std::uint64_t rows = 0, cached = 0, computed = 0, expired = 0;
};

/** One stats/flush-cache fan-out over every live shard. */
struct Router::AdminFan
{
    ClientConn *client = nullptr;
    std::uint64_t clientId = 0;
    bool stats = true; //!< else flush-cache
    unsigned outstanding = 0;
    Json shards = Json::object();
};

Router::Router(RouterConfig cfg) : cfg_(std::move(cfg)), map_(cfg_.vnodes)
{
    for (const std::string &addr : cfg_.shards) {
        auto link = std::make_unique<WorkerLink>();
        link->name = addr;
        if (addr.find('/') != std::string::npos) {
            link->isUnix = true;
        } else {
            link->isUnix = false;
            std::size_t colon = addr.rfind(':');
            if (colon != std::string::npos) {
                link->host = addr.substr(0, colon);
                link->port = std::atoi(addr.c_str() + colon + 1);
            }
        }
        links_.push_back(std::move(link));
    }
}

Router::~Router()
{
    stop();
}

bool
Router::start(std::string *err)
{
    if (started_.load()) {
        if (err)
            *err = "router already started";
        return false;
    }
    if (cfg_.socketPath.empty()) {
        if (err)
            *err = "no socket path configured";
        return false;
    }
    if (links_.empty()) {
        if (err)
            *err = "no shards configured";
        return false;
    }
    if (!poller_.valid()) {
        if (err)
            *err = "epoll unavailable";
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
    {
        auto l = std::make_unique<Listener>();
        l->fd = unixFd_;
        setNonBlocking(l->fd);
        poller_.add(l->fd, static_cast<Io *>(l.get()));
        listeners_.push_back(std::move(l));
    }
    if (tcpFd_ >= 0) {
        auto l = std::make_unique<Listener>();
        l->fd = tcpFd_;
        setNonBlocking(l->fd);
        poller_.add(l->fd, static_cast<Io *>(l.get()));
        listeners_.push_back(std::move(l));
    }
    started_.store(true);
    started_at_ = Clock::now();
    thread_ = std::thread([this] { loop(); });
    if (cfg_.verbose)
        std::fprintf(stderr,
                     "twserved: routing %s over %zu shards\n",
                     cfg_.socketPath.c_str(), links_.size());
    return true;
}

void
Router::requestStop()
{
    stopping_.store(true);
    poller_.wake();
}

void
Router::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
Router::stop()
{
    if (!started_.load())
        return;
    requestStop();
    join();
    started_.store(false);
}

// ---------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------

void
Router::loop()
{
    // Connect whatever is already up before serving anything.
    tick();

    std::vector<Poller::Event> events;
    auto interval =
        std::chrono::milliseconds(std::max(1u, cfg_.healthIntervalMs));
    Clock::time_point lastTick = Clock::now();
    bool listenersClosed = false;

    while (true) {
        if (stopping_.load() && !listenersClosed) {
            for (auto &l : listeners_) {
                poller_.del(l->fd);
                ::close(l->fd);
                l->fd = -1;
            }
            unixFd_ = -1;
            tcpFd_ = -1;
            ::unlink(cfg_.socketPath.c_str());
            listenersClosed = true;
        }
        if (stopping_.load() && pendings_.empty() && fans_.empty())
            break;

        if (Clock::now() - lastTick >= interval) {
            tick();
            lastTick = Clock::now();
        }

        poller_.wait(50, events);
        for (const Poller::Event &ev : events) {
            Io *io = static_cast<Io *>(ev.tag);
            switch (io->type) {
            case Io::Type::Listen:
                acceptReady(*static_cast<Listener *>(io));
                break;
            case Io::Type::Client: {
                auto *c = static_cast<ClientConn *>(io);
                if (ev.writable)
                    flushConn(io, c->conn, c->conn.fd);
                if (ev.readable)
                    clientReadable(c);
                break;
            }
            case Io::Type::Worker: {
                auto *w = static_cast<WorkerLink *>(io);
                if (ev.writable)
                    flushConn(io, w->conn, w->conn.fd);
                if (ev.readable)
                    workerReadable(w);
                break;
            }
            }
        }

        // Deferred teardown: fds close only here, never mid-batch,
        // so stale tags in `events` cannot dangle.
        for (auto it = clients_.begin(); it != clients_.end();) {
            if ((*it)->conn.dead) {
                ClientConn *c = it->get();
                ++it;
                closeClient(c);
            } else {
                ++it;
            }
        }
        for (auto &l : links_)
            if (l->conn.dead)
                markLinkDown(*l, "connection lost");
    }

    // Drained (or abandoned): tear everything down.
    for (auto &c : clients_) {
        if (c->conn.fd >= 0) {
            poller_.del(c->conn.fd);
            c->conn.closeFd();
        }
    }
    clients_.clear();
    for (auto &l : links_)
        if (l->conn.fd >= 0) {
            poller_.del(l->conn.fd);
            l->conn.closeFd();
        }
    if (!listenersClosed) {
        for (auto &l : listeners_)
            if (l->fd >= 0) {
                poller_.del(l->fd);
                ::close(l->fd);
            }
        ::unlink(cfg_.socketPath.c_str());
    }
    if (cfg_.verbose)
        std::fprintf(stderr, "twserved: router drained\n");
}

void
Router::tick()
{
    for (auto &lp : links_) {
        WorkerLink &l = *lp;
        if (!l.up) {
            if (!stopping_.load())
                connectLink(l);
            continue;
        }
        if (l.awaitingPong) {
            // Two intervals without a pong: the worker is wedged,
            // not just slow — cut it from the ring.
            markLinkDown(l, "health check timeout");
            continue;
        }
        Json ping = Json::object();
        ping.set("op", Json::str("ping"));
        OpRef ref;
        ref.kind = OpRef::Kind::Ping;
        ref.link = &l;
        sendWorkerOp(l, std::move(ping), ref);
        l.awaitingPong = true;
        rc().healthPings.inc();
    }
}

bool
Router::connectLink(WorkerLink &link)
{
    std::string err;
    int fd = link.isUnix
                 ? connectUnixSocket(link.name, &err)
                 : connectTcpSocket(link.host, link.port, &err);
    if (fd < 0)
        return false;
    setNonBlocking(fd);
    link.conn = Conn{};
    link.conn.fd = fd;
    link.awaitingPong = false;
    if (!poller_.add(fd, static_cast<Io *>(&link))) {
        ::close(fd);
        link.conn.fd = -1;
        return false;
    }
    link.up = true;
    upShards_.fetch_add(1);
    map_.add(link.name);
    if (cfg_.verbose)
        std::fprintf(stderr, "twserved: shard %s up (%zu in ring)\n",
                     link.name.c_str(), map_.size());
    return true;
}

void
Router::markLinkDown(WorkerLink &link, const char *why)
{
    if (link.conn.fd >= 0) {
        poller_.del(link.conn.fd);
        link.conn.closeFd();
    }
    link.conn = Conn{};
    link.awaitingPong = false;
    if (link.up) {
        link.up = false;
        upShards_.fetch_sub(1);
        map_.remove(link.name);
        rc().shardFailures.inc();
        if (cfg_.verbose)
            std::fprintf(stderr,
                         "twserved: shard %s down (%s, %zu left)\n",
                         link.name.c_str(), why, map_.size());
    }

    // Settle every op that was in flight on this link. Handling one
    // can mutate ops_ (releases, pending teardown), so restart the
    // scan after each.
    while (true) {
        auto it = ops_.begin();
        for (; it != ops_.end(); ++it)
            if (it->second.link == &link)
                break;
        if (it == ops_.end())
            return;
        OpRef ref = it->second;
        ops_.erase(it);
        switch (ref.kind) {
        case OpRef::Kind::Reserve:
        case OpRef::Kind::Run: {
            Pending &p = *ref.pending;
            Pending::Part &part = p.parts[ref.part];
            if (part.state != Pending::Part::State::Done
                && part.state != Pending::Part::State::Failed) {
                part.state = Pending::Part::State::Failed;
                ++p.terminal;
            }
            failPending(p, kErrShardFailed,
                        "shard " + link.name + " failed");
            partTerminal(p);
            break;
        }
        case OpRef::Kind::Stats:
        case OpRef::Kind::Flush:
            if (ref.fan && ref.fan->outstanding > 0) {
                --ref.fan->outstanding;
                finishFan(*ref.fan);
            }
            break;
        case OpRef::Kind::Ping:
        case OpRef::Kind::Release:
            break;
        }
    }
}

void
Router::flushConn(Io *io, Conn &conn, int fd)
{
    if (conn.dead || fd < 0)
        return;
    conn.flushOut();
    if (!conn.dead)
        poller_.mod(fd, io, conn.wantWrite);
}

void
Router::acceptReady(Listener &l)
{
    while (true) {
        int fd = ::accept(l.fd, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN (or transient) — poll again later
        setNonBlocking(fd);
        auto c = std::make_unique<ClientConn>();
        c->conn.fd = fd;
        if (!poller_.add(fd, static_cast<Io *>(c.get()))) {
            ::close(fd);
            continue;
        }
        rc().clientsAccepted.inc();
        clients_.push_back(std::move(c));
    }
}

void
Router::clientReadable(ClientConn *c)
{
    if (!c->conn.readReady()) {
        // Dead; the post-batch reaper calls closeClient.
    }
    std::string line;
    while (!c->conn.dead && c->conn.extractLine(line))
        if (!line.empty())
            handleClientLine(c, line);
    flushConn(static_cast<Io *>(c), c->conn, c->conn.fd);
}

void
Router::workerReadable(WorkerLink *w)
{
    if (!w->conn.readReady()) {
        // Dead; the post-batch reaper calls markLinkDown.
    }
    std::string line;
    while (!w->conn.dead && w->conn.extractLine(line))
        if (!line.empty())
            handleWorkerLine(w, line);
    flushConn(static_cast<Io *>(w), w->conn, w->conn.fd);
}

void
Router::closeClient(ClientConn *c)
{
    abandonPendingsOf(c);
    for (AdminFan *f : c->fans)
        f->client = nullptr;
    c->fans.clear();
    if (c->conn.fd >= 0) {
        poller_.del(c->conn.fd);
        c->conn.closeFd();
    }
    for (auto it = clients_.begin(); it != clients_.end(); ++it)
        if (it->get() == c) {
            clients_.erase(it);
            return;
        }
}

void
Router::abandonPendingsOf(ClientConn *c)
{
    std::vector<Pending *> mine(c->pendings.begin(),
                                c->pendings.end());
    c->pendings.clear();
    for (Pending *p : mine) {
        p->client = nullptr;
        // Releases uncommitted reservations and drops buffered
        // rows; committed shards run to completion and warm their
        // caches (the retry will hit them).
        failPending(*p, kErrShardFailed, "client vanished");
        partTerminal(*p);
    }
}

// ---------------------------------------------------------------
// Client-side protocol
// ---------------------------------------------------------------

void
Router::sendToClient(ClientConn *c, const Json &j)
{
    if (!c || c->conn.dead)
        return;
    c->conn.queueLine(j.dump());
    flushConn(static_cast<Io *>(c), c->conn, c->conn.fd);
}

void
Router::sendClientError(ClientConn *c, std::uint64_t id,
                        const char *code, const std::string &msg)
{
    Json j = Json::object();
    j.set("id", Json::number(id));
    j.set("ev", Json::str("error"));
    j.set("code", Json::str(code));
    j.set("msg", Json::str(msg));
    sendToClient(c, j);
}

std::uint64_t
Router::sendWorkerOp(WorkerLink &w, Json req, OpRef ref)
{
    std::uint64_t id = nextOpId_++;
    req.set("id", Json::number(id));
    ref.link = &w;
    ops_[id] = ref;
    w.conn.queueLine(req.dump());
    flushConn(static_cast<Io *>(&w), w.conn, w.conn.fd);
    return id;
}

void
Router::handleClientLine(ClientConn *c, const std::string &line)
{
    Json req;
    std::string err;
    if (!Json::parse(line, req, &err) || !req.isObject()) {
        rc().badRequests.inc();
        sendClientError(c, 0, kErrBadRequest,
                        "unparseable request: " + err);
        return;
    }
    std::uint64_t id = 0;
    if (const Json *j = req.find("id"); j && j->isNumber())
        id = j->asU64();
    const Json *opj = req.find("op");
    if (!opj || !opj->isString()) {
        rc().badRequests.inc();
        sendClientError(c, id, kErrBadRequest, "missing op");
        return;
    }
    const std::string &op = opj->asString();

    if (op == "submit") {
        handleSubmit(c, id, req);
        return;
    }
    if (op == "run_experiment") {
        handleRunExperiment(c, id, req);
        return;
    }
    if (op == "ping") {
        Json resp = Json::object();
        resp.set("id", Json::number(id));
        resp.set("ev", Json::str("pong"));
        sendToClient(c, resp);
        return;
    }
    if (op == "stats") {
        startFan(c, id, /*stats=*/true);
        return;
    }
    if (op == "flush-cache") {
        startFan(c, id, /*stats=*/false);
        return;
    }
    if (op == "metrics") {
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
        sendToClient(c, resp);
        return;
    }
    if (op == "shutdown") {
        Json resp = Json::object();
        resp.set("id", Json::number(id));
        resp.set("ev", Json::str("ok"));
        sendToClient(c, resp);
        requestStop();
        return;
    }
    rc().badRequests.inc();
    sendClientError(c, id, kErrBadRequest,
                    "unknown op '" + op + "'");
}

void
Router::handleSubmit(ClientConn *c, std::uint64_t id,
                     const Json &reqJson)
{
    rc().submits.inc();
    obs::ScopedSpan span("route", "router");

    auto bad = [&](const std::string &msg) {
        rc().badRequests.inc();
        sendClientError(c, id, kErrBadRequest, msg);
    };

    const Json *specj = reqJson.find("spec");
    if (!specj)
        return bad("missing spec");
    RunSpec spec;
    std::string err;
    if (specj->isString()) {
        if (!parseRunSpec(specj->asString(), spec, err))
            return bad("bad spec: " + err);
    } else if (specj->isObject()) {
        if (!specFromJson(*specj, spec, err))
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
    std::optional<std::uint64_t> deadline;
    if (!readDeadlineMs(reqJson, deadline, err))
        return bad(err);

    std::string text = formatRunSpec(spec);
    std::vector<PlannedJob> jobs;
    jobs.reserve(seeds.size());
    for (std::size_t t = 0; t < seeds.size(); ++t) {
        PlannedJob pj;
        pj.specText = text;
        pj.fingerprint = specFingerprint(spec, seeds[t], slowdown);
        pj.seed = seeds[t];
        pj.slowdown = slowdown;
        pj.seq = t;
        pj.trial = t;
        jobs.push_back(std::move(pj));
    }
    startRequest(c, id, "", std::move(jobs), deadline);
}

void
Router::handleRunExperiment(ClientConn *c, std::uint64_t id,
                            const Json &reqJson)
{
    rc().runExperiments.inc();
    obs::ScopedSpan span("route", "router");

    auto bad = [&](const std::string &msg) {
        rc().badRequests.inc();
        sendClientError(c, id, kErrBadRequest, msg);
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

    // The SAME enumeration a single twserved (or a local
    // bench_driver) runs — seq dense from 0 — which is exactly what
    // lets the merge reorder on seq and come out bit-identical.
    std::vector<ExperimentJob> plan = experimentJobs(*def, scale);
    std::vector<PlannedJob> jobs;
    jobs.reserve(plan.size());
    for (ExperimentJob &ej2 : plan) {
        PlannedJob pj;
        pj.specText = formatRunSpec(ej2.spec);
        pj.fingerprint =
            specFingerprint(ej2.spec, ej2.seed, ej2.withSlowdown);
        pj.seed = ej2.seed;
        pj.slowdown = ej2.withSlowdown;
        pj.unit = std::move(ej2.unit);
        pj.seq = ej2.seq;
        pj.trial = ej2.trial;
        jobs.push_back(std::move(pj));
    }
    if (jobs.empty())
        return bad("experiment has no jobs");
    startRequest(c, id, def->name, std::move(jobs), std::nullopt);
}

void
Router::startRequest(ClientConn *c, std::uint64_t id,
                     std::string experiment,
                     std::vector<PlannedJob> jobs,
                     std::optional<std::uint64_t> deadline_ms)
{
    if (stopping_.load()) {
        rc().rejected.inc();
        sendClientError(c, id, kErrShuttingDown,
                        "router is draining");
        return;
    }
    if (map_.empty()) {
        rc().rejected.inc();
        sendClientError(c, id, kErrShardFailed,
                        "no shards available");
        return;
    }

    auto p = std::make_unique<Pending>();
    p->client = c;
    p->clientId = id;
    p->experiment = std::move(experiment);
    p->totalJobs = jobs.size();
    p->deadlineMs = deadline_ms;

    // Group by ring owner. Member order is the sorted member set,
    // so part order is deterministic too.
    std::map<std::string, std::vector<PlannedJob>> byOwner;
    for (PlannedJob &pj : jobs)
        byOwner[map_.owner(pj.fingerprint)].push_back(std::move(pj));
    for (auto &kv : byOwner) {
        Pending::Part part;
        for (auto &lp : links_)
            if (lp->name == kv.first) {
                part.link = lp.get();
                break;
            }
        part.jobs = std::move(kv.second);
        p->parts.push_back(std::move(part));
    }

    Pending *raw = p.get();
    pendings_.push_back(std::move(p));
    c->pendings.insert(raw);

    // Phase 1: reserve on every involved shard. Commit happens only
    // once ALL of them have said yes — all-or-nothing admission,
    // distributed.
    for (std::size_t i = 0; i < raw->parts.size(); ++i) {
        Pending::Part &part = raw->parts[i];
        Json req = Json::object();
        req.set("op", Json::str("reserve"));
        req.set("jobs",
                Json::number(static_cast<std::uint64_t>(
                    part.jobs.size())));
        OpRef ref;
        ref.kind = OpRef::Kind::Reserve;
        ref.pending = raw;
        ref.part = i;
        sendWorkerOp(*part.link, std::move(req), ref);
        rc().reserves.inc();
    }
}

void
Router::commitPending(Pending &p)
{
    obs::ScopedSpan span("commit", "router");
    p.committed = true;
    for (std::size_t i = 0; i < p.parts.size(); ++i) {
        Pending::Part &part = p.parts[i];
        Json req = Json::object();
        req.set("op", Json::str("run_jobs"));
        req.set("reservation", Json::number(part.reservation));
        if (!p.experiment.empty())
            req.set("experiment", Json::str(p.experiment));
        if (p.deadlineMs)
            req.set("deadline_ms", Json::number(*p.deadlineMs));
        // The canonical spec text dwarfs everything else on this
        // wire (~6 KB vs ~100 B of coordinates per job). Hoist the
        // first job's spec to the batch default and only spell out
        // per-job specs that differ (mixed-spec experiment slices).
        const std::string &defaultSpec = part.jobs.front().specText;
        req.set("spec", Json::str(defaultSpec));
        Json jobs = Json::array();
        for (const PlannedJob &pj : part.jobs) {
            Json j = Json::object();
            if (pj.specText != defaultSpec)
                j.set("spec", Json::str(pj.specText));
            j.set("seed", Json::number(pj.seed));
            j.set("slowdown", Json::boolean(pj.slowdown));
            if (!pj.unit.empty())
                j.set("unit", Json::str(pj.unit));
            j.set("seq", Json::number(pj.seq));
            j.set("trial", Json::number(pj.trial));
            jobs.push(std::move(j));
        }
        req.set("jobs", std::move(jobs));
        part.state = Pending::Part::State::Running;
        OpRef ref;
        ref.kind = OpRef::Kind::Run;
        ref.pending = &p;
        ref.part = i;
        sendWorkerOp(*part.link, std::move(req), ref);
        rc().commits.inc();
    }
}

void
Router::failPending(Pending &p, const char *code,
                    const std::string &msg)
{
    if (!p.failed) {
        p.failed = true;
        if (p.client)
            sendClientError(p.client, p.clientId, code, msg);
        rc().rejected.inc();
    }
    p.buffered.clear();
    // Hand back every reservation that was granted but never
    // committed (only possible while still in phase 1).
    for (std::size_t i = 0; i < p.parts.size(); ++i) {
        Pending::Part &part = p.parts[i];
        if (part.state != Pending::Part::State::Reserved)
            continue;
        part.state = Pending::Part::State::Failed;
        ++p.terminal;
        if (part.link->up) {
            Json rel = Json::object();
            rel.set("op", Json::str("release"));
            rel.set("reservation", Json::number(part.reservation));
            OpRef ref;
            ref.kind = OpRef::Kind::Release;
            sendWorkerOp(*part.link, std::move(rel), ref);
            rc().releases.inc();
        }
    }
}

void
Router::partTerminal(Pending &p)
{
    if (p.terminal < p.parts.size())
        return;
    finishPending(p);
}

void
Router::emitReadyRows(Pending &p)
{
    if (!p.client || p.failed)
        return;
    while (!p.buffered.empty()
           && p.buffered.begin()->first == p.nextSeq) {
        p.client->conn.queueBytes(p.buffered.begin()->second.data(),
                                  p.buffered.begin()->second.size());
        p.buffered.erase(p.buffered.begin());
        ++p.nextSeq;
        rc().rowsMerged.inc();
    }
}

void
Router::finishPending(Pending &p)
{
    if (!p.failed && p.client) {
        emitReadyRows(p);
        // Stragglers (a seq gap from a dropped row) would stall the
        // cursor; a non-failed request has none by construction.
        Json done = Json::object();
        done.set("id", Json::number(p.clientId));
        done.set("ev", Json::str("done"));
        done.set("rows", Json::number(p.rows));
        done.set("cached", Json::number(p.cached));
        done.set("computed", Json::number(p.computed));
        done.set("expired", Json::number(p.expired));
        sendToClient(p.client, done);
    }
    if (p.client)
        p.client->pendings.erase(&p);
    // Defensive: no op may outlive its pending.
    for (auto it = ops_.begin(); it != ops_.end();)
        it = it->second.pending == &p ? ops_.erase(it) : ++it;
    for (auto it = pendings_.begin(); it != pendings_.end(); ++it)
        if (it->get() == &p) {
            pendings_.erase(it);
            return;
        }
}

// ---------------------------------------------------------------
// Worker-side protocol
// ---------------------------------------------------------------

void
Router::handleWorkerLine(WorkerLink *w, const std::string &line)
{
    Json resp;
    std::string err;
    if (!Json::parse(line, resp, &err) || !resp.isObject()) {
        w->conn.dead = true; // protocol violation; cut the link
        return;
    }
    std::uint64_t id = 0;
    if (const Json *j = resp.find("id"); j && j->isNumber())
        id = j->asU64();
    const Json *evj = resp.find("ev");
    if (!evj || !evj->isString())
        return;
    const std::string &ev = evj->asString();

    auto it = ops_.find(id);
    if (it == ops_.end())
        return; // settled already (late row after a failure)
    OpRef ref = it->second;

    if (ev == "row") {
        if (ref.kind != OpRef::Kind::Run)
            return;
        Pending &p = *ref.pending;
        if (p.failed || !p.client)
            return; // optimistic streaming: late rows are dropped
        Json row = resp;
        row.set("id", Json::number(p.clientId));
        const Json *seqj = p.experiment.empty() ? row.find("trial")
                                                : row.find("seq");
        if (!seqj || !seqj->isNumber())
            return;
        std::uint64_t seq = seqj->asU64();
        std::string framed = row.dump();
        framed.push_back('\n');
        if (seq != p.nextSeq)
            rc().rowsBuffered.inc();
        p.buffered[seq] = std::move(framed);
        emitReadyRows(p);
        flushConn(static_cast<Io *>(p.client), p.client->conn,
                  p.client->conn.fd);
        return;
    }

    if (ev == "done") {
        if (ref.kind != OpRef::Kind::Run)
            return;
        ops_.erase(it);
        Pending &p = *ref.pending;
        Pending::Part &part = p.parts[ref.part];
        auto acc = [&resp](const char *k) -> std::uint64_t {
            const Json *j = resp.find(k);
            return j && j->isNumber() ? j->asU64() : 0;
        };
        p.rows += acc("rows");
        p.cached += acc("cached");
        p.computed += acc("computed");
        p.expired += acc("expired");
        if (part.state != Pending::Part::State::Done
            && part.state != Pending::Part::State::Failed) {
            part.state = Pending::Part::State::Done;
            ++p.terminal;
        }
        partTerminal(p);
        return;
    }

    if (ev == "reserved") {
        if (ref.kind != OpRef::Kind::Reserve)
            return;
        ops_.erase(it);
        Pending &p = *ref.pending;
        Pending::Part &part = p.parts[ref.part];
        const Json *tok = resp.find("reservation");
        part.reservation =
            tok && tok->isNumber() ? tok->asU64() : 0;
        if (p.failed) {
            // Too late — a sibling shard already said no. Hand the
            // slots straight back.
            part.state = Pending::Part::State::Failed;
            ++p.terminal;
            Json rel = Json::object();
            rel.set("op", Json::str("release"));
            rel.set("reservation", Json::number(part.reservation));
            OpRef rref;
            rref.kind = OpRef::Kind::Release;
            sendWorkerOp(*w, std::move(rel), rref);
            rc().releases.inc();
            partTerminal(p);
            return;
        }
        part.state = Pending::Part::State::Reserved;
        for (const Pending::Part &q : p.parts)
            if (q.state != Pending::Part::State::Reserved)
                return; // still waiting on a sibling
        commitPending(p);
        return;
    }

    if (ev == "error") {
        ops_.erase(it);
        const Json *codej = resp.find("code");
        const Json *msgj = resp.find("msg");
        std::string code =
            codej && codej->isString() ? codej->asString()
                                       : kErrShardFailed;
        std::string msg = msgj && msgj->isString()
                              ? msgj->asString()
                              : "shard error";
        switch (ref.kind) {
        case OpRef::Kind::Reserve:
        case OpRef::Kind::Run: {
            Pending &p = *ref.pending;
            Pending::Part &part = p.parts[ref.part];
            if (part.state != Pending::Part::State::Done
                && part.state != Pending::Part::State::Failed) {
                part.state = Pending::Part::State::Failed;
                ++p.terminal;
            }
            failPending(p, code.c_str(),
                        part.link->name + ": " + msg);
            partTerminal(p);
            break;
        }
        case OpRef::Kind::Stats:
        case OpRef::Kind::Flush:
            if (ref.fan && ref.fan->outstanding > 0) {
                --ref.fan->outstanding;
                finishFan(*ref.fan);
            }
            break;
        case OpRef::Kind::Ping:
        case OpRef::Kind::Release:
            break;
        }
        return;
    }

    if (ev == "pong") {
        ops_.erase(it);
        if (ref.kind == OpRef::Kind::Ping)
            w->awaitingPong = false;
        return;
    }

    if (ev == "ok") {
        ops_.erase(it);
        if (ref.kind == OpRef::Kind::Flush && ref.fan
            && ref.fan->outstanding > 0) {
            --ref.fan->outstanding;
            finishFan(*ref.fan);
        }
        return;
    }

    if (ev == "stats") {
        ops_.erase(it);
        if (ref.kind == OpRef::Kind::Stats && ref.fan) {
            if (const Json *s = resp.find("stats"))
                ref.fan->shards.set(w->name, *s);
            if (ref.fan->outstanding > 0)
                --ref.fan->outstanding;
            finishFan(*ref.fan);
        }
        return;
    }
    // Unknown ev: ignore (forward compatibility).
}

// ---------------------------------------------------------------
// Admin fan-out
// ---------------------------------------------------------------

void
Router::startFan(ClientConn *c, std::uint64_t id, bool stats)
{
    auto f = std::make_unique<AdminFan>();
    f->client = c;
    f->clientId = id;
    f->stats = stats;
    AdminFan *raw = f.get();
    fans_.push_back(std::move(f));
    c->fans.insert(raw);
    for (auto &lp : links_) {
        if (!lp->up)
            continue;
        Json req = Json::object();
        req.set("op", Json::str(stats ? "stats" : "flush-cache"));
        OpRef ref;
        ref.kind = stats ? OpRef::Kind::Stats : OpRef::Kind::Flush;
        ref.fan = raw;
        sendWorkerOp(*lp, std::move(req), ref);
        ++raw->outstanding;
    }
    finishFan(*raw); // replies immediately when no shard is up
}

void
Router::finishFan(AdminFan &f)
{
    if (f.outstanding > 0)
        return;
    if (f.client) {
        Json resp = Json::object();
        resp.set("id", Json::number(f.clientId));
        if (f.stats) {
            resp.set("ev", Json::str("stats"));
            Json stats = Json::object();
            stats.set("role", Json::str("router"));
            stats.set("router", routerStatsJson());
            // Cross-shard ResultCache visibility: per-experiment
            // hit/miss totals summed over every shard's answer.
            std::map<std::string,
                     std::pair<std::uint64_t, std::uint64_t>>
                agg;
            for (const auto &kv : f.shards.members()) {
                const Json *exps = kv.second.find("experiments");
                if (!exps || !exps->isObject())
                    continue;
                for (const auto &ekv : exps->members()) {
                    const Json *h = ekv.second.find("hits");
                    const Json *m = ekv.second.find("misses");
                    auto &slot = agg[ekv.first];
                    slot.first += h && h->isNumber() ? h->asU64() : 0;
                    slot.second +=
                        m && m->isNumber() ? m->asU64() : 0;
                }
            }
            Json exps = Json::object();
            for (const auto &kv : agg) {
                Json e = Json::object();
                e.set("hits", Json::number(kv.second.first));
                e.set("misses", Json::number(kv.second.second));
                exps.set(kv.first, std::move(e));
            }
            stats.set("experiments", std::move(exps));
            stats.set("shards", f.shards);
            resp.set("stats", std::move(stats));
        } else {
            resp.set("ev", Json::str("ok"));
        }
        sendToClient(f.client, resp);
        f.client->fans.erase(&f);
    }
    for (auto it = ops_.begin(); it != ops_.end();)
        it = it->second.fan == &f ? ops_.erase(it) : ++it;
    for (auto it = fans_.begin(); it != fans_.end(); ++it)
        if (it->get() == &f) {
            fans_.erase(it);
            return;
        }
}

Json
Router::routerStatsJson() const
{
    Json j = Json::object();
    j.set("uptime_s",
          Json::number(std::chrono::duration<double>(
                           Clock::now() - started_at_)
                           .count()));
    j.set("shards_configured",
          Json::number(
              static_cast<std::uint64_t>(links_.size())));
    j.set("shards_up",
          Json::number(
              static_cast<std::uint64_t>(map_.size())));
    Json shards = Json::object();
    for (const auto &lp : links_)
        shards.set(lp->name, Json::boolean(lp->up));
    j.set("shard_up", std::move(shards));
    j.set("pending_requests",
          Json::number(
              static_cast<std::uint64_t>(pendings_.size())));
    Json ops = Json::object();
    ops.set("submits", Json::number(rc().submits.value()));
    ops.set("run_experiments",
            Json::number(rc().runExperiments.value()));
    ops.set("bad_requests", Json::number(rc().badRequests.value()));
    ops.set("rejected", Json::number(rc().rejected.value()));
    j.set("ops", std::move(ops));
    Json rows = Json::object();
    rows.set("merged", Json::number(rc().rowsMerged.value()));
    rows.set("buffered", Json::number(rc().rowsBuffered.value()));
    j.set("rows", std::move(rows));
    Json fan = Json::object();
    fan.set("reserves", Json::number(rc().reserves.value()));
    fan.set("commits", Json::number(rc().commits.value()));
    fan.set("releases", Json::number(rc().releases.value()));
    j.set("fanout", std::move(fan));
    j.set("shard_failures",
          Json::number(rc().shardFailures.value()));
    return j;
}

} // namespace serve
} // namespace tw
