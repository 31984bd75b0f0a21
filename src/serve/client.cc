#include "serve/client.hh"

#include <algorithm>
#include <climits>
#include <type_traits>
#include <unistd.h>

#include "harness/specio.hh"

namespace tw
{
namespace serve
{

std::vector<RunOutcome>
SweepResult::outcomes() const
{
    std::uint64_t maxTrial = 0;
    for (const SweepRow &r : rows)
        maxTrial = std::max(maxTrial, r.trial);
    std::vector<RunOutcome> out(rows.empty() ? 0 : maxTrial + 1);
    for (const SweepRow &r : rows)
        if (!r.expired)
            out[r.trial] = r.outcome;
    return out;
}

Client::~Client()
{
    disconnect();
}

bool
Client::connectUnix(const std::string &path, std::string *err)
{
    disconnect();
    fd_ = connectUnixSocket(path, err);
    if (fd_ < 0)
        return false;
    reader_.reset(fd_);
    return true;
}

bool
Client::connectTcp(const std::string &host, int port,
                   std::string *err)
{
    disconnect();
    fd_ = connectTcpSocket(host, port, err);
    if (fd_ < 0)
        return false;
    reader_.reset(fd_);
    return true;
}

void
Client::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::send(Json &req, std::uint64_t &id, std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    id = nextId_++;
    req.set("id", Json::number(id));
    if (!sendJsonLine(fd_, req)) {
        err = "send failed";
        return false;
    }
    return true;
}

bool
Client::nextFrame(std::uint64_t id, Json &frame, std::string &ev,
                  std::string &err)
{
    std::string line;
    while (true) {
        if (reader_.readLine(line) != LineReader::Status::Line) {
            err = "connection closed mid-response";
            return false;
        }
        std::string perr;
        if (!Json::parse(line, frame, &perr) || !frame.isObject()) {
            err = "bad frame from server: " + perr;
            return false;
        }
        std::uint64_t fid = 0;
        const Json *idj = frame.find("id");
        if (!idj || !idj->toUnsigned(UINT64_MAX, fid) || fid != id)
            continue; // a frame for some other request id
        const Json *evj = frame.find("ev");
        ev = evj ? evj->asString() : "";
        return true;
    }
}

template <typename Row>
void
Client::stream(Json req, StreamResult<Row> &result,
               const std::function<void(const Row &)> &on_row)
{
    std::uint64_t id = 0;
    Json frame;
    std::string ev;
    if (!send(req, id, result.errorMsg))
        return;
    while (nextFrame(id, frame, ev, result.errorMsg)) {
        if (ev == "row") {
            Row row;
            if (const Json *j = frame.find("trial"))
                row.trial = j->asU64();
            if (const Json *j = frame.find("seed"))
                row.seed = j->asU64();
            if (const Json *j = frame.find("cached"))
                row.cached = j->asBool();
            if (const Json *j = frame.find("host_s"))
                row.hostSeconds = j->asDouble();
            if constexpr (std::is_same_v<Row, ServedExperimentRow>) {
                if (const Json *j = frame.find("unit"))
                    row.unit = j->asString();
                if (const Json *j = frame.find("seq"))
                    row.seq = j->asU64();
            }
            if (frame.find("error")) {
                row.expired = true;
            } else if (const Json *j = frame.find("outcome")) {
                std::string oerr;
                if (!outcomeFromJson(*j, row.outcome, oerr)) {
                    result.errorMsg = "bad outcome row: " + oerr;
                    return;
                }
                // hostSeconds travels outside the canonical text.
                row.outcome.hostSeconds = row.hostSeconds;
            }
            if (on_row)
                on_row(row);
            result.rows.push_back(std::move(row));
        } else if (ev == "done") {
            if (const Json *j = frame.find("cached"))
                result.cached = j->asU64();
            if (const Json *j = frame.find("computed"))
                result.computed = j->asU64();
            if (const Json *j = frame.find("expired"))
                result.expired = j->asU64();
            result.ok = true;
            return;
        } else if (ev == "error") {
            if (const Json *j = frame.find("code"))
                result.errorCode = j->asString();
            if (const Json *j = frame.find("msg"))
                result.errorMsg = j->asString();
            return;
        } else {
            // Unknown event for our id: protocol error.
            result.errorMsg = "unexpected event '" + ev + "'";
            return;
        }
    }
}

SweepResult
Client::submitSweep(
    const RunSpec &spec, const std::vector<std::uint64_t> &seeds,
    bool with_slowdown, std::optional<std::uint64_t> deadline_ms,
    const std::function<void(const SweepRow &)> &on_row)
{
    Json req = Json::object();
    req.set("op", Json::str("submit"));
    // Ship the spec as canonical text: the server parses it back
    // with the same strict reader, so what was submitted is exactly
    // what is fingerprinted.
    req.set("spec", Json::str(formatRunSpec(spec)));
    Json seedArr = Json::array();
    for (std::uint64_t s : seeds)
        seedArr.push(Json::number(s));
    req.set("seeds", std::move(seedArr));
    req.set("slowdown", Json::boolean(with_slowdown));
    if (deadline_ms)
        req.set("deadline_ms", Json::number(*deadline_ms));
    SweepResult result;
    stream(std::move(req), result, on_row);
    return result;
}

ExperimentResult
Client::runExperiment(const std::string &name, unsigned scale_div)
{
    Json req = Json::object();
    req.set("op", Json::str("run_experiment"));
    req.set("experiment", Json::str(name));
    if (scale_div != 0)
        req.set("scale", Json::number(
                             static_cast<std::uint64_t>(scale_div)));
    ExperimentResult result;
    result.experiment = name;
    stream(std::move(req), result);
    // Workers finish out of order; the registry's job order is by
    // dense seq.
    std::sort(result.rows.begin(), result.rows.end(),
              [](const ServedExperimentRow &a,
                 const ServedExperimentRow &b) { return a.seq < b.seq; });
    return result;
}

bool
Client::simpleOp(const char *op, const char *expect_ev, Json &resp,
                 std::string *err)
{
    Json req = Json::object();
    req.set("op", Json::str(op));
    return requestResponse(std::move(req), expect_ev, resp, err);
}

bool
Client::requestResponse(Json req, const char *expect_ev, Json &resp,
                        std::string *err)
{
    std::string why;
    std::uint64_t id = 0;
    std::string ev;
    if (send(req, id, why) && nextFrame(id, resp, ev, why)) {
        if (ev == expect_ev)
            return true;
        if (ev == "error") {
            const Json *m = resp.find("msg");
            why = m ? m->asString() : "server error";
        } else {
            why = "unexpected event '" + ev + "'";
        }
    }
    if (err)
        *err = why;
    return false;
}

bool
Client::stats(Json &out, std::string *err)
{
    Json resp;
    if (!simpleOp("stats", "stats", resp, err))
        return false;
    if (const Json *s = resp.find("stats")) {
        out = *s;
        return true;
    }
    if (err)
        *err = "stats response missing payload";
    return false;
}

bool
Client::metrics(Json &out, std::string *prom_text, bool prom,
                std::string *err)
{
    Json req = Json::object();
    req.set("op", Json::str("metrics"));
    if (prom)
        req.set("format", Json::str("prom"));
    Json resp;
    if (!requestResponse(std::move(req), "metrics", resp, err))
        return false;
    if (prom) {
        const Json *p = resp.find("prom");
        if (!p || !p->isString()) {
            if (err)
                *err = "metrics response missing prom payload";
            return false;
        }
        if (prom_text)
            *prom_text = p->asString();
        return true;
    }
    if (const Json *m = resp.find("metrics")) {
        out = *m;
        return true;
    }
    if (err)
        *err = "metrics response missing payload";
    return false;
}

bool
Client::flushCache(std::string *err)
{
    Json resp;
    return simpleOp("flush-cache", "ok", resp, err);
}

bool
Client::shutdownServer(std::string *err)
{
    Json resp;
    return simpleOp("shutdown", "ok", resp, err);
}

bool
Client::ping(std::string *err)
{
    Json resp;
    return simpleOp("ping", "pong", resp, err);
}

} // namespace serve
} // namespace tw
