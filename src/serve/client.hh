/**
 * @file
 * Client side of the experiment service: connect, submit a sweep,
 * and fold the streamed rows back into RunOutcomes.
 *
 * This is the library twctl and bench_serve are thin shells over.
 * One Client owns one connection; it is NOT thread-safe (one
 * request in flight at a time — the protocol allows interleaving by
 * id, but no caller here needs it, and a sequential client keeps
 * the row callback ordering trivial to reason about).
 */

#ifndef TW_SERVE_CLIENT_HH
#define TW_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/json.hh"
#include "harness/runner.hh"
#include "serve/wire.hh"

namespace tw
{
namespace serve
{

/** One streamed trial result. */
struct SweepRow
{
    std::uint64_t trial = 0;
    std::uint64_t seed = 0;
    bool cached = false;
    /** Deadline-expired rows carry no outcome. */
    bool expired = false;
    double hostSeconds = 0.0;
    RunOutcome outcome;
};

/** One streamed row of a served registry experiment. */
struct ServedExperimentRow : SweepRow
{
    std::string unit;
    std::uint64_t seq = 0;
};

/** Everything a work request returned: its rows, then the `done`
 *  counts or the error. */
template <typename Row>
struct StreamResult
{
    bool ok = false;
    /** kErrOverloaded / kErrShuttingDown / kErrBadRequest / "" on
     *  transport failure. */
    std::string errorCode;
    std::string errorMsg;

    std::vector<Row> rows;
    std::uint64_t cached = 0;
    std::uint64_t computed = 0;
    std::uint64_t expired = 0;
};

/** Everything a run_experiment returned. Rows are sorted by seq —
 *  the registry's deterministic job order — so rendering them with
 *  experimentRowJson reproduces a local `bench_driver --run --rows`
 *  stream byte for byte. */
struct ExperimentResult : StreamResult<ServedExperimentRow>
{
    std::string experiment;
};

/** Everything a submit returned. */
struct SweepResult : StreamResult<SweepRow>
{
    /** Outcomes indexed by trial (expired rows left
     *  default-constructed). Size = max trial index + 1. */
    std::vector<RunOutcome> outcomes() const;
};

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool connectUnix(const std::string &path,
                     std::string *err = nullptr);
    bool connectTcp(const std::string &host, int port,
                    std::string *err = nullptr);
    bool connected() const { return fd_ >= 0; }
    void disconnect();

    /**
     * Submit @p spec over @p seeds and collect every row until the
     * server's "done" (or an error). @p on_row, when set, sees each
     * row as it arrives — rows appear in server completion order,
     * not trial order.
     */
    SweepResult submitSweep(
        const RunSpec &spec,
        const std::vector<std::uint64_t> &seeds,
        bool with_slowdown = true,
        std::optional<std::uint64_t> deadline_ms = std::nullopt,
        const std::function<void(const SweepRow &)> &on_row = {});

    /**
     * Run registry experiment @p name on the server (the
     * run_experiment op) and collect every row. @p scale_div of 0
     * lets the server resolve the experiment's own scale.
     */
    ExperimentResult runExperiment(const std::string &name,
                                   unsigned scale_div = 0);

    /** Fetch the admin stats object into @p out. */
    bool stats(Json &out, std::string *err = nullptr);

    /**
     * Fetch the process-wide metric registry. With @p prom false,
     * @p out is the structured snapshot
     * {"counters":..,"gauges":..,"histograms":..} and @p prom_text
     * is untouched; with @p prom true, @p prom_text receives the
     * Prometheus text exposition instead.
     */
    bool metrics(Json &out, std::string *prom_text,
                 bool prom = false, std::string *err = nullptr);

    bool flushCache(std::string *err = nullptr);

    /** Ask the server to drain and exit. */
    bool shutdownServer(std::string *err = nullptr);

    bool ping(std::string *err = nullptr);

  private:
    /** Send @p req under a fresh id; false + @p err if not
     *  connected or the send fails. */
    bool send(Json &req, std::uint64_t &id, std::string &err);
    /** Read until the next frame for request @p id; false + @p err
     *  if the connection ends or a frame does not parse. */
    bool nextFrame(std::uint64_t id, Json &frame, std::string &ev,
                   std::string &err);
    /** Send work request @p req and fold its rows (each also handed
     *  to @p on_row) and its `done` or error into @p result. */
    template <typename Row>
    void stream(Json req, StreamResult<Row> &result,
                const std::function<void(const Row &)> &on_row = {});
    /** Send one request and read frames until a terminal event. */
    bool simpleOp(const char *op, const char *expect_ev, Json &resp,
                  std::string *err);
    /** Like simpleOp, but the caller supplies extra request fields
     *  (op/id are filled in here). */
    bool requestResponse(Json req, const char *expect_ev,
                         Json &resp, std::string *err);

    int fd_ = -1;
    LineReader reader_;
    std::uint64_t nextId_ = 1;
};

} // namespace serve
} // namespace tw

#endif // TW_SERVE_CLIENT_HH
