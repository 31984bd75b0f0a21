/**
 * @file
 * Wire-level plumbing of the experiment service: newline-delimited
 * JSON framing over a connected socket.
 *
 * The protocol (grammar in DESIGN.md §9) is symmetric at this
 * layer: each side writes complete single-line JSON objects
 * terminated by '\n' and reads the peer's lines back. Requests
 * carry an "op" and a client-chosen "id"; every response echoes the
 * "id" and tags itself with an "ev" (row/done/error/stats/ok/pong),
 * so responses to interleaved requests are attributable.
 *
 * Writes use send(MSG_NOSIGNAL): a vanished client must surface as
 * an error return to the worker streaming its rows, never as
 * SIGPIPE killing the daemon.
 */

#ifndef TW_SERVE_WIRE_HH
#define TW_SERVE_WIRE_HH

#include <cstdint>
#include <string>

#include "base/json.hh"

namespace tw
{
namespace serve
{

/** Machine-readable error codes of "ev":"error" responses. */
inline constexpr const char *kErrBadRequest = "bad_request";
inline constexpr const char *kErrOverloaded = "overloaded";
inline constexpr const char *kErrShuttingDown = "shutting_down";

/** Largest "deadline_ms" (about 31 years): now() plus this many
 *  milliseconds cannot overflow the clock's 64-bit nanoseconds. */
inline constexpr std::uint64_t kMaxDeadlineMs = 1000000000000ull;

/** A response head, {"id":@p id, "ev":@p ev}. */
Json reply(std::uint64_t id, const char *ev);

/** An "ev":"error" response. */
Json errorReply(std::uint64_t id, const char *code, const std::string &msg);

/** The `metrics` op's response: the whole-process registry (engine
 *  counters next to serve counters), as JSON, or as Prometheus text
 *  when @p req says "format":"prom". */
Json metricsReply(std::uint64_t id, const Json &req);

/** Write all of @p data to @p fd (EINTR-safe, SIGPIPE-free). */
bool sendAll(int fd, const char *data, std::size_t len);

/** Write one '\n'-terminated frame. */
bool sendLine(int fd, const std::string &line);

/** dump() + newline + send, the standard response path. */
bool sendJsonLine(int fd, const Json &j);

/**
 * Buffered '\n'-delimited reader over one socket.
 */
class LineReader
{
  public:
    enum class Status { Line, Eof, Error };

    /** Longest accepted line. A peer streaming bytes with no
     *  newline (the listener is unauthenticated on loopback) must
     *  hit a bound, not exhaust memory; 8 MiB is orders of
     *  magnitude above any legitimate frame. */
    static constexpr std::size_t kMaxLineBytes = 8u << 20;

    LineReader() = default;
    explicit LineReader(int fd) : fd_(fd) {}

    void reset(int fd);

    /**
     * Block for the next complete line (without the newline).
     * Eof after the final byte of an exactly-terminated stream;
     * a non-empty partial line at EOF is reported as Error (a
     * truncated frame is a protocol violation, not a message), and
     * so is an unterminated line past kMaxLineBytes.
     */
    Status readLine(std::string &out);

  private:
    int fd_ = -1;
    std::string buf_;
    std::size_t pos_ = 0; //!< scan offset into buf_
};

/** Connect a SOCK_STREAM unix-domain socket; -1 + @p err on
 *  failure. */
int connectUnixSocket(const std::string &path, std::string *err);

/** Connect TCP to @p host:@p port; -1 + @p err on failure. */
int connectTcpSocket(const std::string &host, int port,
                     std::string *err);

/** Bind + listen a unix-domain socket (unlinking any stale file at
 *  @p path); -1 + @p err on failure. */
int listenUnixSocket(const std::string &path, std::string *err);

/** Bind + listen TCP on @p bind_addr:@p port; -1 + @p err. */
int listenTcpSocket(const std::string &bind_addr, int port,
                    std::string *err);

} // namespace serve
} // namespace tw

#endif // TW_SERVE_WIRE_HH
