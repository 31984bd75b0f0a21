/**
 * @file
 * The async front door's engine room: an epoll event loop plus
 * per-connection nonblocking NDJSON buffers.
 *
 * twserved's worker processes keep PR 4's thread-per-session model —
 * a worker holds a handful of long-lived connections (the router,
 * the odd twctl), and a blocking thread per session is the simplest
 * correct thing. The ROUTER is different: it fronts every client of
 * the pool, so connection count is the resource to defend. One
 * poller thread multiplexes all of them: accept, read, write, and
 * worker-link traffic are all edge events on one epoll set, and a
 * connection costs two buffers instead of a stack.
 *
 * Design rules:
 *
 *  - Level-triggered epoll. EPOLLOUT is registered only while a
 *    connection has unflushed output (wantWrite), so an idle
 *    connection never spins the loop.
 *  - All Conn state is owned by the loop thread; there are no locks
 *    here. Cross-thread control (stop requests, test pokes) goes
 *    through wake(), an eventfd the loop always watches.
 *  - Writes NEVER block and never drop frames silently: queueLine
 *    appends to the out buffer, flushOut sends what the socket
 *    accepts, and a peer that stops reading past kMaxBufferBytes is
 *    cut (the router cannot let one wedged client pin row memory
 *    forever — the same policy SO_SNDTIMEO implements for the
 *    blocking server, expressed in buffer space instead of time).
 *  - Reads are incremental: readReady() pulls what the socket has
 *    and extractLine() hands back complete NDJSON lines, enforcing
 *    the same 8 MiB line cap as serve::LineReader.
 */

#ifndef TW_SERVE_POLLER_HH
#define TW_SERVE_POLLER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tw
{
namespace serve
{

/** Make @p fd nonblocking (O_NONBLOCK); false on fcntl failure. */
bool setNonBlocking(int fd);

/**
 * Nonblocking connection state: one fd plus buffered input (line
 * extraction) and buffered output (flush on writability). Used for
 * both router client connections and router->worker links.
 */
struct Conn
{
    /** Hard cap on EITHER buffer: a peer that neither reads its
     *  output nor frames its input is cut. Large enough for any
     *  experiment's full row stream to sit briefly queued. */
    static constexpr std::size_t kMaxBufferBytes = 256u << 20;

    /** Longest accepted input line (mirrors LineReader). */
    static constexpr std::size_t kMaxLineBytes = 8u << 20;

    int fd = -1;
    bool wantWrite = false; //!< EPOLLOUT currently needed
    bool armed = false;     //!< EPOLLOUT currently registered
    bool dead = false;      //!< peer gone or protocol violation

    std::string in;
    std::size_t inPos = 0;
    std::string out;
    std::size_t outPos = 0;

    /** Queue one already-'\n'-terminated (or not — '\n' is added)
     *  frame; marks dead on buffer overflow. Does NOT write to the
     *  socket — call flushOut (or let the loop do it on EPOLLOUT). */
    void queueLine(const std::string &line);

    /** Queue a raw pre-framed byte run (batch of lines). */
    void queueBytes(const char *data, std::size_t len);

    /**
     * Write as much buffered output as the socket accepts right
     * now. Returns false (and sets dead) on a hard error; updates
     * wantWrite to whether output remains. Each call makes at most
     * a handful of send() syscalls regardless of how many frames
     * were queued — this is the row-batching edge.
     */
    bool flushOut();

    /**
     * Pull whatever the socket has into the input buffer.
     * Returns false when the peer closed or errored (sets dead).
     * EAGAIN is a clean true.
     */
    bool readReady();

    /** Extract the next complete line (without '\n') from the
     *  input buffer; false when none is buffered. Sets dead when
     *  an unterminated line exceeds kMaxLineBytes. */
    bool extractLine(std::string &line);

    std::size_t pendingOut() const { return out.size() - outPos; }

    /** Close the fd (idempotent). */
    void closeFd();
};

/**
 * Thin epoll wrapper. Register fds with an opaque tag; wait()
 * returns (tag, events) pairs. A built-in eventfd lets other
 * threads wake a blocked wait().
 */
class Poller
{
  public:
    struct Event
    {
        void *tag = nullptr;
        bool readable = false;
        bool writable = false;
        bool hangup = false;
    };

    Poller();
    ~Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    bool valid() const { return epfd_ >= 0; }

    /** Watch @p fd. @p tag comes back in Event; @p want_write adds
     *  EPOLLOUT. False on epoll_ctl failure. */
    bool add(int fd, void *tag, bool want_write = false);
    bool mod(int fd, void *tag, bool want_write);
    void del(int fd);

    /**
     * Block up to @p timeout_ms (-1 = forever) and fill @p events.
     * The wake() eventfd is serviced internally (drained, never
     * surfaced). Returns false on a hard epoll error.
     */
    bool wait(int timeout_ms, std::vector<Event> &events);

    /** Wake a blocked wait() from any thread (async-signal-ish
     *  safe: one write on an eventfd). */
    void wake();

  private:
    int epfd_ = -1;
    int wakeFd_ = -1;
};

} // namespace serve
} // namespace tw

#endif // TW_SERVE_POLLER_HH
