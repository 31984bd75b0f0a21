#include "serve/wire.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/logging.hh"
#include "obs/metrics.hh"

namespace tw
{
namespace serve
{

Json
reply(std::uint64_t id, const char *ev)
{
    Json j = Json::object();
    j.set("id", Json::number(id));
    j.set("ev", Json::str(ev));
    return j;
}

Json
errorReply(std::uint64_t id, const char *code, const std::string &msg)
{
    Json j = reply(id, "error");
    j.set("code", Json::str(code));
    j.set("msg", Json::str(msg));
    return j;
}

Json
metricsReply(std::uint64_t id, const Json &req)
{
    Json j = reply(id, "metrics");
    const Json *format = req.find("format");
    if (format && format->isString() && format->asString() == "prom")
        j.set("prom", Json::str(obs::registry().promText()));
    else
        j.set("metrics", obs::registry().snapshotJson());
    return j;
}

bool
sendAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    return sendAll(fd, framed.data(), framed.size());
}

bool
sendJsonLine(int fd, const Json &j)
{
    std::string line = j.dump();
    line += '\n';
    return sendAll(fd, line.data(), line.size());
}

void
LineReader::reset(int fd)
{
    fd_ = fd;
    buf_.clear();
    pos_ = 0;
}

LineReader::Status
LineReader::readLine(std::string &out)
{
    while (true) {
        std::size_t nl = buf_.find('\n', pos_);
        if (nl != std::string::npos) {
            out.assign(buf_, pos_, nl - pos_);
            pos_ = nl + 1;
            // Compact once the consumed prefix dominates.
            if (pos_ > 64 * 1024 && pos_ > buf_.size() / 2) {
                buf_.erase(0, pos_);
                pos_ = 0;
            }
            return Status::Line;
        }
        if (buf_.size() - pos_ > kMaxLineBytes)
            return Status::Error; // unframed flood; see kMaxLineBytes
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::Error;
        }
        if (n == 0)
            return pos_ == buf_.size() ? Status::Eof : Status::Error;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

namespace
{

bool
fillUnixAddr(const std::string &path, sockaddr_un &addr,
             std::string *err)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = csprintf("socket path too long (%zu >= %zu): %s",
                            path.size(), sizeof(addr.sun_path),
                            path.c_str());
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

void
setErr(std::string *err, const char *what)
{
    if (err)
        *err = csprintf("%s: %s", what, std::strerror(errno));
}

} // anonymous namespace

int
connectUnixSocket(const std::string &path, std::string *err)
{
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr, err))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, "socket");
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        setErr(err, "connect");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectTcpSocket(const std::string &host, int port, std::string *err)
{
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (err)
            *err = csprintf("bad IPv4 address '%s'", host.c_str());
        return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, "socket");
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        setErr(err, "connect");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenUnixSocket(const std::string &path, std::string *err)
{
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr, err))
        return -1;
    // A stale socket file from a dead daemon would make bind fail;
    // remove it. A LIVE daemon also loses its file this way — the
    // operator owns path uniqueness (DESIGN.md §9).
    ::unlink(path.c_str());
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, "socket");
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        setErr(err, "bind");
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        setErr(err, "listen");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenTcpSocket(const std::string &bind_addr, int port,
                std::string *err)
{
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr)
        != 1) {
        if (err)
            *err = csprintf("bad IPv4 address '%s'",
                            bind_addr.c_str());
        return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, "socket");
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        setErr(err, "bind");
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        setErr(err, "listen");
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace serve
} // namespace tw
