#include "serve/shard/shard_map.hh"

#include <arpa/inet.h>

#include <algorithm>

#include "base/env.hh"
#include "harness/specio.hh"

namespace tw
{
namespace serve
{

namespace
{

/** splitmix64 finalizer: FNV's low bits avalanche poorly for short
 *  inputs like "name#7"; this spreads every input bit over the
 *  whole word so vnode points land uniformly on the circle. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // anonymous namespace

ShardMap::ShardMap(const std::vector<std::string> &members,
                   unsigned vnodes)
    : vnodes_(vnodes ? vnodes : 1)
{
    members_ = members;
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()),
                   members_.end());
    rebuild();
}

std::uint64_t
ShardMap::pointHash(const std::string &m, unsigned v)
{
    std::string tagged = m;
    tagged.push_back('#');
    tagged += std::to_string(v);
    return mix(fnv1a64(tagged));
}

void
ShardMap::add(const std::string &member)
{
    auto it = std::lower_bound(members_.begin(), members_.end(),
                               member);
    if (it != members_.end() && *it == member)
        return;
    members_.insert(it, member);
    rebuild();
}

void
ShardMap::remove(const std::string &member)
{
    auto it = std::lower_bound(members_.begin(), members_.end(),
                               member);
    if (it == members_.end() || *it != member)
        return;
    members_.erase(it);
    rebuild();
}

bool
ShardMap::contains(const std::string &member) const
{
    return std::binary_search(members_.begin(), members_.end(),
                              member);
}

void
ShardMap::rebuild()
{
    ring_.clear();
    ring_.reserve(members_.size() * vnodes_);
    for (std::uint32_t m = 0;
         m < static_cast<std::uint32_t>(members_.size()); ++m)
        for (unsigned v = 0; v < vnodes_; ++v)
            ring_.push_back({pointHash(members_[m], v), m});
    std::sort(ring_.begin(), ring_.end());
}

std::size_t
ShardMap::ownerIndex(std::uint64_t key) const
{
    if (ring_.empty())
        return members_.size();
    // First point clockwise from the key; wrap to the ring start.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), key,
        [](const Point &p, std::uint64_t k) { return p.hash < k; });
    if (it == ring_.end())
        it = ring_.begin();
    return it->member;
}

const std::string &
ShardMap::owner(std::uint64_t key) const
{
    static const std::string empty;
    std::size_t idx = ownerIndex(key);
    return idx < members_.size() ? members_[idx] : empty;
}

bool
parseShardAddress(const std::string &addr, ShardAddress &out,
                  std::string &err)
{
    out = ShardAddress{addr, "", 0};
    if (addr.find('/') != std::string::npos)
        return true;
    std::size_t colon = addr.rfind(':');
    std::uint64_t port = 0;
    in_addr ip;
    if (colon == std::string::npos
        || !parseDecimal(addr.c_str() + colon + 1, 65535, port)
        || port == 0) {
        err = "shard '" + addr
              + "' is neither a socket path nor host:port with a port "
                "in 1..65535";
        return false;
    }
    out.host = addr.substr(0, colon);
    if (::inet_pton(AF_INET, out.host.c_str(), &ip) != 1) {
        err = "shard '" + addr + "': '" + out.host
              + "' is not an IPv4 address";
        return false;
    }
    out.port = static_cast<int>(port);
    return true;
}

bool
parseShardList(const std::string &list, std::vector<ShardAddress> &out,
               std::string &err)
{
    out.clear();
    for (std::size_t at = 0; at <= list.size();) {
        std::size_t comma = std::min(list.find(',', at), list.size());
        if (!parseShardAddress(list.substr(at, comma - at),
                               out.emplace_back(), err))
            return false;
        at = comma + 1;
    }
    return true;
}

} // namespace serve
} // namespace tw
