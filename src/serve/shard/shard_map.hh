/**
 * @file
 * ShardMap — the consistent-hash ring that turns a spec fingerprint
 * into a shard owner.
 *
 * The canonical-spec fingerprint (harness/specio: FNV-1a over the
 * exact cache-key bytes) is already the perfect distribution key:
 * two requests collide on a fingerprint iff they would hit the same
 * ResultCache entry, so routing by fingerprint gives every shard
 * EXCLUSIVE ownership of its cache slice — a resubmitted sweep lands
 * on the shards that already hold its rows, with no cross-shard
 * invalidation protocol at all.
 *
 * Classic Karger ring with virtual nodes: each member is hashed at
 * kVnodes points onto a 64-bit circle; a key is owned by the first
 * point clockwise from it. Properties the tests pin down:
 *
 *  - balance: with enough vnodes, keys spread near-uniformly over
 *    members (chi-square-ish bound across 2..16 shards);
 *  - minimal remap: adding/removing one of N members moves only the
 *    keys that member's arcs cover, ~1/N of the space (< 2/N
 *    asserted), never a global reshuffle — a worker joining or
 *    draining invalidates almost none of the pool's cache locality;
 *  - determinism: ownership is a pure function of the member-name
 *    SET (insertion order irrelevant) and the key, identical across
 *    processes and hosts (no pointers, no RNG, no std::hash) — the
 *    router and `twctl shard-owner` agree byte-for-byte.
 *
 * The ring is tiny (members x vnodes points) and rebuilt from
 * scratch on membership change; routing is a binary search. Not
 * thread-safe — the router's poller thread owns it.
 */

#ifndef TW_SERVE_SHARD_SHARD_MAP_HH
#define TW_SERVE_SHARD_SHARD_MAP_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tw
{
namespace serve
{

class ShardMap
{
  public:
    /** Virtual nodes per member. 64 keeps the ring under a few KB
     *  at pool sizes we care about while holding per-member load
     *  within ~±15% of fair share (the balance test's bound). */
    static constexpr unsigned kDefaultVnodes = 64;

    explicit ShardMap(unsigned vnodes = kDefaultVnodes)
        : vnodes_(vnodes ? vnodes : 1)
    {
    }

    ShardMap(const std::vector<std::string> &members,
             unsigned vnodes = kDefaultVnodes);

    /** Add @p member (idempotent). Rebuilds the ring. */
    void add(const std::string &member);

    /** Remove @p member (idempotent). Rebuilds the ring. */
    void remove(const std::string &member);

    bool contains(const std::string &member) const;
    std::size_t size() const { return members_.size(); }
    bool empty() const { return members_.empty(); }

    /** Sorted member names (the canonical set). */
    const std::vector<std::string> &members() const
    {
        return members_;
    }

    /**
     * The member owning @p key (a specFingerprint). Empty string
     * when the ring is empty — the router treats that as total
     * outage, not a crash.
     */
    const std::string &owner(std::uint64_t key) const;

    /** Index of owner(key) in members(); npos-like size() when
     *  empty. */
    std::size_t ownerIndex(std::uint64_t key) const;

    /** The ring position hash of member @p m's vnode @p v —
     *  exposed for tests that reason about arc placement. */
    static std::uint64_t pointHash(const std::string &m, unsigned v);

  private:
    void rebuild();

    struct Point
    {
        std::uint64_t hash;
        std::uint32_t member; //!< index into members_

        bool operator<(const Point &o) const
        {
            // Tie-break on member index so two members hashing a
            // vnode to the same point (vanishingly rare but
            // possible) still order deterministically.
            return hash != o.hash ? hash < o.hash
                                  : member < o.member;
        }
    };

    unsigned vnodes_;
    std::vector<std::string> members_; //!< sorted, unique
    std::vector<Point> ring_;          //!< sorted by hash
};

/**
 * One pool member's address: a unix socket path (any string with a
 * '/') or IPv4 "host:port" with a port in 1..65535. The address
 * string itself is the ring member name, so router and
 * `twctl shard-owner --pool` agree on ownership.
 */
struct ShardAddress
{
    std::string name;
    std::string host; //!< empty for a unix socket
    int port = 0;     //!< 0 for a unix socket

    bool isUnix() const { return port == 0; }
};

/** Parse one member address; false + @p err if it is malformed. */
bool parseShardAddress(const std::string &addr, ShardAddress &out,
                       std::string &err);

/** Parse a comma-separated member list ("A,B,..."): every member
 *  must parse, so an empty one (a doubled or trailing comma) is an
 *  error too. False + @p err otherwise. */
bool parseShardList(const std::string &list,
                    std::vector<ShardAddress> &out, std::string &err);

} // namespace serve
} // namespace tw

#endif // TW_SERVE_SHARD_SHARD_MAP_HH
