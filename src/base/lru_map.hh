/**
 * @file
 * An intrusively-ordered LRU map: hash lookup plus a recency list,
 * evicting least-recently-used entries beyond a capacity.
 *
 * Two long-lived caches share this: the Runner's baseline memo
 * (which previously grew without bound — fatal for a resident
 * daemon) and the experiment service's result cache. Not internally
 * synchronized: both users wrap it in their own lock, because the
 * useful atomic units (find-then-insert, lookup-with-stats) span
 * multiple calls anyway.
 */

#ifndef TW_BASE_LRU_MAP_HH
#define TW_BASE_LRU_MAP_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace tw
{

template <typename K, typename V, typename Hash = std::hash<K>>
class LruMap
{
  public:
    /** Hold at most @p capacity entries (at least 1). */
    explicit LruMap(std::size_t capacity)
        : capacity_(capacity ? capacity : 1)
    {
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return index_.size(); }
    std::uint64_t evictions() const { return evictions_; }

    /**
     * Shrink or grow the capacity; shrinking evicts LRU entries
     * immediately.
     */
    void
    setCapacity(std::size_t capacity)
    {
        capacity_ = capacity ? capacity : 1;
        while (index_.size() > capacity_)
            evictOne();
    }

    /** Lookup; touches the entry (most recent). Null when absent. */
    V *
    find(const K &key)
    {
        auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->second;
    }

    /** Lookup without touching recency (diagnostics). */
    const V *
    peek(const K &key) const
    {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &it->second->second;
    }

    /**
     * Insert or overwrite; the entry becomes most recent. Evicts
     * the LRU entry when a fresh insert exceeds the capacity.
     */
    V &
    insert(const K &key, V value)
    {
        auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->second = std::move(value);
            order_.splice(order_.begin(), order_, it->second);
            return it->second->second;
        }
        order_.emplace_front(key, std::move(value));
        index_.emplace(key, order_.begin());
        if (index_.size() > capacity_)
            evictOne();
        return order_.front().second;
    }

    /** Remove one entry; false when absent. */
    bool
    erase(const K &key)
    {
        auto it = index_.find(key);
        if (it == index_.end())
            return false;
        order_.erase(it->second);
        index_.erase(it);
        return true;
    }

    void
    clear()
    {
        order_.clear();
        index_.clear();
    }

  private:
    void
    evictOne()
    {
        index_.erase(order_.back().first);
        order_.pop_back();
        ++evictions_;
    }

    std::size_t capacity_;
    std::list<std::pair<K, V>> order_; //!< front = most recent
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator,
                       Hash>
        index_;
    std::uint64_t evictions_ = 0;
};

} // namespace tw

#endif // TW_BASE_LRU_MAP_HH
