#include "mem/cache.hh"

#include <algorithm>

#include "base/arena.hh"
#include "base/bitops.hh"
#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace tw
{

void
CacheConfig::validate() const
{
    if (!isPowerOf2(sizeBytes) || !isPowerOf2(lineBytes))
        fatal("cache '%s': size (%llu) and line (%u) must be powers of 2",
              name.c_str(), static_cast<unsigned long long>(sizeBytes),
              lineBytes);
    if (lineBytes > sizeBytes)
        fatal("cache '%s': line larger than cache", name.c_str());
    if (assoc == 0 || numLines() % assoc != 0)
        fatal("cache '%s': associativity %u does not divide %llu lines",
              name.c_str(), assoc,
              static_cast<unsigned long long>(numLines()));
    if (!isPowerOf2(numSets()))
        fatal("cache '%s': set count must be a power of 2",
              name.c_str());
}

CacheConfig
CacheConfig::icache(std::uint64_t size_bytes, std::uint32_t line_bytes,
                    std::uint32_t assoc, Indexing idx)
{
    CacheConfig c;
    c.name = "icache";
    c.sizeBytes = size_bytes;
    c.lineBytes = line_bytes;
    c.assoc = assoc;
    c.indexing = idx;
    c.tagIncludesTask = (idx == Indexing::Virtual);
    c.policy = assoc > 1 ? ReplPolicy::FIFO : ReplPolicy::LRU;
    c.validate();
    return c;
}

CacheConfig
CacheConfig::tlb(std::uint32_t entries, std::uint32_t assoc,
                 std::uint32_t page_bytes)
{
    // Guard before the assoc fallback below: entries == 0 would make
    // the fully-associative default 0 ways and validate() would only
    // report a confusing geometry error.
    if (entries == 0)
        fatal("tlb: entry count must be at least 1");
    CacheConfig c;
    c.name = "tlb";
    c.sizeBytes = static_cast<std::uint64_t>(entries) * page_bytes;
    c.lineBytes = page_bytes;
    c.assoc = assoc == 0 ? entries : assoc;
    c.indexing = Indexing::Virtual;
    c.tagIncludesTask = true;
    c.policy = ReplPolicy::FIFO;
    c.validate();
    return c;
}

Cache::Cache(const CacheConfig &config)
    : cfg_(config), lines_(arenaResource()), setOcc_(arenaResource()),
      rng_(config.seed)
{
    cfg_.validate();
    lineShift_ = floorLog2(cfg_.lineBytes);
    setMask_ = cfg_.numSets() - 1;
    tidMask_ = cfg_.indexing == Indexing::Virtual && cfg_.tagIncludesTask
                   ? ~std::uint32_t{0}
                   : std::uint32_t{0};
    lines_.resize(cfg_.numLines());
    setOcc_.assign(cfg_.numSets(), 0);
}

std::uint64_t
Cache::setIndexOf(const LineRef &ref) const
{
    Addr line = cfg_.indexing == Indexing::Virtual ? ref.vaLine
                                                   : ref.paLine;
    return line & setMask_;
}

Addr
Cache::tagLineOf(const LineRef &ref) const
{
    return cfg_.indexing == Indexing::Virtual ? ref.vaLine : ref.paLine;
}

Cache::Line *
Cache::setBase(std::uint64_t set_index)
{
    return lines_.data() + set_index * cfg_.assoc;
}

const Cache::Line *
Cache::setBase(std::uint64_t set_index) const
{
    return lines_.data() + set_index * cfg_.assoc;
}

unsigned
Cache::victimWay(std::uint64_t set_index)
{
    const Line *set = setBase(set_index);
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!set[w].valid)
            return w;
    }
    switch (cfg_.policy) {
      case ReplPolicy::Random:
        return static_cast<unsigned>(rng_.below(cfg_.assoc));
      case ReplPolicy::LRU:
      case ReplPolicy::FIFO: {
        // For LRU the stamp is refreshed on hits; for FIFO it is the
        // insertion time. Either way the victim is the oldest stamp.
        unsigned victim = 0;
        for (unsigned w = 1; w < cfg_.assoc; ++w) {
            if (set[w].stamp < set[victim].stamp)
                victim = w;
        }
        return victim;
      }
    }
    return 0;
}

AccessResult
Cache::access(const LineRef &ref, bool is_store)
{
    std::uint64_t set_index = setIndexOf(ref);
    Addr tag = tagLineOf(ref);
    Line *set = setBase(set_index);

    // tidMask_ folds the tag-includes-task configuration test into a
    // branch-free compare (mask is 0 when tids are irrelevant).
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Line &line = set[w];
        if (line.valid && line.tagLine == tag
            && (static_cast<std::uint32_t>(line.tid ^ ref.tid)
                & tidMask_) == 0) {
            if (cfg_.policy == ReplPolicy::LRU)
                line.stamp = ++stampCounter_;
            line.dirty |= is_store;
            return AccessResult{true, std::nullopt};
        }
    }

    AccessResult res;
    res.hit = false;
    unsigned w = victimWay(set_index);
    Line &line = set[w];
    if (line.valid) {
        res.displaced = LineInfo{line.tagLine, line.paLine, line.tid,
                                 line.dirty};
        if (line.dirty)
            ++writebacks_;
    } else {
        ++setOcc_[set_index];
    }
    line.valid = true;
    line.dirty = is_store;
    line.tagLine = tag;
    line.paLine = ref.paLine;
    line.tid = ref.tid;
    line.stamp = ++stampCounter_;
    return res;
}

std::optional<LineInfo>
Cache::insert(const LineRef &ref, bool is_store)
{
    std::uint64_t set_index = setIndexOf(ref);
    unsigned w = victimWay(set_index);
    Line &line = setBase(set_index)[w];
    std::optional<LineInfo> displaced;
    if (line.valid) {
        displaced = LineInfo{line.tagLine, line.paLine, line.tid,
                             line.dirty};
        if (line.dirty)
            ++writebacks_;
    } else {
        ++setOcc_[set_index];
    }
    line.valid = true;
    line.dirty = is_store;
    line.tagLine = tagLineOf(ref);
    line.paLine = ref.paLine;
    line.tid = ref.tid;
    line.stamp = ++stampCounter_;
    return displaced;
}

bool
Cache::contains(const LineRef &ref) const
{
    std::uint64_t set_index = setIndexOf(ref);
    Addr tag = tagLineOf(ref);
    const Line *set = setBase(set_index);
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        const Line &line = set[w];
        if (line.valid && line.tagLine == tag
            && (static_cast<std::uint32_t>(line.tid ^ ref.tid)
                & tidMask_) == 0) {
            return true;
        }
    }
    return false;
}

void
Cache::invalidate(Line &line, std::uint64_t set_index)
{
    line.valid = false;
    --setOcc_[set_index];
}

template <typename Pred>
unsigned
Cache::flushSetRange(std::uint64_t first_set, std::uint64_t span,
                     Pred &&pred)
{
    unsigned flushed = 0;
    for (std::uint64_t s = first_set; s < first_set + span; ++s) {
        if (setOcc_[s] == 0)
            continue;
        Line *set = setBase(s);
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            if (set[w].valid && pred(set[w])) {
                invalidate(set[w], s);
                ++flushed;
            }
        }
    }
    return flushed;
}

template <typename Pred>
unsigned
Cache::flushWhere(Pred &&pred)
{
    return flushSetRange(0, cfg_.numSets(), std::forward<Pred>(pred));
}

Cache::~Cache()
{
    static obs::Counter fast =
        obs::registry().counter("engine.flush.ranged");
    static obs::Counter slow =
        obs::registry().counter("engine.flush.scan");
    fast.add(flushFast_);
    slow.add(flushSlow_);
}

unsigned
Cache::flushPhysPage(Addr pfn, std::uint32_t page_bytes)
{
    obs::ScopedSpan flushSpan("flush", "mem");
    Addr lines_per_page = page_bytes >> lineShift_;
    if (lines_per_page == 0)
        return 0;
    Addr first_line = pfn * lines_per_page;
    Addr last_line = first_line + lines_per_page;
    auto in_page = [=](const Line &l) {
        return l.paLine >= first_line && l.paLine < last_line;
    };
    if (cfg_.indexing == Indexing::Physical) {
        // Physically indexed: set = paLine & setMask_. first_line is
        // page-aligned (a multiple of the power-of-two line count),
        // so the page's lines occupy one aligned contiguous set
        // range — the whole cache when a page spans more sets than
        // exist. No wrap is possible.
        std::uint64_t span =
            std::min<std::uint64_t>(lines_per_page, cfg_.numSets());
        ++flushFast_;
        return flushSetRange(first_line & setMask_, span, in_page);
    }
    // Virtually indexed: the page's contents may sit in any set
    // (placement depends on the mapping), so scan everything but
    // skip empty sets.
    ++flushSlow_;
    return flushWhere(in_page);
}

unsigned
Cache::flushPhysLine(Addr pa_line)
{
    auto match = [=](const Line &l) { return l.paLine == pa_line; };
    if (cfg_.indexing == Indexing::Physical) {
        ++flushFast_;
        return flushSetRange(pa_line & setMask_, 1, match);
    }
    ++flushSlow_;
    return flushWhere(match);
}

unsigned
Cache::flushVirtPage(TaskId tid, Addr vpn, std::uint32_t page_bytes)
{
    obs::ScopedSpan flushSpan("flush", "mem");
    TW_ASSERT(cfg_.indexing == Indexing::Virtual,
              "virtual flush on a physically-indexed cache");
    ++flushFast_;
    Addr lines_per_page = page_bytes >> lineShift_;
    if (lines_per_page == 0)
        return 0;
    Addr first_line = vpn * lines_per_page;
    Addr last_line = first_line + lines_per_page;
    // Virtual index + virtual tag: same aligned contiguous set range
    // argument as the physical case above.
    std::uint64_t span =
        std::min<std::uint64_t>(lines_per_page, cfg_.numSets());
    return flushSetRange(first_line & setMask_, span,
                         [=](const Line &l) {
                             return l.tid == tid
                                    && l.tagLine >= first_line
                                    && l.tagLine < last_line;
                         });
}

void
Cache::flushAll()
{
    for (auto &line : lines_)
        line.valid = false;
    std::fill(setOcc_.begin(), setOcc_.end(), 0);
}

std::uint64_t
Cache::validCount() const
{
    std::uint64_t n = 0;
    for (auto occ : setOcc_)
        n += occ;
    return n;
}

std::vector<LineInfo>
Cache::validLines() const
{
    std::vector<LineInfo> out;
    for (const auto &line : lines_) {
        if (line.valid)
            out.push_back(LineInfo{line.tagLine, line.paLine, line.tid});
    }
    return out;
}

} // namespace tw
