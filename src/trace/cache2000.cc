#include "trace/cache2000.hh"

#include "base/bitops.hh"
#include "base/logging.hh"
#include "mem/set_sample.hh"

namespace tw
{

Cache2000::Cache2000(const Cache2000Config &config)
    : cfg_(config), cache_(config.cache)
{
    TW_ASSERT(cfg_.cache.indexing == Indexing::Virtual,
              "trace-driven simulation works on virtual address "
              "traces; physical indexing would need per-run page "
              "mappings the trace does not carry");
    lineShift_ = floorLog2(cfg_.cache.lineBytes);
    allSampled_ = cfg_.sampleNum == cfg_.sampleDenom;
    if (!allSampled_) {
        sampledSets_ = chooseSampledSets(cfg_.cache.numSets(),
                                         cfg_.sampleNum,
                                         cfg_.sampleDenom,
                                         cfg_.sampleSeed);
    }
}

bool
Cache2000::setSampled(std::uint64_t set_index) const
{
    return allSampled_ || sampledSets_[set_index];
}

Cycles
Cache2000::processAddr(Addr va, TaskId tid)
{
    ++stats_.refs;

    LineRef ref;
    ref.vaLine = va >> lineShift_;
    ref.paLine = ref.vaLine; // virtual trace: no physical mapping
    ref.tid = tid;

    // Same line and task as the previous cache access: nothing has
    // touched cache_ since, so the line is resident and holds the
    // newest stamp of all. The access is a guaranteed hit, and
    // skipping its LRU stamp bump keeps every stamp in the same
    // order, so no later victim changes under any policy.
    if (ref.vaLine == lastLine_ && tid == lastTid_ && haveLast_) {
        ++stats_.hits;
        stats_.cycles += cfg_.hitCycles;
        return cfg_.hitCycles;
    }

    if (!allSampled_ && !sampledSets_[cache_.setIndexOf(ref)]) {
        // Software filtering: unlike Tapeworm, the simulator still
        // has to look at the address to reject it.
        ++stats_.filtered;
        stats_.cycles += cfg_.filterCycles;
        return cfg_.filterCycles;
    }

    AccessResult res = cache_.access(ref);
    lastLine_ = ref.vaLine;
    lastTid_ = tid;
    haveLast_ = true;
    Cycles cost = cfg_.hitCycles;
    if (res.hit) {
        ++stats_.hits;
    } else {
        ++stats_.misses;
        cost += cfg_.missExtraCycles;
    }
    stats_.cycles += cost;
    return cost;
}

void
Cache2000::put(const TraceRecord &rec)
{
    processAddr(rec.va, rec.tid);
}

void
Cache2000::run(TraceReader &reader)
{
    TraceRecord rec;
    while (reader.next(rec))
        processAddr(rec.va, rec.tid);
}

double
Cache2000::estimatedMisses() const
{
    return static_cast<double>(stats_.misses)
           / cfg_.sampledFraction();
}

} // namespace tw
