#include "core/tapeworm.hh"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "base/bitops.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "mem/set_sample.hh"
#include "obs/metrics.hh"

namespace tw
{

Tapeworm::Tapeworm(PhysMem &phys, const TapewormConfig &config)
    : phys_(phys), cfg_(config), cache_(config.cache)
{
    cfg_.cache.validate();
    TW_ASSERT(cfg_.cache.lineBytes >= phys.granuleBytes(),
              "line size %u below the host trap granule %u — the "
              "DECstation's ECC refill unit limits simulated lines "
              "to multiples of 4 words (Section 4.4)",
              cfg_.cache.lineBytes, phys.granuleBytes());
    TW_ASSERT(cfg_.cache.lineBytes <= kHostPageBytes,
              "cache mode needs line <= page; use TapewormTlb for "
              "page-granularity simulation");
    TW_ASSERT(cfg_.sampleNum >= 1 && cfg_.sampleNum <= cfg_.sampleDenom,
              "bad sampling fraction %u/%u", cfg_.sampleNum,
              cfg_.sampleDenom);

    lineShift_ = floorLog2(cfg_.cache.lineBytes);
    linesPerPage_ = kHostPageBytes >> lineShift_;
    granulesPerLine_ = cfg_.cache.lineBytes / phys.granuleBytes();
    missCost_ = cfg_.cost.missCycles(cfg_.cache.assoc,
                                     granulesPerLine_);
    backend_ = makeCostBackend(cfg_.costBackend, cfg_.cost);

    allSampled_ = cfg_.sampleNum == cfg_.sampleDenom;
    if (!allSampled_) {
        // A different sampleSeed yields a different sample — new
        // samples cost Tapeworm nothing but a new trap pattern.
        if (cfg_.sampleMode == SampleMode::ConstantBits) {
            TW_ASSERT(cfg_.sampleNum == 1,
                      "constant-bits sampling takes 1/denom");
            sampledSets_ = chooseConstantBitSets(
                cfg_.cache.numSets(), cfg_.sampleDenom,
                static_cast<unsigned>(cfg_.sampleSeed));
        } else {
            sampledSets_ = chooseSampledSets(cfg_.cache.numSets(),
                                             cfg_.sampleNum,
                                             cfg_.sampleDenom,
                                             cfg_.sampleSeed);
        }
    }
}

Tapeworm::~Tapeworm()
{
    static obs::Counter fetch =
        obs::registry().counter("engine.traps.delivered.fetch");
    static obs::Counter load =
        obs::registry().counter("engine.traps.delivered.load");
    static obs::Counter store =
        obs::registry().counter("engine.traps.delivered.store");
    static obs::Counter set = obs::registry().counter("engine.traps.set");
    static obs::Counter cleared =
        obs::registry().counter("engine.traps.cleared");
    fetch.add(stats_.missesByKind[static_cast<unsigned>(
        AccessKind::Fetch)]);
    load.add(
        stats_.missesByKind[static_cast<unsigned>(AccessKind::Load)]);
    store.add(
        stats_.missesByKind[static_cast<unsigned>(AccessKind::Store)]);
    set.add(stats_.trapsSet);
    cleared.add(stats_.trapsCleared);
}

bool
Tapeworm::setSampled(std::uint64_t set_index) const
{
    return allSampled_ || sampledSets_[set_index];
}

LineRef
Tapeworm::lineRefFor(const PageReg &reg, Pfn pfn,
                     unsigned line_in_page) const
{
    LineRef ref;
    ref.vaLine = reg.vpn * linesPerPage_ + line_in_page;
    ref.paLine = static_cast<Addr>(pfn) * linesPerPage_ + line_in_page;
    ref.tid = reg.tid;
    return ref;
}

void
Tapeworm::armPage(const PageReg &reg, Pfn pfn)
{
    // tw_register_page(): set traps on every line of the page that
    // maps to a sampled set. Non-sample lines never trap and are
    // filtered from the simulation by the hardware at zero cost.
    // trapsSet counts lines that actually transition to trapped, so
    // a re-arm (the onDmaInvalidate path) of a line that was already
    // trapped — i.e. already non-resident — adds nothing.
    Addr page_pa = static_cast<Addr>(pfn) * kHostPageBytes;
    for (unsigned l = 0; l < linesPerPage_; ++l) {
        LineRef ref = lineRefFor(reg, pfn, l);
        if (!setSampled(cache_.setIndexOf(ref)))
            continue;
        Addr line_pa = page_pa + (static_cast<Addr>(l) << lineShift_);
        if (!phys_.anyTrapped(line_pa, cfg_.cache.lineBytes))
            ++stats_.trapsSet;
        phys_.setTrap(line_pa, cfg_.cache.lineBytes);
    }
}

void
Tapeworm::onPageMapped(const Task &task, Vpn vpn, Pfn pfn, bool shared)
{
    ++stats_.pagesRegistered;
    auto it = pages_.find(pfn);
    if (it != pages_.end()) {
        TW_ASSERT(shared, "frame %d already registered but VM says "
                          "unshared", pfn);
        // Additional mapping of a registered frame: bump the
        // reference count, set no new traps (Section 3.2).
        ++it->second.refs;
        ++stats_.sharedRegistrations;
        return;
    }
    TW_ASSERT(!shared, "VM says shared but frame %d unknown", pfn);
    PageReg reg;
    reg.refs = 1;
    reg.vpn = vpn;
    reg.tid = task.tid;
    armPage(reg, pfn);
    pages_.emplace(pfn, reg);
}

void
Tapeworm::onPageRemoved(const Task &task, Vpn vpn, Pfn pfn,
                        bool last_mapping)
{
    (void)task;
    (void)vpn;
    ++stats_.pagesRemoved;
    auto it = pages_.find(pfn);
    TW_ASSERT(it != pages_.end(), "removing unregistered frame %d",
              pfn);
    TW_ASSERT(it->second.refs > 0, "page refcount underflow");
    --it->second.refs;
    TW_ASSERT((it->second.refs == 0) == last_mapping,
              "refcount disagrees with VM on frame %d", pfn);
    if (it->second.refs > 0)
        return;

    // Last mapping gone: flush the page from the simulated cache
    // and clear all its traps — tw_remove_page() mimics what the VM
    // does to the host's real cache. trapsCleared counts per line
    // (the unit armPage and handleMiss count in), so only lines that
    // actually held a trap contribute.
    cache_.flushPhysPage(static_cast<Addr>(pfn), kHostPageBytes);
    Addr page_pa = static_cast<Addr>(pfn) * kHostPageBytes;
    for (unsigned l = 0; l < linesPerPage_; ++l) {
        if (phys_.anyTrapped(page_pa + (static_cast<Addr>(l) << lineShift_),
                             cfg_.cache.lineBytes))
            ++stats_.trapsCleared;
    }
    phys_.clearTrap(page_pa, kHostPageBytes);
    pages_.erase(it);
}

void
Tapeworm::onDmaInvalidate(Pfn pfn)
{
    auto it = pages_.find(pfn);
    if (it == pages_.end())
        return; // not a simulated page; nothing in our cache
    // The DMA write invalidated the frame's lines in the real
    // cache; mirror that in the simulated cache and re-arm traps so
    // the next reference to any line of the page misses again.
    stats_.dmaFlushedLines +=
        cache_.flushPhysPage(static_cast<Addr>(pfn), kHostPageBytes);
    armPage(it->second, pfn);
}

bool
Tapeworm::consumes(AccessKind kind) const
{
    switch (cfg_.kind) {
      case SimCacheKind::Instruction:
        return kind == AccessKind::Fetch;
      case SimCacheKind::Data:
        return kind != AccessKind::Fetch;
      case SimCacheKind::Unified:
        return true;
    }
    return false;
}

void
Tapeworm::handleMiss(const Task &task, Addr va, Addr pa,
                     AccessKind kind)
{
    ++stats_.misses[static_cast<unsigned>(task.component)];
    ++stats_.missesByKind[static_cast<unsigned>(kind)];

    Addr line_pa = alignDown(pa, cfg_.cache.lineBytes);
    phys_.clearTrap(line_pa, cfg_.cache.lineBytes);
    ++stats_.trapsCleared;

    LineRef ref;
    ref.vaLine = va >> lineShift_;
    ref.paLine = pa >> lineShift_;
    ref.tid = task.tid;
    auto displaced = cache_.insert(ref, kind == AccessKind::Store);
    if (!displaced)
        return;

    // tw_set_trap() on the displaced entry — but only while its
    // page is still registered (it may have been removed while the
    // line sat in the cache... it cannot: removal flushes. Still,
    // guard against foreign lines).
    Addr dpa = displaced->paLine << lineShift_;
    Pfn dpfn = static_cast<Pfn>(dpa / kHostPageBytes);
    if (pages_.count(dpfn)) {
        phys_.setTrap(dpa, cfg_.cache.lineBytes);
        ++stats_.trapsSet;
    }
}

Cycles
Tapeworm::onRef(const Task &task, Addr va, Addr pa, bool intr_masked,
                AccessKind kind)
{
    // The hit path: one hardware trap-bit test. No software runs.
    if (!phys_.isTrapped(pa)) [[likely]]
        return 0;

    if (kind == AccessKind::Store
        && cfg_.hostWrite == HostWritePolicy::NoAllocateOnWrite) {
        // The store rewrites the granule's ECC check bits without a
        // refill: the trap evaporates and no kernel trap is ever
        // raised. This is the DECstation behaviour that hindered
        // data-cache simulation (Section 4.4). Coverage of this
        // granule is silently lost until the page is re-armed.
        phys_.clearTrap(alignDown(pa, phys_.granuleBytes()),
                        phys_.granuleBytes());
        ++stats_.silentTrapClears;
        return 0;
    }
    if (!consumes(kind))
        return 0;

    if (intr_masked) {
        ++stats_.maskedTrapRefs;
        if (!cfg_.compensateMasked) {
            // The ECC interrupt cannot be delivered; the miss is
            // lost (Section 4.2, "Sources of Measurement Bias").
            ++stats_.lostMaskedMisses;
            return 0;
        }
    }
    handleMiss(task, va, pa, kind);
    if (!cfg_.chargeCost)
        return 0;
    MissEvent ev;
    ev.kind = MissKind::Fill;
    ev.pa = alignDown(pa, cfg_.cache.lineBytes);
    ev.isWrite = kind == AccessKind::Store;
    ev.assoc = cfg_.cache.assoc;
    ev.granulesPerLine = granulesPerLine_;
    ev.lineBytes = cfg_.cache.lineBytes;
    ev.now = clock_ ? *clock_ : 0;
    return backend_->missCycles(ev);
}

double
Tapeworm::estimatedTotalMisses() const
{
    return static_cast<double>(stats_.totalMisses())
           / cfg_.sampledFraction();
}

double
Tapeworm::estimatedMisses(Component c) const
{
    return static_cast<double>(
               stats_.misses[static_cast<unsigned>(c)])
           / cfg_.sampledFraction();
}

bool
Tapeworm::checkInvariants() const
{
    std::unordered_set<Addr> resident_lines;
    for (const auto &info : cache_.validLines())
        resident_lines.insert(info.paLine);

    for (const auto &[pfn, reg] : pages_) {
        Addr page_pa = static_cast<Addr>(pfn) * kHostPageBytes;
        for (unsigned l = 0; l < linesPerPage_; ++l) {
            Addr line_pa = page_pa + (static_cast<Addr>(l) << lineShift_);
            bool trapped = phys_.anyTrapped(line_pa,
                                            cfg_.cache.lineBytes);
            LineRef ref = lineRefFor(reg, pfn, l);
            if (!setSampled(cache_.setIndexOf(ref))) {
                if (trapped)
                    return false; // non-sample lines never trap
                continue;
            }
            // Resident iff some cached line holds this physical
            // line (any tag/task — shared pages may be cached under
            // another mapping's tag).
            bool resident = resident_lines.count(ref.paLine) > 0;
            if (trapped && resident)
                return false; // a resident line must never trap
            if (!trapped && !resident) {
                // Permissible only where stores silently cleared
                // traps (no-allocate-on-write coverage loss).
                if (cfg_.hostWrite == HostWritePolicy::AllocateOnWrite)
                    return false;
            }
        }
    }
    return true;
}

} // namespace tw
