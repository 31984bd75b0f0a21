#include "os/system.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"
#include "base/simd.hh"
#include "obs/metrics.hh"
#include "workload/loop_nest.hh"

namespace tw
{

namespace
{

/** Tids of the fixed system tasks. */
constexpr TaskId kBsdTid = 1;
constexpr TaskId kXTid = 2;
constexpr TaskId kShellTid = 3;
constexpr TaskId kFirstUserTid = 4;

} // anonymous namespace

System::System(const SystemConfig &config, const WorkloadSpec &spec)
    : cfg_(config), spec_(spec), phys_(config.physMemBytes),
      vm_(phys_.numFrames(), config.allocPolicy,
          mixSeed(config.trialSeed, 0xa110c), config.reservedFrames),
      clock_(config.clockInterval,
             config.clockJitter
                 ? Rng(mixSeed(config.trialSeed, 0xc10c)).below(
                       config.clockInterval)
                 : 0)
{
    TW_ASSERT(!spec_.binaries.empty(), "workload has no binaries");
    // Escape hatch: TW_SLOW_PATH selects the legacy per-step
    // execution path (the equivalence suite and before/after
    // measurements run both paths from one binary).
    const char *slow = std::getenv("TW_SLOW_PATH");
    slowPath_ = slow != nullptr && *slow != '\0'
                && std::strcmp(slow, "0") != 0;
    boot();
}

void
System::setClient(SimClient *client)
{
    client_ = client;
    vm_.setClient(client);
    if (client)
        client->bindClock(&cycles_);
}

Task *
System::makeTask(const std::string &name, Component comp,
                 const StreamParams *params,
                 const StreamParams *data_params, std::uint64_t seed)
{
    std::unique_ptr<RefStream> stream;
    if (params)
        stream = std::make_unique<LoopNestStream>(*params);
    std::unique_ptr<RefStream> data;
    if (data_params && spec_.dataRefsPer1k > 0.0)
        data = std::make_unique<LoopNestStream>(*data_params);
    TaskId tid = static_cast<TaskId>(tasks_.size() == 0
                                         ? kKernelTid
                                         : tasks_.back()->tid + 1);
    tasks_.push_back(std::make_unique<Task>(
        tid, name, comp, std::move(stream), std::move(data), seed));
    return tasks_.back().get();
}

void
System::boot()
{
    dataPerMille_ = static_cast<Counter>(spec_.dataRefsPer1k);

    kernel_ = makeTask("kernel", Component::Kernel, &spec_.kernelText,
                       &spec_.kernelData,
                       mixSeed(spec_.kernelText.seed, 0x7a5c));
    kernel_->attr.simulate = cfg_.scope.kernel;
    kernel_->budget = ~static_cast<Counter>(0);

    bsd_ = makeTask("bsd-server", Component::Bsd, &spec_.bsdText,
                    &spec_.bsdData,
                    mixSeed(spec_.bsdText.seed, 0x7a5c));
    TW_ASSERT(bsd_->tid == kBsdTid, "tid layout drift");
    bsd_->attr.simulate = cfg_.scope.servers;
    bsd_->budget = ~static_cast<Counter>(0);

    x_ = makeTask("x-server", Component::X, &spec_.xText,
                  &spec_.xData, mixSeed(spec_.xText.seed, 0x7a5c));
    TW_ASSERT(x_->tid == kXTid, "tid layout drift");
    x_->attr.simulate = cfg_.scope.servers;
    x_->budget = ~static_cast<Counter>(0);

    // The shell: never simulated itself, but its inherit attribute
    // seeds the whole workload fork tree (Section 3.2's
    // (simulate=0, inherit=1) idiom).
    shell_ = makeTask("shell", Component::User, nullptr, nullptr,
                      0x5e11);
    TW_ASSERT(shell_->tid == kShellTid, "tid layout drift");
    shell_->attr.simulate = false;
    shell_->attr.inherit = cfg_.scope.user;

    // Spawn the initial batch WITHOUT executing the fork bursts:
    // no instruction may run before run(), because the simulator
    // client attaches between construction and run() and must see
    // every page registration (including the kernel's own pages).
    unsigned initial = std::min(spec_.concurrency, spec_.taskCount);
    initial = std::max(initial, 1u);
    for (unsigned i = 0; i < initial; ++i)
        spawnNextUser(false);
    initialSpawns_ = initial;
}

void
System::spawnNextUser(bool charge_fork_burst)
{
    TW_ASSERT(spawned_ < spec_.taskCount, "fork beyond task count");
    unsigned index = spawned_++;
    unsigned binary =
        index % static_cast<unsigned>(spec_.binaries.size());
    const StreamParams &params = spec_.binaries[binary];

    const StreamParams *data_params =
        binary < spec_.binaryData.size() ? &spec_.binaryData[binary]
                                         : nullptr;
    Task *task = makeTask(csprintf("%s.%u", spec_.name.c_str(), index),
                          Component::User, &params, data_params,
                          mixSeed(params.seed, 0xbeef00 + index));
    TW_ASSERT(task->tid >= kFirstUserTid, "user tid layout drift");
    task->binaryIndex = binary;
    // Same binary, different task: same loop ladder, different
    // control-flow randomness (fixed per task index, not per trial).
    task->stream->reset(mixSeed(params.seed, 0x5eed00 + index));
    if (task->dataStream) {
        task->dataStream->reset(
            mixSeed(params.seed, 0xda7a00 + index));
    }
    task->inheritFrom(*shell_);

    Counter per_task =
        std::max<Counter>(1, spec_.userInstr() / spec_.taskCount);
    task->budget = per_task;
    double rate = spec_.syscallsPer1k / 1000.0;
    task->nextSyscallIn =
        rate > 0.0 ? 1 + task->rng.below(
                         static_cast<std::uint64_t>(2000.0 / spec_.syscallsPer1k))
                   : ~static_cast<Counter>(0);

    runQueue_.push_back(task);
    ++result_.forks;
    result_.tasksCreated = spawned_;

    // fork+exec executes kernel code on the child's behalf.
    if (charge_fork_burst && cfg_.forkKernelInstr > 0)
        runBurst(*kernel_, cfg_.forkKernelInstr,
                 cfg_.maskedSyscallPrefix);
}

void
System::exitUser(Task &task)
{
    vm_.removeTask(task);
    auto it = std::find(runQueue_.begin(), runQueue_.end(), &task);
    TW_ASSERT(it != runQueue_.end(), "exiting task not runnable");
    std::size_t pos = static_cast<std::size_t>(it - runQueue_.begin());
    runQueue_.erase(it);
    if (rrIndex_ > pos)
        --rrIndex_;
    if (spawned_ < spec_.taskCount)
        spawnNextUser();
}

Addr
System::translate(Task &task, Addr va)
{
    Pfn pfn = task.pageTable.lookup(va);
    if (pfn < 0) [[unlikely]] {
        Vpn vpn = va / kHostPageBytes;
        pfn = vm_.fault(task, vpn);
        cycles_ += cfg_.faultKernelCycles;
        ++result_.faults;
    }
    return static_cast<Addr>(pfn) * kHostPageBytes
           + (va & (kHostPageBytes - 1));
}

Addr
System::translateFast(Task &task, Addr va, MicroTlb &tlb)
{
    // Translation cache over translate(). Translations never change
    // while a task runs (mappings only grow; the DMA recycle path
    // flushes the cache anyway), so a hit is exact.
    Addr page = va & ~static_cast<Addr>(kHostPageBytes - 1);
    MicroTlb::Entry &e = tlb.slot(page);
    if (e.vaPage == page && e.gen == tlb.gen) [[likely]] {
        ++obsUtlbHits_;
        return e.paBase + (va & (kHostPageBytes - 1));
    }
    ++obsUtlbMisses_;
    Addr pa = translate(task, va);
    e.vaPage = page;
    e.paBase = pa & ~static_cast<Addr>(kHostPageBytes - 1);
    e.gen = tlb.gen;
    return pa;
}

void
System::dataStep(Task &task)
{
    Addr va = task.dataStream->next();
    Addr pa = translate(task, va);
    ++task.dataRefCount;
    AccessKind kind = task.dataRefCount % spec_.storeEvery == 0
                          ? AccessKind::Store
                          : AccessKind::Load;
    ++result_.dataRefs;
    if (client_)
        cycles_ += client_->onRef(task, va, pa, intrMasked_, kind);
}

void
System::step(Task &task)
{
    Addr va = task.stream->next();
    Addr pa = translate(task, va);
    cycles_ += cfg_.cpiBase;
    ++result_.instr[static_cast<unsigned>(task.component)];
    ++task.executed;
    if (client_)
        cycles_ += client_->onRef(task, va, pa, intrMasked_,
                                  AccessKind::Fetch);
    // Loads and stores accompany instructions at the configured
    // rate; they consume no extra base cycles (the base CPI already
    // reflects average memory behaviour) but instrumented runs pay
    // the simulator's per-reference costs.
    if (task.dataStream) [[likely]] {
        task.dataRefCredit += dataPerMille_;
        while (task.dataRefCredit >= 1000) {
            task.dataRefCredit -= 1000;
            dataStep(task);
        }
    }
}

bool
System::delivers(const Task &task, Addr pa, AccessKind kind) const
{
    if (!client_)
        return false;
    if (hasFilter_)
        return filter_.wants(kind) && filter_.test(pa);
    return scope_.covers(task.tid) && scope_.wants(kind);
}

namespace
{

/**
 * Any trap bit set in the host page starting at @p pa_base? Tests
 * the filter words covering the page with one wide all-zero scan
 * (simd::anyBitsInWords — AVX-512/AVX2 vptest-style blocks, scalar
 * word loop under TW_NO_SIMD) — when a word overhangs the page
 * (granule words wider than a page) neighbouring pages' bits leak in
 * and the answer is conservatively true, which only costs a per-ref
 * probe, never a missed trap.
 */
inline bool
pageSpanTrapped(const std::uint64_t *bits, unsigned shift,
                Addr pa_base)
{
    std::uint64_t w0 = (pa_base >> shift) >> 6;
    std::uint64_t w1 = ((pa_base + kHostPageBytes - 1) >> shift) >> 6;
    return simd::anyBitsInWords(bits, w0, w1);
}

} // namespace

Counter
System::runInner(Task &task, Counter h)
{
    // The event horizon: the caller guarantees no tick, syscall,
    // budget or quantum boundary falls within the next h
    // instructions PROVIDED each costs exactly cpiBase. In the
    // chunked loop, a step that charges extra cycles (a page fault
    // or a simulated miss) may have moved the tick boundary, so it
    // stops there and lets the caller recompute.
    //
    // All per-step bookkeeping lives in locals and is settled once
    // at exit. The out-of-line paths a step can take — stream
    // refill, page-table walk, client miss handler — never read the
    // deferred counters or the task's buffers (mappings only grow,
    // and unmap paths run between slices), so keeping them in
    // registers is invisible; only the hot path's cost changes.
    if (h == 0)
        return 0;
    // A client without a trap filter must observe every reference
    // in its scope; take the generic loop with its per-ref virtual
    // call. A task outside the scope never reaches the client, so
    // it runs the chunked loop below like an uninstrumented one.
    if (client_ && !hasFilter_ && scope_.covers(task.tid))
        return runInnerObserved(task, h);

    // Chunked loop, for trap-filtered clients and uninstrumented
    // runs. A fetch on a mapped, probe-free page has NO observable
    // side effect, so whole same-page spans of the prefetch buffer
    // are consumed with one compare per address and accounted in
    // bulk; per-step credit arithmetic collapses to one multiply per
    // chunk. The data refs the chunk owes drain at its end in their
    // exact order: runs on a mapped, probe-free data page go as
    // spans too, while a ref on an unmapped page (a FAULT: arming,
    // cycles) or on a page with trap bits goes singly. An observable
    // data event — the fault, or a trap the filter delivers — must
    // not be followed by fetches that in exact order come after it,
    // so the fetch pointer rewinds to the event's owning step (the
    // over-consumed fetches were probe-free: there is nothing to
    // undo but the pointer), that step's remaining data refs finish
    // in exact order (each may fault or trap again), and the chunk
    // ends exactly where the per-step path would.
    SimClient *const cl = client_;
    const unsigned fshift = filter_.shift;
    const std::uint64_t *const fetch_bits =
        (hasFilter_ && filter_.wants(AccessKind::Fetch))
            ? filter_.bits
            : nullptr;
    const bool want_load = hasFilter_ && filter_.wants(AccessKind::Load);
    const bool want_store =
        hasFilter_ && filter_.wants(AccessKind::Store);
    const std::uint64_t *const data_bits =
        (want_load || want_store) ? filter_.bits : nullptr;
    const Addr off = kHostPageBytes - 1;
    const bool masked = intrMasked_;

    StreamBuf &fb = task.fetchBuf;
    StreamBuf &db = task.dataBuf;
    RefStream *const dstream = task.dataStream.get();
    // dpm == 0 keeps the credit below the data-ref threshold, so a
    // task without a data stream never reaches the drain.
    const Counter dpm = dstream ? dataPerMille_ : 0;
    Addr *const fstart = fb.buf.data();
    const Addr *fp = fstart + fb.pos;
    const Addr *fend = fstart + fb.len;
    Addr *const dstart = db.buf.data();
    const Addr *dp = dstart + db.pos;
    const Addr *dend = dstart + db.len;
    const unsigned fpos0 = fb.pos;
    Counter consumed_base = 0;
    const Addr vaBase = task.pageTable.vaBase();
    const Pfn *const frames = task.pageTable.framesData();
    Addr ivaPage = kInvalidAddr, ipaBase = 0;
    Addr dvaPage = kInvalidAddr, dpaBase = 0;
    bool fprobe = false, dprobe = false;
    Counter credit = task.dataRefCredit;
    const Counter ref0 = task.dataRefCount;
    const unsigned store_every = spec_.storeEvery;

    Counter data_refs = 0;
    Counter probed = 0;
    Counter span_ops = 0;
    Counter left = h;
    // An event that charges cycles makes its step the last of this
    // call (legacy `extra` semantics).
    bool stop_after = false;

    for (;;) {
        if (fp == fend) [[unlikely]] {
            consumed_base += static_cast<Counter>(fp - fstart);
            fb.fill(*task.stream);
            fp = fstart;
            fend = fstart + fb.len;
        }
        Addr va = *fp;
        Addr page = va & ~off;
        if (page != ivaPage) [[unlikely]] {
            Pfn pfn = frames[(page - vaBase) / kHostPageBytes];
            if (pfn >= 0) [[likely]] {
                ipaBase = static_cast<Addr>(pfn) * kHostPageBytes;
            } else {
                Cycles c0 = cycles_;
                ipaBase = translate(task, va) & ~off;
                if (cycles_ != c0)
                    stop_after = true;
                // The fault armed freshly mapped pages.
                dvaPage = kInvalidAddr;
            }
            ivaPage = page;
            span_ops += fetch_bits != nullptr;
            fprobe = fetch_bits
                     && pageSpanTrapped(fetch_bits, fshift, ipaBase);
        }
        const Addr *const fp0 = fp;
        const Counter credit0 = credit;
        // A chunk is bounded by the buffer and the horizon; a pending
        // fetch-fault charge limits it to its own step.
        Counter m = static_cast<Counter>(fend - fp);
        if (m > left)
            m = left;
        if (stop_after) [[unlikely]]
            m = 1;
        const Addr *const qe = fp + m;
        Counter n;
        if (fprobe) [[unlikely]] {
            // Trap bits on this page: a fetch whose bit is set is a
            // single exact step. A clear one has no observable side
            // effect, so it and the run of clear-bit fetches after it
            // on this page go as one scan, which stops BEFORE the
            // next set bit; that fetch starts the next chunk.
            Addr pa = ipaBase + (va & off);
            std::uint64_t g = pa >> fshift;
            if ((fetch_bits[g >> 6] >> (g & 63)) & 1) [[unlikely]] {
                ++fp;
                n = 1;
                Cycles r = cl->onRef(task, va, pa, masked,
                                     AccessKind::Fetch);
                cycles_ += r;
                if (r != 0)
                    stop_after = true;
                // The handler may have moved traps anywhere.
                ivaPage = kInvalidAddr;
                dvaPage = kInvalidAddr;
            } else {
                n = 1 + simd::clearSpan(fp + 1, qe, ~off, page, ipaBase,
                                        fetch_bits, fshift);
                fp += n;
            }
            probed += n;
        } else {
            // Probe-free page: consume the same-page span with one
            // wide scan, bounded by the buffer and the horizon —
            // then keep extending across page boundaries as long as
            // the next page is already MAPPED and also probe-free.
            // A fetch there has no observable side effect either, so
            // whole clear regions collapse into one bulk-accounted
            // chunk instead of page steps. An unmapped or trapped
            // page ends the merge: its fault/probe must happen in
            // exact legacy order, which the top of the loop
            // provides. (A data event mid-drain still rewinds to its
            // owning step and invalidates the page cache, so merged
            // spans undo just like single-page ones.)
            const Addr *q = fp + 1;
            ++span_ops;
            q += simd::samePageSpan(q, qe, ~off, page);
            while (q != qe) {
                Addr npage = *q & ~off;
                Pfn pfn = frames[(npage - vaBase) / kHostPageBytes];
                if (pfn < 0) [[unlikely]]
                    break;
                Addr npaBase =
                    static_cast<Addr>(pfn) * kHostPageBytes;
                if (fetch_bits) {
                    ++span_ops;
                    if (pageSpanTrapped(fetch_bits, fshift, npaBase))
                        break;
                }
                // Adopt the clear page as the cached one and extend.
                page = npage;
                ivaPage = npage;
                ipaBase = npaBase;
                ++q;
                ++span_ops;
                q += simd::samePageSpan(q, qe, ~off, page);
            }
            n = static_cast<Counter>(q - fp);
            fp = q;
        }
        credit += n * dpm;
        if (credit >= 1000) [[unlikely]] {
            Counter pending = credit / 1000;
            credit -= pending * 1000;
            Counter drained = 0;
            // Owning step of the first data event, if one happened.
            Counter s = 0;
            while (drained < pending) {
                if (dp == dend) [[unlikely]] {
                    db.fill(*dstream);
                    dp = dstart;
                    dend = dstart + db.len;
                }
                Addr dva = *dp;
                Addr dpage = dva & ~off;
                bool event = false;
                if (dpage != dvaPage) [[unlikely]] {
                    Pfn pfn = frames[(dpage - vaBase) / kHostPageBytes];
                    if (pfn < 0) [[unlikely]] {
                        Cycles c0 = cycles_;
                        pfn = static_cast<Pfn>(translate(task, dva)
                                               / kHostPageBytes);
                        if (cycles_ != c0)
                            stop_after = true;
                        event = true;
                    }
                    dvaPage = dpage;
                    dpaBase = static_cast<Addr>(pfn) * kHostPageBytes;
                    span_ops += data_bits != nullptr;
                    dprobe = data_bits
                             && pageSpanTrapped(data_bits, fshift,
                                                dpaBase);
                }
                if (!dprobe && !event) [[likely]] {
                    // Clear, mapped page: the whole same-page run is
                    // one wide scan plus pointer math.
                    Counter avail = pending - drained;
                    if (avail > static_cast<Counter>(dend - dp))
                        avail = static_cast<Counter>(dend - dp);
                    ++span_ops;
                    Counter k = 1
                                + static_cast<Counter>(
                                    simd::samePageSpan(dp + 1,
                                                       dp + avail, ~off,
                                                       dvaPage));
                    dp += k;
                    drained += k;
                    continue;
                }
                // A fault or a page with trap bits: one exact ref,
                // probed and delivered with the kind dataStep() would
                // give it.
                ++dp;
                ++drained;
                if (dprobe) {
                    ++probed;
                    bool store =
                        (ref0 + data_refs + drained) % store_every == 0;
                    Addr dpa = dpaBase + (dva & off);
                    std::uint64_t g = dpa >> fshift;
                    if ((store ? want_store : want_load)
                        && ((data_bits[g >> 6] >> (g & 63)) & 1)) {
                        Cycles r = cl->onRef(task, dva, dpa, masked,
                                             store ? AccessKind::Store
                                                   : AccessKind::Load);
                        cycles_ += r;
                        if (r != 0)
                            stop_after = true;
                        // The handler may have moved traps anywhere.
                        dvaPage = kInvalidAddr;
                        event = true;
                    }
                }
                if (event && s == 0) {
                    // The event is observable, so the steps bulk-
                    // executed past its owning step s must not have
                    // happened yet: the drain stops at the end of s's
                    // data refs (each may fault or trap again).
                    s = (drained * 1000 - credit0 + dpm - 1) / dpm;
                    pending = (credit0 + s * dpm) / 1000;
                }
            }
            data_refs += drained;
            if (s != 0) {
                // Rewind the fetch pointer to s and re-enter with
                // fresh probe state; a clear run's fetches past s
                // were not probed yet.
                if (fprobe)
                    probed -= n - s;
                fp = fp0 + s;
                credit = credit0 + s * dpm - pending * 1000;
                n = s;
                ivaPage = kInvalidAddr;
            }
        }
        left -= n;
        if (stop_after || left == 0)
            break;
    }

    const Counter done = consumed_base
                         + static_cast<Counter>(fp - fstart) - fpos0;
    fb.pos = static_cast<unsigned>(fp - fstart);
    db.pos = static_cast<unsigned>(dp - dstart);
    task.dataRefCredit = credit;
    task.dataRefCount += data_refs;
    result_.dataRefs += data_refs;
    cycles_ += done * cfg_.cpiBase;
    result_.instr[static_cast<unsigned>(task.component)] += done;
    task.executed += done;
    obsRefsChunked_ += done + data_refs;
    obsProbeHits_ += probed;
    obsProbeSkips_ += done + data_refs - probed;
    (simdWide_ ? obsSimdWide_ : obsSimdScalar_) += span_ops;
    return done;
}

Counter
System::runInnerObserved(Task &task, Counter h)
{
    // Generic event-horizon loop for clients that must see every
    // reference in their observe scope (no trap filter). Unlike a
    // filtered client, an unfiltered one may legitimately read the
    // machine state its callback can reach — System::now() (the
    // write-buffer model does exactly that) or the task's public
    // counters — so cycles and counters are kept exact at every
    // call, in legacy step() order: translate, charge cpiBase, bump
    // the counters, then the call. Only fast-path-internal state
    // (buffer positions, the per-slice instruction count) stays in
    // locals.
    //
    // Because cycles_ is exact after every step, the loop needs no
    // stop-on-charge: it runs to the clock tick itself. The legacy
    // loop steps first and checks the tick after, so stopping right
    // after the step that makes the tick due reproduces its order.
    // The other horizon terms are instruction counts that h already
    // bounds, and a masked burst never checks the clock at all.
    SimClient *const cl = client_;
    const bool want_fetch = scope_.wants(AccessKind::Fetch);
    const bool want_load = scope_.wants(AccessKind::Load);
    const bool want_store = scope_.wants(AccessKind::Store);
    const Addr off = kHostPageBytes - 1;
    const Counter dpm = dataPerMille_;
    const bool masked = intrMasked_;
    const Cycles cpi = cfg_.cpiBase;
    const Cycles tick =
        masked ? ~static_cast<Cycles>(0) : clock_.nextAt();

    StreamBuf &fb = task.fetchBuf;
    StreamBuf &db = task.dataBuf;
    RefStream *const dstream = task.dataStream.get();
    unsigned fpos = fb.pos, flen = fb.len;
    unsigned dpos = db.pos, dlen = db.len;
    const Addr vaBase = task.pageTable.vaBase();
    const Pfn *const frames = task.pageTable.framesData();
    Addr ivaPage = kInvalidAddr, ipaBase = 0;
    Addr dvaPage = kInvalidAddr, dpaBase = 0;
    const unsigned store_every = spec_.storeEvery;

    Counter done = 0;
    const Counter dataRefs0 = result_.dataRefs;

    for (;;) {
        if (fpos == flen) [[unlikely]] {
            fb.fill(*task.stream);
            fpos = 0;
            flen = fb.len;
        }
        Addr va = fb.buf[fpos++];
        Addr page = va & ~off;
        Addr pa;
        if (page == ivaPage) [[likely]] {
            pa = ipaBase + (va & off);
        } else {
            Pfn pfn = frames[(page - vaBase) / kHostPageBytes];
            pa = pfn >= 0 ? static_cast<Addr>(pfn) * kHostPageBytes
                                + (va & off)
                          : translate(task, va);
            ivaPage = page;
            ipaBase = pa & ~off;
        }
        cycles_ += cpi;
        ++done;
        ++task.executed;
        if (want_fetch)
            cycles_ += cl->onRef(task, va, pa, masked,
                                 AccessKind::Fetch);
        if (dstream) [[likely]] {
            task.dataRefCredit += dpm;
            while (task.dataRefCredit >= 1000) [[unlikely]] {
                task.dataRefCredit -= 1000;
                if (dpos == dlen) [[unlikely]] {
                    db.fill(*dstream);
                    dpos = 0;
                    dlen = db.len;
                }
                Addr dva = db.buf[dpos++];
                Addr dpage = dva & ~off;
                Addr dpa;
                if (dpage == dvaPage) [[likely]] {
                    dpa = dpaBase + (dva & off);
                } else {
                    Pfn pfn =
                        frames[(dpage - vaBase) / kHostPageBytes];
                    dpa = pfn >= 0 ? static_cast<Addr>(pfn)
                                             * kHostPageBytes
                                         + (dva & off)
                                   : translate(task, dva);
                    dvaPage = dpage;
                    dpaBase = dpa & ~off;
                }
                ++task.dataRefCount;
                ++result_.dataRefs;
                bool store = task.dataRefCount % store_every == 0;
                if (store ? want_store : want_load)
                    cycles_ += cl->onRef(task, dva, dpa, masked,
                                         store ? AccessKind::Store
                                               : AccessKind::Load);
            }
        }
        if (done == h || cycles_ >= tick)
            break;
    }

    fb.pos = fpos;
    db.pos = dpos;
    result_.instr[static_cast<unsigned>(task.component)] += done;
    obsRefsObserved_ += done + (result_.dataRefs - dataRefs0);
    return done;
}

Counter
System::clockHorizon() const
{
    // Instructions that can run before the next tick becomes due,
    // assuming each costs exactly cpiBase cycles.
    if (clock_.due(cycles_))
        return 0;
    if (cfg_.cpiBase == 0)
        return ~static_cast<Counter>(0);
    return (clock_.nextAt() - cycles_ - 1) / cfg_.cpiBase;
}

void
System::runBurst(Task &task, Counter len, Counter masked_prefix)
{
    if (slowPath_)
        runBurstSlow(task, len, masked_prefix);
    else
        runBurstFast(task, len, masked_prefix);
}

void
System::runBurstSlow(Task &task, Counter len, Counter masked_prefix)
{
    bool outer_masked = intrMasked_;
    for (Counter i = 0; i < len; ++i) {
        intrMasked_ = outer_masked || i < masked_prefix;
        step(task);
        if (!intrMasked_ && clock_.due(cycles_))
            clockTick();
    }
    intrMasked_ = outer_masked;
}

void
System::runBurstFast(Task &task, Counter len, Counter masked_prefix)
{
    bool outer_masked = intrMasked_;
    if (outer_masked) {
        // The whole burst runs masked; the legacy loop never checks
        // the clock here, so neither do we — an inner loop's early
        // out on extra cycles just means looping until the burst is
        // done.
        for (Counter i = 0; i < len;)
            i += runInner(task, len - i);
        return;
    }

    // Masked prefix (trap-frame setup): no tick checks.
    Counter prefix = std::min(len, masked_prefix);
    intrMasked_ = true;
    for (Counter i = 0; i < prefix;)
        i += runInner(task, prefix - i);
    intrMasked_ = false;

    // Unmasked remainder: batch to the tick horizon (a zero horizon
    // runs one step), exactly like runSliceFast but with no syscall
    // countdown.
    for (Counter i = prefix; i < len;) {
        i += runInner(task, std::max<Counter>(
                                1, std::min(len - i, clockHorizon())));
        if (clock_.due(cycles_))
            clockTick();
    }
}

void
System::doSyscall(Task &task)
{
    ++result_.syscalls;
    double rate = spec_.syscallsPer1k;
    task.nextSyscallIn =
        1 + task.rng.below(
            static_cast<std::uint64_t>(std::max(2.0, 2000.0 / rate)));

    auto jitter = [&task](double mean) {
        double f = 0.7 + 0.6 * task.rng.uniform();
        return static_cast<Counter>(std::max(1.0, mean * f));
    };

    runBurst(*kernel_, jitter(spec_.kernelBurstLen()),
             cfg_.maskedSyscallPrefix);
    if (spec_.bsdProb > 0.0 && task.rng.chance(spec_.bsdProb))
        runBurst(*bsd_, jitter(spec_.bsdBurstLen()), 0);
    if (spec_.xProb > 0.0 && task.rng.chance(spec_.xProb))
        runBurst(*x_, jitter(spec_.xBurstLen()), 0);
}

void
System::clockTick()
{
    clock_.acknowledge(cycles_);
    ++result_.ticks;
    preempt_ = true;

    // The clock handler runs with interrupts masked: ECC traps
    // raised by its references cannot be delivered (the masking
    // bias of Section 4.2).
    intrMasked_ = true;
    Addr base = spec_.kernelText.base;
    if (slowPath_) {
        for (Counter i = 0; i < cfg_.tickHandlerInstr; ++i) {
            Addr va = base + handlerPos_;
            handlerPos_ = (handlerPos_ + kWordBytes) % kHandlerBytes;
            Addr pa = translate(*kernel_, va);
            cycles_ += cfg_.cpiBase;
            ++result_.instr[static_cast<unsigned>(Component::Kernel)];
            if (client_)
                cycles_ += client_->onRef(*kernel_, va, pa,
                                          intrMasked_);
        }
    } else {
        // Masked, no nested ticks: the base cycles and instruction
        // counts can be settled in bulk — nothing inside the loop
        // reads them, and integer sums are order-independent.
        for (Counter i = 0; i < cfg_.tickHandlerInstr; ++i) {
            Addr va = base + handlerPos_;
            handlerPos_ = (handlerPos_ + kWordBytes) % kHandlerBytes;
            Addr pa = translateFast(*kernel_, va, handlerTlb_);
            if (delivers(*kernel_, pa, AccessKind::Fetch))
                cycles_ += client_->onRef(*kernel_, va, pa, true);
        }
        cycles_ += cfg_.tickHandlerInstr * cfg_.cpiBase;
        result_.instr[static_cast<unsigned>(Component::Kernel)] +=
            cfg_.tickHandlerInstr;
    }
    intrMasked_ = false;

    // Periodic DMA buffer recycling invalidates one frame's lines
    // in the real cache; simulated caches must follow suit.
    if (cfg_.dmaFlushPeriod > 0
        && result_.ticks % cfg_.dmaFlushPeriod == 0) {
        Pfn victim =
            vm_.dmaVictim(result_.ticks / cfg_.dmaFlushPeriod);
        if (victim != kNoFrame) {
            ++result_.dmaFlushes;
            if (client_)
                client_->onDmaInvalidate(victim);
            // Host translations do not actually change on a DMA
            // recycle, but drop the handler's cached ones anyway: the
            // recycled frame may be handed to a new task the moment
            // the old one exits, and the cache is cheap to refill.
            handlerTlb_.flush();
        }
    }
}

void
System::runSlice(Task &task)
{
    if (slowPath_)
        runSliceSlow(task);
    else
        runSliceFast(task);
}

void
System::runSliceSlow(Task &task)
{
    preempt_ = false;
    Counter quantum = cfg_.quantumInstr;
    while (quantum-- > 0 && !task.finished() && !preempt_) {
        step(task);
        if (--task.nextSyscallIn == 0)
            doSyscall(task);
        if (clock_.due(cycles_))
            clockTick();
    }
}

void
System::runSliceFast(Task &task)
{
    // Event-horizon batching: compute how many instructions can
    // retire before ANY event (tick due, syscall, budget end,
    // quantum end) can fire, run them in a tight inner loop, then
    // make the legacy checks. The legacy loop always steps first and
    // checks after, so a horizon of zero degenerates to exactly its
    // body: one step, runInner(task, 1), then the checks.
    preempt_ = false;
    Counter quantum = cfg_.quantumInstr;
    while (quantum > 0 && !task.finished() && !preempt_) {
        Counter h = std::min(quantum, task.budget - task.executed);
        h = std::min(h, task.nextSyscallIn - 1);
        h = std::min(h, clockHorizon());
        Counter done = runInner(task, std::max<Counter>(h, 1));
        quantum -= done;
        task.nextSyscallIn -= done;
        if (task.nextSyscallIn == 0)
            doSyscall(task);
        if (clock_.due(cycles_))
            clockTick();
    }
}

RunResult
System::run()
{
    TW_ASSERT(!ran_, "System::run() called twice");
    ran_ = true;

    // Cache the client's trap filter once: the view's storage is
    // fixed for the run (TrapFilterView contract), only the bits
    // change as traps are set and cleared. The SIMD dispatch level
    // is pinned per run too, so the wide/scalar span tallies stay
    // coherent even if a test flips simd::setEnabled mid-process.
    if (client_ && !slowPath_) {
        filter_ = client_->trapFilter();
        hasFilter_ = filter_.bits != nullptr;
        scope_ = client_->observeScope();
    }
    simdWide_ = simd::wide();

    // Charge the boot-time fork/exec kernel work for the initial
    // task batch now that the simulator client is attached.
    if (cfg_.forkKernelInstr > 0) {
        for (unsigned i = 0; i < initialSpawns_; ++i)
            runBurst(*kernel_, cfg_.forkKernelInstr,
                     cfg_.maskedSyscallPrefix);
    }

    while (!runQueue_.empty()) {
        if (rrIndex_ >= runQueue_.size())
            rrIndex_ = 0;
        Task *task = runQueue_[rrIndex_];
        runSlice(*task);
        if (task->finished()) {
            exitUser(*task);
        } else {
            ++rrIndex_;
        }
    }

    result_.cycles = cycles_;
    flushObsCounters();
    return result_;
}

void
System::flushObsCounters()
{
    // Function-local statics: one registry lookup per process, then
    // each run costs a handful of relaxed sharded adds (add() is a
    // no-op for zero tallies).
    static obs::Counter chunked =
        obs::registry().counter("engine.refs.chunked");
    static obs::Counter observed =
        obs::registry().counter("engine.refs.observed");
    static obs::Counter probeHits =
        obs::registry().counter("engine.probe.hits");
    static obs::Counter probeSkips =
        obs::registry().counter("engine.probe.skips");
    static obs::Counter utlbHits =
        obs::registry().counter("engine.utlb.hits");
    static obs::Counter utlbMisses =
        obs::registry().counter("engine.utlb.misses");
    static obs::Counter simdWide =
        obs::registry().counter("engine.simd.wide_spans");
    static obs::Counter simdScalar =
        obs::registry().counter("engine.simd.scalar_tail");
    chunked.add(obsRefsChunked_);
    observed.add(obsRefsObserved_);
    probeHits.add(obsProbeHits_);
    probeSkips.add(obsProbeSkips_);
    utlbHits.add(obsUtlbHits_);
    utlbMisses.add(obsUtlbMisses_);
    simdWide.add(obsSimdWide_);
    simdScalar.add(obsSimdScalar_);
}

} // namespace tw
