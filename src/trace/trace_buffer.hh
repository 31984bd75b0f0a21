/**
 * @file
 * System-wide trace-buffer simulation — the Mogul/Borg and Chen
 * approach from Section 2.
 *
 * "Mogul and Borg describe a system where each task in a multi-task
 * workload is instrumented to make entries in a system-wide trace
 * buffer. A modified operating system kernel interleaves the
 * execution of the different user-level workload tasks according to
 * usual scheduling policies and invokes a memory simulator whenever
 * the trace buffer becomes full. Chen has further extended this
 * technique to include annotation of the OS kernel itself, thus
 * enabling complete accounting of all system activity."
 *
 * TraceBufferClient models the Chen variant: EVERY reference of
 * EVERY component appends to a fixed buffer (a few cycles of inline
 * annotation), and when the buffer fills the simulator drains it in
 * one burst — the workload stalls for the whole sweep, which is why
 * this family is complete like Tapeworm but pays trace-driven
 * per-reference costs on the entire system, not just one task.
 */

#ifndef TW_TRACE_TRACE_BUFFER_HH
#define TW_TRACE_TRACE_BUFFER_HH

#include <array>
#include <vector>

#include "base/bitops.hh"
#include "base/types.hh"
#include "mem/cache.hh"
#include "os/sim_client.hh"
#include "os/task.hh"

namespace tw
{

/** Configuration of the buffered complete-tracing simulator. */
struct TraceBufferConfig
{
    CacheConfig cache;

    /** Buffer capacity in entries (Mogul/Borg used megabytes; the
     *  scaled default keeps drain bursts frequent enough to see). */
    std::size_t bufferEntries = 32768;

    /** Cycles per reference for the inlined buffer append. */
    Cycles writeCycles = 10;

    /** Simulator cycles per entry when draining a full buffer. */
    Cycles drainPerEntry = 55;
};

/** Counters of a trace-buffer run. */
struct TraceBufferStats
{
    Counter refs = 0;
    Counter drains = 0;
    std::array<Counter, kNumComponents> misses{};
    Cycles cycles = 0;

    Counter
    totalMisses() const
    {
        Counter t = 0;
        for (Counter m : misses)
            t += m;
        return t;
    }
};

/**
 * Complete (all-task, all-kernel) buffered tracing simulator.
 */
class TraceBufferClient : public SimClient
{
  public:
    explicit TraceBufferClient(const TraceBufferConfig &config)
        : cfg_(config), cache_(config.cache),
          lineShift_(floorLog2(config.cache.lineBytes))
    {
        buffer_.reserve(cfg_.bufferEntries);
    }

    Cycles
    onRef(const Task &task, Addr va, Addr pa, bool intr_masked,
          AccessKind kind = AccessKind::Fetch) override
    {
        (void)pa;
        (void)intr_masked; // kernel annotation, not a trap: immune
        if (kind != AccessKind::Fetch)
            return 0; // instruction tracing, like the baseline
        ++stats_.refs;
        buffer_.push_back(Entry{va, task.tid,
                                static_cast<std::uint8_t>(
                                    task.component)});
        Cycles cost = cfg_.writeCycles;
        if (buffer_.size() >= cfg_.bufferEntries)
            cost += drain();
        stats_.cycles += cost;
        return cost;
    }

    /** Every task's fetches, no data references (see onRef). */
    ObserveScope
    observeScope() const override
    {
        return {ObserveScope::kAnyTask,
                trapKindBit(AccessKind::Fetch)};
    }

    /** Process whatever is buffered (call at end of run so the tail
     *  is not lost). Returns the simulator cycles consumed. */
    Cycles
    drain()
    {
        ++stats_.drains;
        Cycles cost = 0;
        for (const Entry &entry : buffer_) {
            LineRef ref;
            ref.vaLine = entry.va >> lineShift_;
            ref.paLine = ref.vaLine;
            ref.tid = entry.tid;
            if (!cache_.access(ref).hit)
                ++stats_.misses[entry.component];
            cost += cfg_.drainPerEntry;
        }
        buffer_.clear();
        return cost;
    }

    const TraceBufferStats &stats() const { return stats_; }
    std::size_t buffered() const { return buffer_.size(); }

  private:
    struct Entry
    {
        Addr va;
        TaskId tid;
        std::uint8_t component;
    };

    TraceBufferConfig cfg_;
    Cache cache_;
    unsigned lineShift_;
    std::vector<Entry> buffer_;
    TraceBufferStats stats_;
};

} // namespace tw

#endif // TW_TRACE_TRACE_BUFFER_HH
