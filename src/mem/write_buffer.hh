/**
 * @file
 * A write buffer model — the paper's example of what trap-driven
 * simulation CANNOT do.
 *
 * Section 4.4: "write buffers, which are queues that only hold
 * their contents for only a short time, cannot be simulated with
 * the Tapeworm algorithm. This limitation restricts simulations to
 * a write-back write policy."
 *
 * The reason is structural: a write buffer's behaviour depends on
 * the timing of every store and its drain progress, but a
 * trap-driven simulator only observes the (rare) references that
 * trap — store hits and drain intervals are invisible. A
 * trace-driven simulator sees every reference with an implicit
 * clock and can model the queue exactly, which this class does for
 * the trace-driven side of the flexibility comparison
 * (`bench_driver --run dcache_writepolicy`).
 */

#ifndef TW_MEM_WRITE_BUFFER_HH
#define TW_MEM_WRITE_BUFFER_HH

#include <deque>

#include "base/types.hh"

namespace tw
{

/** Configuration of the FIFO write buffer. */
struct WriteBufferConfig
{
    /** Queue depth in entries (lines). */
    unsigned depth = 4;
    /** Cycles memory needs to retire one entry. */
    Cycles retireCycles = 6;
    /** Merge a store into an already-buffered line instead of
     *  taking a new entry. */
    bool coalesce = true;
};

/** Counters of a write-buffer simulation. */
struct WriteBufferStats
{
    Counter stores = 0;      //!< stores presented
    Counter coalesced = 0;   //!< merged into an existing entry
    Counter retired = 0;     //!< entries drained to memory
    Counter fullStalls = 0;  //!< stores that found the queue full
    Cycles stallCycles = 0;  //!< cycles lost waiting for a slot
    Counter loadForwards = 0; //!< loads served from the buffer
};

/**
 * FIFO write buffer with an explicit clock: the caller passes the
 * current cycle on every operation (a trace-driven simulator has
 * one; a trap-driven simulator does not — that asymmetry is the
 * point).
 */
class WriteBuffer
{
  public:
    explicit WriteBuffer(const WriteBufferConfig &config)
        : cfg_(config)
    {
    }

    /**
     * Present a store of @p line_addr at time @p now. Returns the
     * stall cycles incurred (0 if a slot or merge was available).
     */
    Cycles store(Addr line_addr, Cycles now);

    /** Does a load of @p line_addr at @p now hit buffered data?
     *  (Counted as a forward; contents stay queued.) */
    bool loadForward(Addr line_addr, Cycles now);

    /** Entries still queued at time @p now. */
    unsigned occupancy(Cycles now);

    const WriteBufferStats &stats() const { return stats_; }
    const WriteBufferConfig &config() const { return cfg_; }

  private:
    struct Entry
    {
        Addr lineAddr;
        Cycles readyAt; //!< time its retirement completes
    };

    void drain(Cycles now);

    WriteBufferConfig cfg_;
    std::deque<Entry> queue_;
    Cycles lastRetire_ = 0;
    WriteBufferStats stats_;
};

} // namespace tw

#endif // TW_MEM_WRITE_BUFFER_HH
