/**
 * @file
 * Pixie-style workload annotation.
 *
 * Pixie rewrites a binary so that it emits its own instruction
 * addresses as it runs; crucially, it "only generates user-level
 * address traces for a single task" (Section 4), which is exactly
 * the completeness gap Table 6 quantifies: kernel, server and
 * other-task references never appear in the trace.
 *
 * PixieClient attaches to the simulated machine as a SimClient: it
 * forwards the target task's fetch addresses to a TraceSink (a
 * trace file, or a Cache2000 instance for on-the-fly simulation)
 * and charges the per-address generation cost into simulated time,
 * which is how the trace-driven slowdowns of Figure 2 arise.
 */

#ifndef TW_TRACE_PIXIE_HH
#define TW_TRACE_PIXIE_HH

#include "base/types.hh"
#include "os/sim_client.hh"
#include "os/task.hh"
#include "trace/cache2000.hh"
#include "trace/trace_io.hh"

namespace tw
{

/** Cost knobs of the annotation. */
struct PixieConfig
{
    /** Cycles to generate (emit) one trace address. Together with
     *  Cache2000's per-address processing this reproduces the
     *  40-60+ cycles/address of Section 4.1. */
    Cycles genCycles = 47;
};

/**
 * The annotated-workload trace generator.
 */
class PixieClient : public SimClient
{
  public:
    /**
     * @param target the single task whose references are traced.
     * @param sink where the addresses go (e.g. a TraceWriter).
     */
    PixieClient(TaskId target, TraceSink *sink,
                PixieConfig config = {})
        : target_(target), sink_(sink), cfg_(config)
    {
    }

    /**
     * On-the-fly mode: feed a Cache2000 directly and charge its
     * per-address processing cycles into the annotated run, in
     * addition to the generation cost — the Pixie+Cache2000
     * combination whose slowdowns Figure 2 plots.
     */
    PixieClient(TaskId target, Cache2000 *inline_sim,
                PixieConfig config = {})
        : target_(target), inlineSim_(inline_sim), cfg_(config)
    {
    }

    Cycles
    onRef(const Task &task, Addr va, Addr pa, bool intr_masked,
          AccessKind kind = AccessKind::Fetch) override
    {
        (void)pa;
        (void)intr_masked;
        // Annotation is part of the target binary: other tasks and
        // the kernel run unannotated and invisible. Pixie produces
        // instruction address traces only (Section 4).
        if (task.tid != target_ || kind != AccessKind::Fetch)
            return 0;
        ++traced_;
        Cycles cost = cfg_.genCycles;
        if (inlineSim_)
            cost += inlineSim_->processAddr(va, task.tid);
        else if (sink_)
            sink_->put(TraceRecord{va, task.tid});
        return cost;
    }

    /** Only the target's fetches are charged (see onRef). */
    ObserveScope
    observeScope() const override
    {
        return {target_, trapKindBit(AccessKind::Fetch)};
    }

    Counter traced() const { return traced_; }

  private:
    TaskId target_;
    TraceSink *sink_ = nullptr;
    Cache2000 *inlineSim_ = nullptr;
    PixieConfig cfg_;
    Counter traced_ = 0;
};

/** Tid of the first user task the shell forks (boot layout of the
 *  simulated system: kernel=0, bsd=1, x=2, shell=3). */
constexpr TaskId kFirstUserTaskId = 4;

} // namespace tw

#endif // TW_TRACE_PIXIE_HH
