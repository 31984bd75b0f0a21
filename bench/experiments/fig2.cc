/**
 * @file
 * Figure 2: Tapeworm versus Pixie+Cache2000 slowdowns for mpeg_play
 * over direct-mapped I-cache sizes 1 KB - 1 MB with 4-word lines.
 * Tapeworm attributes exclude the X/BSD servers and kernel (user
 * task only), but slowdowns are relative to the total run time
 * including them — exactly the paper's setup.
 */

#include <cstdlib>
#include <cstring>

#include "base/simd.hh"
#include "util.hh"

using namespace twbench;

namespace
{

struct PaperRow
{
    unsigned kb;
    double missRatio, c2000, tapeworm;
};

// Figure 2's embedded table.
const PaperRow kPaper[] = {
    {1, 0.118, 30.2, 6.27},   {2, 0.097, 28.8, 5.16},
    {4, 0.064, 27.0, 3.84},   {8, 0.023, 24.2, 1.20},
    {16, 0.017, 23.5, 0.87},  {32, 0.002, 22.4, 0.11},
    {64, 0.002, 22.3, 0.10},  {128, 0.000, 22.0, 0.01},
    {256, 0.000, 22.1, 0.00}, {512, 0.000, 22.1, 0.00},
    {1024, 0.000, 22.3, 0.00},
};

/** TW_FIG2_ONLY_KB restricts the sweep to one cache size
 *  (perf-smoke mode; unset or empty keeps the full sweep). The value
 *  must be a plain decimal size from Figure 2's table: trailing junk
 *  ("1k") or a size the table lacks ("3") is fatal, never a silent
 *  other row or an empty table. */
unsigned
onlyKb()
{
    const char *only = std::getenv("TW_FIG2_ONLY_KB");
    if (!only || !*only)
        return 0;
    std::uint64_t kb = 0;
    bool plain = parseDecimal(only, ~std::uint64_t{0}, kb);
    for (const auto &paper : kPaper) {
        if (plain && paper.kb == kb)
            return paper.kb;
    }
    fatal("TW_FIG2_ONLY_KB: '%s' is not a Figure 2 cache size in KB "
          "(1, 2, 4, ..., 1024)", only);
}

/** TW_FIG2_DCACHE=1 adds a unified-kind Tapeworm row per size. Both
 *  run the chunked inner loop: an I-cache filter delivers fetches
 *  only, so its data refs always drain as spans, while a unified
 *  filter delivers loads/stores too and probes the data pages that
 *  carry trap bits — the perf smoke measures both. Only 0 and 1 are
 *  accepted (unset or empty means 0). */
bool
wantDcache()
{
    const char *env = std::getenv("TW_FIG2_DCACHE");
    if (!env || !*env || std::strcmp(env, "0") == 0)
        return false;
    if (std::strcmp(env, "1") == 0)
        return true;
    fatal("TW_FIG2_DCACHE: '%s' must be 0 or 1", env);
}

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "fig2";
    def.artifact = "Figure 2";
    def.description = "trace-driven vs trap-driven slowdowns, "
                      "mpeg_play I-cache";
    def.report = "fig2_slowdowns";
    def.scaleDiv = 200;
    def.grid = [](unsigned scale) {
        std::vector<ExperimentUnit> units;
        unsigned only_kb = onlyKb();
        for (const auto &paper : kPaper) {
            if (only_kb != 0 && paper.kb != only_kb)
                continue;
            RunSpec spec = defaultSpec("mpeg_play", scale);
            spec.sys.scope = SimScope::userOnly();
            CacheConfig cache = CacheConfig::icache(
                paper.kb * 1024ull, 16, 1, Indexing::Virtual);

            spec.sim = SimKind::Tapeworm;
            spec.tw.cache = cache;
            RunSpec tw = spec;
            applySampleEnv(tw);
            // Sampled estimates carry no slowdown (no instrumented
            // machine runs), so skip the baseline pairing then.
            units.push_back(unitOf(
                csprintf("tw/%uK", paper.kb), tw,
                TrialPlan::one(7, !tw.sample.enabled)));

            if (wantDcache()) {
                RunSpec uni = spec;
                uni.tw.kind = SimCacheKind::Unified;
                units.push_back(unitOf(csprintf("twd/%uK", paper.kb),
                                       uni, TrialPlan::one(7, true)));
            }

            spec.sim = SimKind::TraceDriven;
            spec.c2k.cache = cache;
            units.push_back(unitOf(csprintf("c2k/%uK", paper.kb),
                                   spec, TrialPlan::one(7, true)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        unsigned only_kb = onlyKb();
        double tw_refs = 0.0, tw_secs = 0.0;
        double twd_refs = 0.0, twd_secs = 0.0;
        double c2k_refs = 0.0, c2k_secs = 0.0;
        double sample_refs_sim = 0.0, sample_refs_total = 0.0;
        double sample_ci = 0.0;
        TextTable t({"size", "missRatio", "c2000.slow", "tw.slow",
                     "paper.miss", "paper.c2000", "paper.tw"});
        for (const auto &paper : kPaper) {
            if (only_kb != 0 && paper.kb != only_kb)
                continue;
            const RunOutcome &trap =
                ctx.outcome(csprintf("tw/%uK", paper.kb));
            const RunOutcome &trace =
                ctx.outcome(csprintf("c2k/%uK", paper.kb));

            // A sampled run's simulated-work figure is the refs it
            // actually replayed, not the budget it estimated for.
            tw_refs += trap.sample.used
                           ? static_cast<double>(
                                 trap.sample.refsSimulated)
                           : static_cast<double>(
                                 trap.run.totalInstr()
                                 + trap.run.dataRefs);
            tw_secs += trap.hostSeconds;
            if (trap.sample.used) {
                sample_refs_sim += static_cast<double>(
                    trap.sample.refsSimulated);
                sample_refs_total += static_cast<double>(
                    trap.sample.refsTotal);
                sample_ci += trap.sample.ciHalfWidth;
            }
            if (ctx.reportRequested()) {
                ctx.metric(csprintf("tw_refs_per_sec_%uK", paper.kb),
                           refsPerSec(trap));
            }
            c2k_refs += static_cast<double>(trace.run.totalInstr()
                                            + trace.run.dataRefs);
            c2k_secs += trace.hostSeconds;
            if (wantDcache()) {
                const RunOutcome &uni =
                    ctx.outcome(csprintf("twd/%uK", paper.kb));
                twd_refs += static_cast<double>(uni.run.totalInstr()
                                                + uni.run.dataRefs);
                twd_secs += uni.hostSeconds;
            }

            t.addRow({
                csprintf("%uK", paper.kb),
                fmtF(trap.missRatioUser(), 3),
                fmtF(trace.slowdown, 1),
                fmtF(trap.slowdown, 2),
                fmtF(paper.missRatio, 3),
                fmtF(paper.c2000, 1),
                fmtF(paper.tapeworm, 2),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: Tapeworm slowdown tracks the miss "
                  "ratio toward zero; Cache2000 floor ~22x; Tapeworm "
                  "wins ~3x even at the 1K cache.\n");
        if (ctx.reportRequested()) {
            double rate = tw_secs > 0.0 ? tw_refs / tw_secs : 0.0;
            ctx.print("[report] tapeworm host rate: %.3fM refs/s "
                      "(%.0f refs in %.3fs host)\n", rate / 1.0e6,
                      tw_refs, tw_secs);
            ctx.metric("tw_refs_per_sec", rate);
            ctx.metric("tw_host_seconds", tw_secs);
            if (wantDcache()) {
                double drate =
                    twd_secs > 0.0 ? twd_refs / twd_secs : 0.0;
                ctx.print("[report] tapeworm unified (chunked loop) "
                          "host rate: %.3fM refs/s\n", drate / 1.0e6);
                ctx.metric("twd_refs_per_sec", drate);
                ctx.metric("twd_host_seconds", twd_secs);
            }
            // The trace-driven comparator end to end: Pixie's
            // annotated run plus Cache2000, per machine reference.
            double crate = c2k_secs > 0.0 ? c2k_refs / c2k_secs : 0.0;
            ctx.print("[report] pixie+cache2000 (observed loop) host "
                      "rate: %.3fM refs/s\n", crate / 1.0e6);
            ctx.metric("c2k_refs_per_sec", crate);
            ctx.metric("c2k_host_seconds", c2k_secs);
            ctx.note("simd", simd::levelName(simd::activeLevel()));
        }
        if (sample_refs_total > 0.0) {
            ctx.metric("sample_refs_simulated", sample_refs_sim);
            ctx.metric("sample_refs_total", sample_refs_total);
            ctx.metric("sample_ci_half_total", sample_ci);
        }
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
