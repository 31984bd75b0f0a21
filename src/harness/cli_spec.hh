/**
 * @file
 * The hand-built sweep of the command-line tools: the flags twsim
 * and twctl share, and the one RunSpec they describe, so both tools
 * build the same spec from the same words.
 *
 * Numeric flags are strict (base/env.hh): "--line 16x",
 * "--assoc abc" or "--trials -1" is fatal at once, never a numeric
 * prefix or a zero that dies later with a misleading message.
 */

#ifndef TW_HARNESS_CLI_SPEC_HH
#define TW_HARNESS_CLI_SPEC_HH

#include <cstdint>
#include <string>

#include "harness/runner.hh"

namespace tw
{

/** The spec-shaping flags of twsim and twctl, with their defaults. */
struct SweepFlags
{
    std::string workload = "mpeg_play";      //!< --workload
    std::uint64_t cacheBytes = 4096;         //!< --cache
    unsigned line = 16;                      //!< --line
    unsigned assoc = 1;                      //!< --assoc
    Indexing indexing = Indexing::Physical;  //!< --indexing
    std::string policy;                      //!< --policy (empty: default)
    std::string sim = "tapeworm";            //!< --sim
    std::string kind = "instruction";        //!< --kind
    std::string scope = "all";               //!< --scope
    unsigned sample = 1;                     //!< --sample (1/N of sets)
    CostBackendConfig costBackend;           //!< --cost-backend
    unsigned tlbEntries = 64;                //!< --tlb-entries
    std::uint64_t tlbPage = 4096;            //!< --tlb-page
    unsigned scale = envScaleDiv(200);       //!< --scale
    bool scaleSet = false;                   //!< --scale was given
    unsigned trials = 1;                     //!< --trials
    std::uint64_t seed = 1;                  //!< --seed

    /**
     * If argv[@p i] is one of the flags above, read its value from
     * argv[@p i + 1], leave @p i on the value and return true; false
     * for any other argument. A missing or malformed value is fatal.
     */
    bool take(int argc, char **argv, int &i);

    /** The spec the flags describe (fatal on an unknown name). */
    RunSpec spec() const;
};

/** A size such as "4096", "4K" or "1M" (fatal below 64 bytes). */
std::uint64_t parseSize(const std::string &text);

} // namespace tw

#endif // TW_HARNESS_CLI_SPEC_HH
