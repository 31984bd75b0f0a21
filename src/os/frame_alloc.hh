/**
 * @file
 * Physical page frame allocation policies.
 *
 * Physical page placement is one of the paper's key sources of
 * run-to-run measurement variation (Table 9): "the distributions of
 * physical page frames allocated to a task, which change from run
 * to run, affect the sequence of addresses seen by a
 * physically-indexed cache". The Random policy models a free list
 * whose order differs per boot/trial; Sequential is the fully
 * deterministic contrast; Coloring implements Kessler-style page
 * coloring as a best-case baseline for the variance ablation.
 */

#ifndef TW_OS_FRAME_ALLOC_HH
#define TW_OS_FRAME_ALLOC_HH

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "base/enum_names.hh"
#include "base/random.hh"
#include "base/types.hh"
#include "os/page_table.hh"

namespace tw
{

/** How the VM system picks free frames. */
enum class AllocPolicy { Random, Sequential, Coloring };

inline constexpr EnumName<AllocPolicy> kAllocPolicyNames[] = {
    {AllocPolicy::Random, "random"},
    {AllocPolicy::Sequential, "sequential"},
    {AllocPolicy::Coloring, "coloring"},
};
constexpr const auto &enumNames(AllocPolicy) { return kAllocPolicyNames; }

/** Human-readable policy name. */
inline const char *allocPolicyName(AllocPolicy p) { return enumName(p); }

/**
 * Free-frame pool with pluggable selection policy.
 */
class FrameAllocator
{
  public:
    /**
     * @param num_frames total physical frames.
     * @param reserved_frames low frames withheld at boot (kernel
     *        static data plus Tapeworm's 256 KB boot allocation,
     *        Section 4.2 "Sources of Measurement Bias").
     * @param policy selection policy.
     * @param seed trial seed for the Random policy.
     * @param color_mask set-index bits a Coloring allocator tries
     *        to match between vpn and pfn.
     */
    FrameAllocator(std::uint64_t num_frames,
                   std::uint64_t reserved_frames, AllocPolicy policy,
                   std::uint64_t seed, std::uint64_t color_mask = 0x7);

    /** Allocate a frame (vpn guides the Coloring policy). Returns
     *  std::nullopt when memory is exhausted. */
    std::optional<Pfn> alloc(Vpn vpn);

    /** Return a frame to the pool. */
    void free(Pfn pfn);

    std::uint64_t freeCount() const;
    std::uint64_t totalFrames() const { return numFrames_; }
    std::uint64_t reservedFrames() const { return reserved_; }

    /** Is the frame currently allocated? (testing) */
    bool isAllocated(Pfn pfn) const;

  private:
    std::uint64_t numFrames_;
    std::uint64_t reserved_;
    AllocPolicy policy_;
    Rng rng_;
    std::uint64_t colorMask_;

    // Random policy: unordered vector with swap-pop.
    std::vector<Pfn> pool_;
    // Sequential / Coloring: ordered set.
    std::set<Pfn> ordered_;
    std::vector<bool> allocated_;
};

} // namespace tw

#endif // TW_OS_FRAME_ALLOC_HH
