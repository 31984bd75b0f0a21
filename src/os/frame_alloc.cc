#include "os/frame_alloc.hh"

#include "base/logging.hh"

namespace tw
{

FrameAllocator::FrameAllocator(std::uint64_t num_frames,
                               std::uint64_t reserved_frames,
                               AllocPolicy policy, std::uint64_t seed,
                               std::uint64_t color_mask)
    : numFrames_(num_frames), reserved_(reserved_frames),
      policy_(policy), rng_(seed), colorMask_(color_mask),
      allocated_(num_frames, false)
{
    TW_ASSERT(reserved_frames < num_frames,
              "reservation leaves no usable memory");
    if (policy == AllocPolicy::Random) {
        pool_.reserve(num_frames - reserved_frames);
        for (std::uint64_t f = reserved_frames; f < num_frames; ++f)
            pool_.push_back(static_cast<Pfn>(f));
    } else {
        for (std::uint64_t f = reserved_frames; f < num_frames; ++f)
            ordered_.insert(static_cast<Pfn>(f));
    }
}

std::optional<Pfn>
FrameAllocator::alloc(Vpn vpn)
{
    Pfn pfn = kNoFrame;
    switch (policy_) {
      case AllocPolicy::Random: {
        if (pool_.empty())
            return std::nullopt;
        std::size_t i =
            static_cast<std::size_t>(rng_.below(pool_.size()));
        pfn = pool_[i];
        pool_[i] = pool_.back();
        pool_.pop_back();
        break;
      }
      case AllocPolicy::Sequential: {
        if (ordered_.empty())
            return std::nullopt;
        pfn = *ordered_.begin();
        ordered_.erase(ordered_.begin());
        break;
      }
      case AllocPolicy::Coloring: {
        if (ordered_.empty())
            return std::nullopt;
        // Prefer a frame whose index bits match the page's virtual
        // color; fall back to the lowest free frame.
        std::uint64_t want = vpn & colorMask_;
        pfn = kNoFrame;
        for (Pfn f : ordered_) {
            if ((static_cast<std::uint64_t>(f) & colorMask_) == want) {
                pfn = f;
                break;
            }
        }
        if (pfn == kNoFrame)
            pfn = *ordered_.begin();
        ordered_.erase(pfn);
        break;
      }
    }
    allocated_[static_cast<std::size_t>(pfn)] = true;
    return pfn;
}

void
FrameAllocator::free(Pfn pfn)
{
    TW_ASSERT(pfn >= 0 && static_cast<std::uint64_t>(pfn) < numFrames_,
              "freeing bad frame %d", pfn);
    TW_ASSERT(allocated_[static_cast<std::size_t>(pfn)],
              "double free of frame %d", pfn);
    allocated_[static_cast<std::size_t>(pfn)] = false;
    if (policy_ == AllocPolicy::Random)
        pool_.push_back(pfn);
    else
        ordered_.insert(pfn);
}

std::uint64_t
FrameAllocator::freeCount() const
{
    return policy_ == AllocPolicy::Random ? pool_.size()
                                          : ordered_.size();
}

bool
FrameAllocator::isAllocated(Pfn pfn) const
{
    return allocated_[static_cast<std::size_t>(pfn)];
}

} // namespace tw
