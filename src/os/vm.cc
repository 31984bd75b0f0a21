#include "os/vm.hh"

#include <algorithm>

#include "base/logging.hh"

namespace tw
{

Vm::Vm(std::uint64_t num_frames, AllocPolicy policy, std::uint64_t seed,
       std::uint64_t reserved_frames, std::uint64_t color_mask)
    : alloc_(num_frames, reserved_frames, policy, seed, color_mask),
      frames_(num_frames)
{
}

Pfn
Vm::fault(Task &task, Vpn vpn)
{
    TW_ASSERT(task.stream != nullptr, "fault from a streamless task");
    ++stats_.faults;

    // Text pages of the same program image are shared between
    // tasks; data pages are always private.
    Addr image_key = task.stream->textBase();
    Vpn text_first = task.stream->textBase() / kHostPageBytes;
    Vpn text_end = (task.stream->textBase() + task.stream->textBytes()
                    + kHostPageBytes - 1)
                   / kHostPageBytes;
    bool text_page = vpn >= text_first && vpn < text_end;
    auto &image = images_[image_key];

    Pfn pfn;
    auto it = text_page ? image.find(vpn) : image.end();
    if (it != image.end()) {
        // Another task already faulted this text page in: share the
        // frame (same binary, same virtual page).
        pfn = it->second;
        ++stats_.sharedMaps;
    } else {
        auto got = alloc_.alloc(vpn);
        if (!got) {
            fatal("out of physical memory (task %s, vpn %llu)",
                  task.name.c_str(),
                  static_cast<unsigned long long>(vpn));
        }
        pfn = *got;
        if (text_page)
            image.emplace(vpn, pfn);
        inUseOrder_.push_back(pfn);
    }

    task.pageTable.map(vpn, pfn);
    FrameInfo &info = frames_[static_cast<std::size_t>(pfn)];
    ++info.refs;

    if (task.attr.simulate) {
        // The paper's tw_register_page(): on a shared frame
        // Tapeworm only bumps its reference count and sets no new
        // traps, so the client is told whether registered mappings
        // already exist.
        bool shared = info.simRefs > 0;
        ++info.simRefs;
        if (client_)
            client_->onPageMapped(task, vpn, pfn, shared);
    }
    return pfn;
}

void
Vm::removeTask(Task &task)
{
    TW_ASSERT(!task.exited, "double removeTask of %s",
              task.name.c_str());
    Addr image_key =
        task.stream ? task.stream->textBase() : kInvalidAddr;

    for (auto [vpn, pfn] : task.pageTable.mappings()) {
        task.pageTable.unmap(vpn);
        FrameInfo &info = frames_[static_cast<std::size_t>(pfn)];
        TW_ASSERT(info.refs > 0, "frame %d refcount underflow", pfn);

        if (task.attr.simulate) {
            TW_ASSERT(info.simRefs > 0,
                      "frame %d sim refcount underflow", pfn);
            --info.simRefs;
            if (client_) {
                client_->onPageRemoved(task, vpn, pfn,
                                       info.simRefs == 0);
            }
        }

        if (--info.refs == 0) {
            auto img = images_.find(image_key);
            if (img != images_.end())
                img->second.erase(vpn);
            alloc_.free(pfn);
            ++stats_.framesFreed;
        }
    }
    task.exited = true;
}

unsigned
Vm::simRefCount(Pfn pfn) const
{
    return frames_[static_cast<std::size_t>(pfn)].simRefs;
}

unsigned
Vm::refCount(Pfn pfn) const
{
    return frames_[static_cast<std::size_t>(pfn)].refs;
}

Pfn
Vm::dmaVictim(std::uint64_t k) const
{
    if (inUseOrder_.empty())
        return kNoFrame;
    // Probe from the k'th slot forward until a still-allocated
    // frame is found; the list only grows, so this is deterministic
    // for a given fault history.
    std::size_t n = inUseOrder_.size();
    for (std::size_t i = 0; i < n; ++i) {
        Pfn pfn = inUseOrder_[(k + i) % n];
        if (alloc_.isAllocated(pfn))
            return pfn;
    }
    return kNoFrame;
}

} // namespace tw
