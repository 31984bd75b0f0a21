#include "harness/cli_spec.hh"

#include <climits>
#include <cstdlib>

#include "base/env.hh"
#include "base/logging.hh"

namespace tw
{

std::uint64_t
parseSize(const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end && (*end == 'K' || *end == 'k'))
        v *= 1024;
    else if (end && (*end == 'M' || *end == 'm'))
        v *= 1024 * 1024;
    if (v < 64)
        fatal("unparseable size '%s'", text.c_str());
    return static_cast<std::uint64_t>(v);
}

bool
SweepFlags::take(int argc, char **argv, int &i)
{
    const std::string flag = argv[i];
    auto value = [&]() -> const char * {
        if (i + 1 >= argc)
            fatal("%s needs a value", flag.c_str());
        return argv[++i];
    };
    auto u32 = [&](unsigned &out) {
        out = static_cast<unsigned>(
            decimalKnob(flag.c_str(), value(), UINT_MAX));
    };
    if (flag == "--workload") {
        workload = value();
    } else if (flag == "--cache") {
        cacheBytes = parseSize(value());
    } else if (flag == "--line") {
        u32(line);
    } else if (flag == "--assoc") {
        u32(assoc);
    } else if (flag == "--indexing") {
        const char *v = value();
        if (!enumFromName(v, indexing))
            fatal("bad indexing '%s'", v);
    } else if (flag == "--policy") {
        policy = value();
    } else if (flag == "--sim") {
        sim = value();
    } else if (flag == "--kind") {
        kind = value();
    } else if (flag == "--scope") {
        scope = value();
    } else if (flag == "--sample") {
        u32(sample);
    } else if (flag == "--cost-backend") {
        std::string err;
        if (!parseCostBackendSpec(value(), costBackend, err))
            fatal("--cost-backend: %s", err.c_str());
    } else if (flag == "--tlb-entries") {
        u32(tlbEntries);
    } else if (flag == "--tlb-page") {
        tlbPage = parseSize(value());
    } else if (flag == "--scale") {
        u32(scale);
        scaleSet = true;
    } else if (flag == "--trials") {
        u32(trials);
    } else if (flag == "--seed") {
        seed = decimalKnob(flag.c_str(), value(), UINT64_MAX);
    } else {
        return false;
    }
    return true;
}

RunSpec
SweepFlags::spec() const
{
    RunSpec spec;
    spec.workload = makeWorkload(workload, scale);
    spec.tw.cache = CacheConfig::icache(cacheBytes, line, assoc,
                                        indexing);
    spec.tw.costBackend = costBackend;
    spec.tlb.costBackend = costBackend;
    if (policy == "fifo")
        spec.tw.cache.policy = ReplPolicy::FIFO;
    else if (policy == "random")
        spec.tw.cache.policy = ReplPolicy::Random;
    else if (policy == "lru")
        spec.tw.cache.policy = ReplPolicy::LRU;
    else if (!policy.empty())
        fatal("bad policy '%s'", policy.c_str());

    if (!enumFromName(kind, spec.tw.kind))
        fatal("bad kind '%s'", kind.c_str());

    if (sim == "tapeworm") {
        spec.sim = SimKind::Tapeworm;
        if (spec.tw.cache.assoc > 1
            && spec.tw.cache.policy == ReplPolicy::LRU) {
            // Trap-driven simulation never sees hits: no recency.
            warn("trap-driven simulation cannot do LRU; using FIFO");
            spec.tw.cache.policy = ReplPolicy::FIFO;
        }
    } else if (sim == "trace") {
        spec.sim = SimKind::TraceDriven;
        spec.c2k.cache = spec.tw.cache;
        spec.c2k.cache.indexing = Indexing::Virtual;
        spec.c2k.sampleNum = 1;
        spec.c2k.sampleDenom = sample;
    } else if (sim == "tlb") {
        spec.sim = SimKind::TapewormTlbSim;
        spec.tlb.tlb = CacheConfig::tlb(
            tlbEntries, 0, static_cast<std::uint32_t>(tlbPage));
    } else if (sim == "oracle") {
        spec.sim = SimKind::Oracle;
    } else {
        fatal("bad sim '%s'", sim.c_str());
    }
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = sample;

    if (scope == "all")
        spec.sys.scope = SimScope::all();
    else if (scope == "user")
        spec.sys.scope = SimScope::userOnly();
    else if (scope == "servers")
        spec.sys.scope = SimScope::serversOnly();
    else if (scope == "kernel")
        spec.sys.scope = SimScope::kernelOnly();
    else
        fatal("bad scope '%s'", scope.c_str());
    return spec;
}

} // namespace tw
