#include "core/cost/cost_backend.hh"

#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "base/env.hh"
#include "base/logging.hh"
#include "core/cost/dram_backend.hh"
#include "obs/metrics.hh"

namespace tw
{

CostBackend::~CostBackend()
{
    static obs::Counter events =
        obs::registry().counter("engine.cost.events");
    static obs::Counter cycles =
        obs::registry().counter("engine.cost.cycles");
    events.add(events_);
    cycles.add(cycles_);
}

Cycles
Table5Backend::compute(const MissEvent &ev)
{
    if (ev.kind == MissKind::Tlb)
        return model_.tlbMissCycles;
    std::uint64_t key = (static_cast<std::uint64_t>(ev.assoc) << 40)
                        | (static_cast<std::uint64_t>(
                               ev.granulesPerLine)
                           << 20)
                        | ev.extraInstr;
    if (key == lastKey_)
        return lastCycles_;
    lastKey_ = key;
    lastCycles_ = static_cast<Cycles>(std::llround(
        (model_.missInstructions(ev.assoc, ev.granulesPerLine)
         + ev.extraInstr)
        * model_.cyclesPerInstr));
    return lastCycles_;
}

bool
CostBackendConfig::operator==(const CostBackendConfig &o) const
{
    if (kind != o.kind)
        return false;
    // Dram params only participate when they are live; table5/ideal
    // configs with stale dram edits still compare (and serialize)
    // equal.
    if (kind == CostBackendKind::Dram)
        return dram == o.dram;
    return true;
}

std::unique_ptr<CostBackend>
makeCostBackend(const CostBackendConfig &cfg,
                const TrapCostModel &table5)
{
    switch (cfg.kind) {
      case CostBackendKind::Table5:
        return std::make_unique<Table5Backend>(table5, "table5");
      case CostBackendKind::Ideal: {
        TrapCostModel ideal = TrapCostModel::idealHardware();
        ideal.tlbMissCycles = table5.tlbMissCycles;
        return std::make_unique<Table5Backend>(ideal, "ideal");
      }
      case CostBackendKind::Dram:
        return std::make_unique<DramBackend>(cfg.dram, table5);
    }
    panic("unknown cost backend kind %d", static_cast<int>(cfg.kind));
}

bool
parseCostBackendSpec(const std::string &text, CostBackendConfig &out,
                     std::string &err)
{
    std::string name = text;
    std::string params;
    auto colon = text.find(':');
    if (colon != std::string::npos) {
        name = text.substr(0, colon);
        params = text.substr(colon + 1);
    }
    CostBackendConfig cfg;
    if (!enumFromName(name, cfg.kind)) {
        err = csprintf("cost backend: unknown name '%s' (expected "
                       "table5, ideal or dram)",
                       name.c_str());
        return false;
    }
    if (!params.empty() && cfg.kind != CostBackendKind::Dram) {
        err = csprintf("cost backend: '%s' takes no parameters",
                       name.c_str());
        return false;
    }
    std::size_t pos = 0;
    while (pos < params.size()) {
        auto comma = params.find(',', pos);
        if (comma == std::string::npos)
            comma = params.size();
        std::string kv = params.substr(pos, comma - pos);
        pos = comma + 1;
        auto eq = kv.find('=');
        if (eq == std::string::npos) {
            err = csprintf("cost backend: expected k=v, got '%s'",
                           kv.c_str());
            return false;
        }
        std::string key = kv.substr(0, eq);
        std::string value = kv.substr(eq + 1);
        bool known = false;
        bool good = false;
        auto set = [&](const char *name, auto &field) {
            if (key != name)
                return;
            using Field = std::remove_reference_t<decltype(field)>;
            std::uint64_t v = 0;
            known = true;
            good = parseDecimal(value.c_str(),
                                std::numeric_limits<Field>::max(), v);
            if (good)
                field = static_cast<Field>(v);
        };
        fields(set, cfg.dram);
        if (!known) {
            err = csprintf("cost backend: unknown dram key '%s'",
                           key.c_str());
            return false;
        }
        if (!good) {
            err = csprintf("cost backend: bad value '%s' for '%s' (want "
                           "a plain decimal that fits the field)",
                           value.c_str(), key.c_str());
            return false;
        }
    }
    if (cfg.kind == CostBackendKind::Dram) {
        if (cfg.dram.totalBanks() == 0 || cfg.dram.rowBytes == 0) {
            err = "cost backend: dram needs at least one bank and a "
                  "non-zero row size";
            return false;
        }
    }
    out = cfg;
    return true;
}

std::string
formatCostBackendSpec(const CostBackendConfig &cfg)
{
    std::string s = costBackendKindName(cfg.kind);
    if (cfg.kind != CostBackendKind::Dram)
        return s;
    // Defaults in field-list order, then the fields that differ.
    std::vector<std::uint64_t> defaults;
    auto collect = [&defaults](const char *, std::uint64_t field) {
        defaults.push_back(field);
    };
    const DramTimingParams def;
    fields(collect, def);
    std::string params;
    std::size_t i = 0;
    auto add = [&](const char *k, std::uint64_t field) {
        if (field == defaults[i++])
            return;
        if (!params.empty())
            params += ',';
        params += csprintf("%s=%llu", k,
                           static_cast<unsigned long long>(field));
    };
    fields(add, cfg.dram);
    if (!params.empty())
        s += ':' + params;
    return s;
}

} // namespace tw
