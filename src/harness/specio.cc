#include "harness/specio.hh"

#include <array>
#include <cmath>
#include <cstdarg>
#include <limits>
#include <type_traits>
#include <vector>

#include "base/fields.hh"
#include "base/logging.hh"

namespace tw
{

namespace
{

// ---------------------------------------------------------------
// Field lists, innermost first (see base/fields.hh and the file
// comment of specio.hh). Besides v(key, member) they use two verbs:
//
//  - v.version(key, n): a version stamp, emitted as n; a parse that
//    reads anything else fails;
//  - v.optional(key, block, present): a block emitted only when
//    `present`, so a spec that leaves it off keeps every byte (cache
//    key, shard owner) of the schema from before the block existed.
//    A parse that finds no such key resets the block to its default;
//    when `present` is a bool member, a parse that finds the block
//    sets it.
//
// DramTimingParams's list lives in core/cost/cost_backend.hh.
// ---------------------------------------------------------------

template <typename V, typename S>
    requires FieldsOf<S, LoopLevel>
void
fields(V &v, S &l)
{
    v("spanBytes", l.spanBytes);
    v("meanReps", l.meanReps);
}

template <typename V, typename S>
    requires FieldsOf<S, StreamParams>
void
fields(V &v, S &p)
{
    v("base", p.base);
    v("textBytes", p.textBytes);
    v("ladder", p.ladder);
    v("excursionProb", p.excursionProb);
    v("excursionWords", p.excursionWords);
    v("seed", p.seed);
}

template <typename V, typename S>
    requires FieldsOf<S, WorkloadSpec>
void
fields(V &v, S &w)
{
    v("name", w.name);
    v("totalInstr", w.totalInstr);
    v("fracKernel", w.fracKernel);
    v("fracBsd", w.fracBsd);
    v("fracX", w.fracX);
    v("fracUser", w.fracUser);
    v("taskCount", w.taskCount);
    v("concurrency", w.concurrency);
    v("binaries", w.binaries);
    v("binaryData", w.binaryData);
    v("kernelText", w.kernelText);
    v("bsdText", w.bsdText);
    v("xText", w.xText);
    v("kernelData", w.kernelData);
    v("bsdData", w.bsdData);
    v("xData", w.xData);
    v("dataRefsPer1k", w.dataRefsPer1k);
    v("storeEvery", w.storeEvery);
    v("syscallsPer1k", w.syscallsPer1k);
    v("bsdProb", w.bsdProb);
    v("xProb", w.xProb);
}

template <typename V, typename S>
    requires FieldsOf<S, SimScope>
void
fields(V &v, S &s)
{
    v("user", s.user);
    v("servers", s.servers);
    v("kernel", s.kernel);
}

template <typename V, typename S>
    requires FieldsOf<S, SystemConfig>
void
fields(V &v, S &s)
{
    v("physMemBytes", s.physMemBytes);
    v("allocPolicy", s.allocPolicy);
    v("reservedFrames", s.reservedFrames);
    v("cpiBase", s.cpiBase);
    v("clockInterval", s.clockInterval);
    v("clockJitter", s.clockJitter);
    v("tickHandlerInstr", s.tickHandlerInstr);
    v("quantumInstr", s.quantumInstr);
    v("dmaFlushPeriod", s.dmaFlushPeriod);
    v("forkKernelInstr", s.forkKernelInstr);
    v("faultKernelCycles", s.faultKernelCycles);
    v("maskedSyscallPrefix", s.maskedSyscallPrefix);
    v("trialSeed", s.trialSeed);
    v("scope", s.scope);
}

template <typename V, typename S>
    requires FieldsOf<S, CacheConfig>
void
fields(V &v, S &c)
{
    v("name", c.name);
    v("sizeBytes", c.sizeBytes);
    v("lineBytes", c.lineBytes);
    v("assoc", c.assoc);
    v("indexing", c.indexing);
    v("tagIncludesTask", c.tagIncludesTask);
    v("policy", c.policy);
    v("seed", c.seed);
}

template <typename V, typename S>
    requires FieldsOf<S, TrapCostModel>
void
fields(V &v, S &c)
{
    v("kernelTrapReturn", c.kernelTrapReturn);
    v("twCacheMiss", c.twCacheMiss);
    v("twReplaceBase", c.twReplaceBase);
    v("twReplacePerWay", c.twReplacePerWay);
    v("twSetTrapBase", c.twSetTrapBase);
    v("twSetTrapPerGranule", c.twSetTrapPerGranule);
    v("twClearTrapBase", c.twClearTrapBase);
    v("twClearTrapPerGranule", c.twClearTrapPerGranule);
    v("cyclesPerInstr", c.cyclesPerInstr);
    v("tlbMissCycles", c.tlbMissCycles);
}

template <typename V, typename S>
    requires FieldsOf<S, CostBackendConfig>
void
fields(V &v, S &c)
{
    v.version("v", 1);
    v("backend", c.kind);
    // The dram block exists only on the dram backend (a parse has
    // read "backend" into c.kind by now).
    if (c.kind == CostBackendKind::Dram)
        v("dram", c.dram);
}

template <typename V, typename S>
    requires FieldsOf<S, TapewormConfig>
void
fields(V &v, S &t)
{
    v("cache", t.cache);
    v("kind", t.kind);
    v("hostWrite", t.hostWrite);
    v("sampleNum", t.sampleNum);
    v("sampleDenom", t.sampleDenom);
    v("sampleSeed", t.sampleSeed);
    v("sampleMode", t.sampleMode);
    v("compensateMasked", t.compensateMasked);
    v("chargeCost", t.chargeCost);
    v("cost", t.cost);
    v.optional("costBackend", t.costBackend, !t.costBackend.isDefault());
}

template <typename V, typename S>
    requires FieldsOf<S, TapewormTlbConfig>
void
fields(V &v, S &t)
{
    v("tlb", t.tlb);
    v("chargeCost", t.chargeCost);
    v("compensateMasked", t.compensateMasked);
    v("cost", t.cost);
    v("filterFrames", t.filterFrames);
    v.optional("costBackend", t.costBackend, !t.costBackend.isDefault());
}

template <typename V, typename S>
    requires FieldsOf<S, Cache2000Config>
void
fields(V &v, S &c)
{
    v("cache", c.cache);
    v("hitCycles", c.hitCycles);
    v("missExtraCycles", c.missExtraCycles);
    v("sampleNum", c.sampleNum);
    v("sampleDenom", c.sampleDenom);
    v("sampleSeed", c.sampleSeed);
    v("filterCycles", c.filterCycles);
}

template <typename V, typename S>
    requires FieldsOf<S, PixieConfig>
void
fields(V &v, S &p)
{
    v("genCycles", p.genCycles);
}

template <typename V, typename S>
    requires FieldsOf<S, SampleConfig>
void
fields(V &v, S &s)
{
    v("enabled", s.enabled);
    v("intervalRefs", s.intervalRefs);
    v("warmupRefs", s.warmupRefs);
    v("clusters", s.clusters);
    v("perCluster", s.perCluster);
    v("seed", s.seed);
    v("ciRelFloor", s.ciRelFloor);
}

template <typename V, typename S>
    requires FieldsOf<S, RunSpec>
void
fields(V &v, S &s)
{
    v.version("v", 1);
    v("workload", s.workload);
    v("sys", s.sys);
    v("sim", s.sim);
    v("tw", s.tw);
    v("tlb", s.tlb);
    v("c2k", s.c2k);
    v("pixie", s.pixie);
    v("traceTarget", s.traceTarget);
    v.optional("sample", s.sample, s.sample.enabled);
}

template <typename V, typename S>
    requires FieldsOf<S, RunResult>
void
fields(V &v, S &r)
{
    v("cycles", r.cycles);
    v("instr", r.instr);
    v("ticks", r.ticks);
    v("dataRefs", r.dataRefs);
    v("syscalls", r.syscalls);
    v("forks", r.forks);
    v("faults", r.faults);
    v("dmaFlushes", r.dmaFlushes);
    v("tasksCreated", r.tasksCreated);
}

// SampleOutcome::used is the presence of the block, not a field.
template <typename V, typename S>
    requires FieldsOf<S, SampleOutcome>
void
fields(V &v, S &s)
{
    v("intervalsTotal", s.intervalsTotal);
    v("intervalsSimulated", s.intervalsSimulated);
    v("refsSimulated", s.refsSimulated);
    v("refsTotal", s.refsTotal);
    v("ciHalfWidth", s.ciHalfWidth);
}

// hostSeconds is deliberately absent: see specio.hh.
template <typename V, typename S>
    requires FieldsOf<S, RunOutcome>
void
fields(V &v, S &o)
{
    v("run", o.run);
    v("rawMisses", o.rawMisses);
    v("estMisses", o.estMisses);
    v("missesByComp", o.missesByComp);
    v("maskedTrapRefs", o.maskedTrapRefs);
    v("lostMaskedMisses", o.lostMaskedMisses);
    v("slowdown", o.slowdown);
    v("normalCycles", o.normalCycles);
    v.optional("sample", o.sample, o.sample.used);
}

// ---------------------------------------------------------------
// The two visitors. A field's C++ type picks its JSON form: bool,
// enum (its name table), unsigned or signed integer (decimal, never
// through a double), double (%.17g), string, std::vector (array of
// any length), std::array (array of exactly N) or a struct with a
// field list (object).
// ---------------------------------------------------------------

template <typename T>
struct IsVector : std::false_type
{
};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type
{
};

template <typename T>
struct IsStdArray : std::false_type
{
};
template <typename T, std::size_t N>
struct IsStdArray<std::array<T, N>> : std::true_type
{
};

template <typename T>
Json toJson(const T &value);

/** Writes a struct as an insertion-ordered Json object. */
class Emit
{
  public:
    Json out = Json::object();

    template <typename T>
    void
    operator()(const char *key, const T &field)
    {
        out.set(key, toJson(field));
    }

    void
    version(const char *key, unsigned n)
    {
        out.set(key, Json::number(n));
    }

    template <typename T>
    void
    optional(const char *key, const T &block, bool present)
    {
        if (present)
            (*this)(key, block);
    }
};

template <typename T>
Json
toJson(const T &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        return Json::boolean(value);
    } else if constexpr (std::is_enum_v<T>) {
        return Json::str(enumName(value));
    } else if constexpr (std::is_unsigned_v<T>) {
        return Json::number(static_cast<std::uint64_t>(value));
    } else if constexpr (std::is_integral_v<T>) {
        return Json::number(static_cast<std::int64_t>(value));
    } else if constexpr (std::is_floating_point_v<T>) {
        return Json::number(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return Json::str(value);
    } else if constexpr (IsVector<T>::value || IsStdArray<T>::value) {
        Json arr = Json::array();
        for (const auto &e : value)
            arr.push(toJson(e));
        return arr;
    } else {
        Emit e;
        fields(e, value);
        return std::move(e.out);
    }
}

/** Where a value sits in the document: a chain of keys and array
 *  indices, spelled out only when an error names it. */
struct Where
{
    const Where *parent = nullptr;
    const char *key = nullptr; //!< null: element `index` of an array
    std::size_t index = 0;
};

std::string
spell(const Where *at)
{
    if (!at)
        return "";
    std::string s = spell(at->parent);
    if (!at->key)
        return s + csprintf("[%zu]", at->index);
    if (!s.empty())
        s += '.';
    return s + at->key;
}

/** One strict parse: the first failure latches into err. */
struct ReadState
{
    const char *what; //!< "RunSpec" / "RunOutcome"
    std::string &err;
    bool ok = true;

    void
    fail(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        if (!ok)
            return;
        ok = false;
        std::va_list args;
        va_start(args, fmt);
        err = std::string(what) + ": " + vcsprintf(fmt, args);
        va_end(args);
    }
};

template <typename T>
void fromJson(const Json &j, const Where *at, ReadState &st, T &out);

/**
 * Fills a struct from one Json object: every field is required
 * (optional blocks aside) and every member must be some field's.
 */
class Read
{
  public:
    Read(const Json &obj, const Where *at, ReadState &st)
        : obj_(obj), at_(at), st_(st)
    {
    }

    template <typename T>
    void
    operator()(const char *key, T &field)
    {
        Where w{at_, key};
        const Json *j = take(key);
        if (j)
            fromJson(*j, &w, st_, field);
        else if (st_.ok)
            st_.fail("missing field '%s'", spell(&w).c_str());
    }

    void
    version(const char *key, unsigned n)
    {
        std::uint64_t got = n;
        (*this)(key, got);
        if (st_.ok && got != n) {
            Where w{at_, key};
            st_.fail("unsupported version %llu in '%s'",
                     static_cast<unsigned long long>(got),
                     spell(&w).c_str());
        }
    }

    template <typename T, typename P>
    void
    optional(const char *key, T &block, P &&present)
    {
        const Json *j = take(key);
        if (!st_.ok)
            return;
        if (!j) {
            block = T{};
            return;
        }
        if constexpr (std::is_same_v<P, bool &>)
            present = true;
        Where w{at_, key};
        fromJson(*j, &w, st_, block);
    }

    /** Fail on a member no field consumed (an unknown field). */
    void
    finish()
    {
        if (!st_.ok)
            return;
        for (const auto &[k, v] : obj_.members()) {
            bool seen = false;
            for (std::size_t i = 0; i < consumed_.size() && !seen; ++i)
                seen = k == consumed_[i];
            if (!seen) {
                Where w{at_, k.c_str()};
                st_.fail("unknown field '%s'", spell(&w).c_str());
                return;
            }
        }
    }

  private:
    const Json *
    take(const char *key)
    {
        if (!st_.ok)
            return nullptr;
        consumed_.push_back(key);
        return obj_.find(key);
    }

    const Json &obj_;
    const Where *at_;
    ReadState &st_;
    std::vector<const char *> consumed_;
};

template <typename T>
void
fromJson(const Json &j, const Where *at, ReadState &st, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (!j.isBool())
            return st.fail("field '%s' is not a boolean",
                           spell(at).c_str());
        out = j.asBool();
    } else if constexpr (std::is_enum_v<T>) {
        if (!j.isString())
            return st.fail("field '%s' is not a string",
                           spell(at).c_str());
        if (!enumFromName(j.asString(), out))
            return st.fail("bad value '%s' for '%s'",
                           j.asString().c_str(), spell(at).c_str());
    } else if constexpr (std::is_unsigned_v<T>) {
        std::uint64_t v = 0;
        if (!j.toUnsigned(std::numeric_limits<T>::max(), v))
            return st.fail(
                "field '%s' is not an integer in 0..%llu (got %s)",
                spell(at).c_str(),
                static_cast<unsigned long long>(
                    std::numeric_limits<T>::max()),
                j.dump().c_str());
        out = static_cast<T>(v);
    } else if constexpr (std::is_integral_v<T>) {
        std::int64_t v = 0;
        if (!j.toSigned(std::numeric_limits<T>::min(),
                        std::numeric_limits<T>::max(), v))
            return st.fail(
                "field '%s' is not an integer in %lld..%lld (got %s)",
                spell(at).c_str(),
                static_cast<long long>(std::numeric_limits<T>::min()),
                static_cast<long long>(std::numeric_limits<T>::max()),
                j.dump().c_str());
        out = static_cast<T>(v);
    } else if constexpr (std::is_floating_point_v<T>) {
        double v = j.asDouble();
        if (!j.isNumber() || !std::isfinite(v))
            return st.fail("field '%s' is not a finite number",
                           spell(at).c_str());
        out = v;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!j.isString())
            return st.fail("field '%s' is not a string",
                           spell(at).c_str());
        out = j.asString();
    } else if constexpr (IsVector<T>::value) {
        if (!j.isArray())
            return st.fail("field '%s' is not an array",
                           spell(at).c_str());
        out.clear();
        for (std::size_t i = 0; i < j.size() && st.ok; ++i) {
            Where w{at, nullptr, i};
            typename T::value_type e{};
            fromJson(j.at(i), &w, st, e);
            out.push_back(std::move(e));
        }
    } else if constexpr (IsStdArray<T>::value) {
        if (!j.isArray() || j.size() != out.size())
            return st.fail("field '%s' must be an array of %zu",
                           spell(at).c_str(), out.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            Where w{at, nullptr, i};
            fromJson(j.at(i), &w, st, out[i]);
        }
    } else {
        if (!j.isObject())
            return at ? st.fail("field '%s' is not a JSON object",
                                spell(at).c_str())
                      : st.fail("not a JSON object");
        Read r(j, at, st);
        fields(r, out);
        r.finish();
    }
}

template <typename T>
bool
readDocument(const Json &j, const char *what, T &out, std::string &err)
{
    ReadState st{what, err};
    fromJson(j, nullptr, st, out);
    return st.ok;
}

} // anonymous namespace

const char *
simKindName(SimKind k)
{
    return enumName(k);
}

bool
simKindFromName(const std::string &name, SimKind &out)
{
    return enumFromName(name, out);
}

Json
specToJson(const RunSpec &spec)
{
    return toJson(spec);
}

std::string
formatRunSpec(const RunSpec &spec)
{
    return specToJson(spec).dump();
}

bool
specFromJson(const Json &j, RunSpec &out, std::string &err)
{
    return readDocument(j, "RunSpec", out, err);
}

bool
parseRunSpec(const std::string &text, RunSpec &out, std::string &err)
{
    Json j;
    if (!Json::parse(text, j, &err))
        return false;
    return specFromJson(j, out, err);
}

Json
outcomeToJson(const RunOutcome &o)
{
    return toJson(o);
}

std::string
formatRunOutcome(const RunOutcome &o)
{
    return outcomeToJson(o).dump();
}

bool
outcomeFromJson(const Json &j, RunOutcome &out, std::string &err)
{
    bool ok = readDocument(j, "RunOutcome", out, err);
    out.hostSeconds = 0.0;
    return ok;
}

bool
parseRunOutcome(const std::string &text, RunOutcome &out,
                std::string &err)
{
    Json j;
    if (!Json::parse(text, j, &err))
        return false;
    return outcomeFromJson(j, out, err);
}

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
cacheKey(const RunSpec &spec, std::uint64_t trial_seed,
         bool with_slowdown)
{
    // Runner::runOne overwrites sys.trialSeed with the per-trial
    // seed, so normalize it out of the key (see specio.hh).
    std::string text;
    if (spec.sys.trialSeed == 0) {
        text = formatRunSpec(spec);
    } else {
        RunSpec normal = spec;
        normal.sys.trialSeed = 0;
        text = formatRunSpec(normal);
    }
    text += '#';
    text += std::to_string(trial_seed);
    text += '#';
    text += with_slowdown ? '1' : '0';
    return text;
}

std::uint64_t
specFingerprint(const RunSpec &spec, std::uint64_t trial_seed,
                bool with_slowdown)
{
    return fnv1a64(cacheKey(spec, trial_seed, with_slowdown));
}

} // namespace tw
