#include "serve/plan.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "serve/wire.hh"

namespace tw
{
namespace serve
{

namespace
{

std::shared_ptr<const KeyedSpec>
keyed(RunSpec spec)
{
    auto k = std::make_shared<KeyedSpec>();
    k->keyText = keyText(spec);
    k->spec = std::move(spec);
    return k;
}

/** A sweep's "seeds": a non-empty array of plain decimal integers
 *  ("1.5", "-1" and "1e3" are refused, never truncated). */
bool
readSeeds(const Json &req, std::vector<std::uint64_t> &out,
          std::string &err)
{
    const Json *seeds = req.find("seeds");
    if (!seeds || !seeds->isArray() || seeds->size() == 0) {
        err = "seeds must be a non-empty array";
        return false;
    }
    out.assign(seeds->size(), 0);
    for (std::size_t i = 0; i < seeds->size(); ++i) {
        if (!seeds->at(i).toUnsigned(UINT64_MAX, out[i])) {
            err = "seeds must be non-negative integers";
            return false;
        }
    }
    return true;
}

/** Optional member @p key of @p obj into @p out: absent leaves
 *  @p out alone, present must be of @p out's kind — for an unsigned
 *  type a plain decimal no greater than @p max. @p who prefixes the
 *  error. */
template <typename T>
bool
readField(const Json &obj, const char *key, T &out, std::string &err,
          const char *who = "", std::uint64_t max = UINT64_MAX)
{
    const Json *j = obj.find(key);
    if (!j)
        return true;
    auto fail = [&](const std::string &want) {
        err = std::string(who) + key + " must be " + want;
        return false;
    };
    if constexpr (std::is_same_v<T, bool>) {
        if (!j->isBool())
            return fail("a bool");
        out = j->asBool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!j->isString())
            return fail("a string");
        out = j->asString();
    } else {
        constexpr std::uint64_t width = std::numeric_limits<T>::max();
        std::uint64_t v = 0;
        if (!j->toUnsigned(std::min(max, width), v))
            return fail(max < width ? "an integer in 0.." + std::to_string(max)
                                    : "a non-negative integer");
        out = static_cast<T>(v);
    }
    return true;
}

/** submit: one spec (canonical text or an object) over "seeds". */
bool
compileSubmit(const Json &req, Plan &out, std::string &err)
{
    const Json *specj = req.find("spec");
    if (!specj) {
        err = "missing spec";
        return false;
    }
    RunSpec spec;
    bool parsed;
    if (specj->isString()) {
        parsed = parseRunSpec(specj->asString(), spec, err);
    } else if (specj->isObject()) {
        parsed = specFromJson(*specj, spec, err);
    } else {
        err = "spec must be an object or canonical text";
        return false;
    }
    if (!parsed) {
        err = "bad spec: " + err;
        return false;
    }
    std::vector<std::uint64_t> seeds;
    bool slowdown = true;
    if (!readSeeds(req, seeds, err)
        || !readField(req, "slowdown", slowdown, err))
        return false;

    std::shared_ptr<const KeyedSpec> k = keyed(std::move(spec));
    out.trials.reserve(seeds.size());
    for (std::size_t t = 0; t < seeds.size(); ++t)
        out.trials.push_back({k, seeds[t], slowdown, "", t, t});
    return true;
}

/** run_experiment: the registry's job enumeration of "experiment". */
bool
compileExperiment(const Json &req, Plan &out, std::string &err)
{
    const Json *ej = req.find("experiment");
    if (!ej || !ej->isString()) {
        err = "missing experiment";
        return false;
    }
    const ExperimentDef *def =
        ExperimentRegistry::instance().find(ej->asString());
    if (!def) {
        err = "unknown experiment '" + ej->asString() + "'";
        return false;
    }
    unsigned scale = 0;
    if (!readField(req, "scale", scale, err))
        return false;

    // The SAME deterministic enumeration bench_driver runs locally:
    // units in grid order, trials in plan order, seq dense from 0.
    // Each trial's cache key is the one a local run would use, so a
    // served experiment and a local one populate and hit the same
    // ResultCache entries, and the router's merge can reorder on
    // seq. Adaptive plans (TrialPlan::stopWhen) do not perturb this:
    // experimentJobs always enumerates the FULL seed list — the
    // upper bound an adaptive local run may stop short of — so
    // all-or-nothing admission sizes against a known worst case.
    std::vector<ExperimentJob> jobs =
        experimentJobs(*def, experimentScale(*def, scale));
    if (jobs.empty()) {
        err = "experiment has no jobs";
        return false;
    }
    out.experiment = def->name;
    out.trials.reserve(jobs.size());
    std::shared_ptr<const KeyedSpec> unitSpec;
    for (ExperimentJob &job : jobs) {
        // A unit's jobs are consecutive, from trial 0, and share
        // one spec: key it once per unit.
        if (job.trial == 0 || !unitSpec)
            unitSpec = keyed(std::move(job.spec));
        out.trials.push_back({unitSpec, job.seed, job.withSlowdown,
                              std::move(job.unit), job.seq,
                              job.trial});
    }
    return true;
}

/** run_jobs: explicit trials in row coordinates. A job without a
 *  "spec" runs the spec of the job before it, and the first job the
 *  batch-level "spec": a batch names each distinct spec once. */
bool
compileRunJobs(const Json &req, Plan &out, std::string &err)
{
    if (!readField(req, "reservation", out.reservation, err)
        || !readField(req, "experiment", out.experiment, err))
        return false;

    // One KeyedSpec per distinct spec text. A fan-out batch is
    // usually one sweep's slice under the batch-level default, so
    // this is one parse and one render per request.
    std::unordered_map<std::string_view, std::shared_ptr<const KeyedSpec>>
        byText;
    auto specFor = [&](const std::string &text, const char *what) {
        std::shared_ptr<const KeyedSpec> &slot = byText[text];
        if (slot)
            return slot;
        RunSpec spec;
        if (parseRunSpec(text, spec, err))
            slot = keyed(std::move(spec));
        else
            err = std::string(what) + ": " + err;
        return slot;
    };
    std::shared_ptr<const KeyedSpec> current;
    if (const Json *j = req.find("spec")) {
        if (!j->isString()) {
            err = "spec must be canonical spec text";
            return false;
        }
        if (!(current = specFor(j->asString(), "bad spec")))
            return false;
    }
    const Json *jobs = req.find("jobs");
    if (!jobs || !jobs->isArray() || jobs->size() == 0) {
        err = "jobs must be a non-empty array";
        return false;
    }

    out.trials.reserve(jobs->size());
    for (std::size_t i = 0; i < jobs->size(); ++i) {
        const Json &jj = jobs->at(i);
        if (!jj.isObject()) {
            err = "jobs entries must be objects";
            return false;
        }
        Trial t;
        if (const Json *specj = jj.find("spec")) {
            if (!specj->isString()) {
                err = "job spec must be canonical spec text";
                return false;
            }
            if (!(current = specFor(specj->asString(), "bad job spec")))
                return false;
        } else if (!current) {
            err = "job has no spec and the request has no default spec";
            return false;
        }
        t.spec = current;
        const Json *seedj = jj.find("seed");
        if (!seedj || !seedj->toUnsigned(UINT64_MAX, t.seed)) {
            err = "job seed must be a non-negative integer";
            return false;
        }
        t.trial = i;
        if (!readField(jj, "slowdown", t.slowdown, err, "job ")
            || !readField(jj, "trial", t.trial, err, "job ")
            || !readField(jj, "unit", t.unit, err, "job "))
            return false;
        t.seq = t.trial;
        if (!readField(jj, "seq", t.seq, err, "job "))
            return false;
        out.trials.push_back(std::move(t));
    }
    return true;
}

} // anonymous namespace

bool
readRequestHead(const std::string &line, RequestHead &out,
                std::string &err)
{
    out.id = 0;
    std::string why;
    if (!Json::parse(line, out.req, &why) || !out.req.isObject()) {
        err = "unparseable request: " + why;
        return false;
    }
    if (!readField(out.req, "id", out.id, err))
        return false;
    const Json *op = out.req.find("op");
    if (!op || !op->isString()) {
        err = "missing op";
        return false;
    }
    out.op = op->asString();
    return true;
}

bool
isWorkOp(const std::string &op)
{
    return op == "submit" || op == "run_experiment" || op == "run_jobs";
}

bool
compileRequest(const std::string &op, const Json &req, Plan &out,
               std::string &err)
{
    out = Plan{};
    if (req.find("deadline_ms")) {
        std::uint64_t ms = 0;
        if (!readField(req, "deadline_ms", ms, err, "", kMaxDeadlineMs))
            return false;
        out.deadlineMs = ms;
    }
    if (op == "submit")
        return compileSubmit(req, out, err);
    if (op == "run_experiment")
        return compileExperiment(req, out, err);
    if (op == "run_jobs")
        return compileRunJobs(req, out, err);
    err = "unknown op '" + op + "'";
    return false;
}

} // namespace serve
} // namespace tw
