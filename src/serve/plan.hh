/**
 * @file
 * The request compiler of the experiment service: the one place a
 * request line is read and a work request — `submit`,
 * `run_experiment` or `run_jobs` — is turned into trials.
 *
 * compileRequest() yields a Plan: the request's trials in row order,
 * each naming a KeyedSpec (the parsed RunSpec plus its specio key
 * text). A KeyedSpec is built once per distinct spec of the request
 * — once per submit, once per experiment unit, once per distinct
 * run_jobs spec text — so every trial's cache key and fingerprint is
 * that text plus "#seed#flag", never a fresh render of the spec.
 *
 * twserved runs a Plan (cache lookup, then a hit or a job); the
 * router fingerprints its trials onto the ring and forwards each
 * shard's slice as `run_jobs`, whose spec text is the key text.
 * Both read the same Plan, so a trial has the same cache key and
 * shard owner whichever op and whichever front door named it.
 */

#ifndef TW_SERVE_PLAN_HH
#define TW_SERVE_PLAN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/json.hh"
#include "harness/runner.hh"

namespace tw
{
namespace serve
{

/** The head every request line shares. */
struct RequestHead
{
    Json req;
    std::uint64_t id = 0;
    std::string op;
};

/**
 * Parse one request line: a JSON object whose "id", when present, is
 * a plain decimal that fits 64 bits (Json::toUnsigned) and whose
 * "op" is a string. False + @p err otherwise; @p out.id is then the
 * request's id if the id itself was valid, else 0.
 */
bool readRequestHead(const std::string &line, RequestHead &out,
                     std::string &err);

/** Whether @p op submits work (compileRequest's ops). */
bool isWorkOp(const std::string &op);

/** A parsed spec and its key text (specio keyText). */
struct KeyedSpec
{
    RunSpec spec;
    std::string keyText;
};

/** One trial of a request, in row coordinates. */
struct Trial
{
    std::shared_ptr<const KeyedSpec> spec;
    std::uint64_t seed = 0;
    bool slowdown = true;
    std::string unit;
    std::uint64_t seq = 0;
    std::uint64_t trial = 0;
};

/** A compiled work request. */
struct Plan
{
    /** The registry entry of a run_experiment, or the label a
     *  run_jobs batch carries; empty for ad-hoc submits. Rows of a
     *  named plan carry it plus their unit/seq coordinates. */
    std::string experiment;
    std::optional<std::uint64_t> deadlineMs;
    /** run_jobs only: the `reserve` token the trials consume. */
    std::uint64_t reservation = 0;
    std::vector<Trial> trials;
};

/** Compile work request @p req of op @p op (see isWorkOp) into
 *  @p out; false + @p err (a bad_request message) otherwise. */
bool compileRequest(const std::string &op, const Json &req, Plan &out,
                    std::string &err);

} // namespace serve
} // namespace tw

#endif // TW_SERVE_PLAN_HH
