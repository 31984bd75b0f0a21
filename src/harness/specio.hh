/**
 * @file
 * Canonical text (de)serialization of RunSpec and RunOutcome, and
 * the fingerprint derived from it.
 *
 * One rendering serves three masters, so field drift in any of them
 * is caught by the same tests:
 *
 *  - the experiment service's wire protocol ships specs and
 *    outcomes as these exact bytes;
 *  - the result cache keys on the canonical spec text (plus trial
 *    seed and slowdown flag) — two requests hit the same entry iff
 *    their canonical forms are byte-identical;
 *  - specFingerprint() hashes the same bytes into 64 bits for
 *    logging/stats and shard placement.
 *
 * Each serialized struct has ONE field list in specio.cc (a
 * `fields(v, s)` template naming every member once, in canonical
 * order; DramTimingParams's is in core/cost/cost_backend.hh). An
 * emit visitor and a strict parse visitor both walk it, so a field
 * cannot be written in one direction only.
 *
 * Canonicalization rules:
 *  - fields are emitted in field-list order with no whitespace
 *    (Json::dump() on an insertion-ordered object);
 *  - doubles render with %.17g (exact round-trip), integers as
 *    decimal (never through a double);
 *  - parsing is STRICT: a missing or unknown field is an error, an
 *    integer field takes only a plain decimal that fits its width
 *    (Json::toUnsigned/toSigned), an enum only a name from its
 *    table, a fixed-size array only its exact length;
 *  - blocks added after v1 (costBackend, sample) are emitted only
 *    when not default, and a parse without them resets them to the
 *    default, so specs that do not use them keep their old bytes;
 *  - RunOutcome::hostSeconds is EXCLUDED: it is transport metadata
 *    (wall-clock of whichever host computed the row), not part of
 *    the deterministic outcome, and including it would break the
 *    bit-for-bit served-vs-direct comparison the smoke test makes.
 *    The wire protocol carries it as a separate field;
 *  - keyText() normalizes sys.trialSeed to 0 before rendering:
 *    Runner overwrites it with the per-trial seed, so two specs
 *    differing only there are the same experiment.
 *
 * Adding a field: add the member, then one v("name", s.member) line
 * to its struct's field list (inside an optional block if existing
 * specs must keep their bytes). The SpecIoGolden test pins the
 * canonical bytes of every registry grid unit and a few corner specs
 * and outcomes (tests/harness/specio_golden.inc); if it fails, cache
 * keys and shard owners moved. Regenerating the pins (the failing
 * test writes specio_golden.inc.new into its working directory) is
 * a deliberate cache-key break, not a routine fix.
 */

#ifndef TW_HARNESS_SPECIO_HH
#define TW_HARNESS_SPECIO_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "base/json.hh"
#include "harness/runner.hh"

namespace tw
{

/** Render @p spec as an insertion-ordered Json object. */
Json specToJson(const RunSpec &spec);

/** The canonical single-line text of @p spec. */
std::string formatRunSpec(const RunSpec &spec);

/** Strict parse (see file comment); false + @p err on failure. */
bool specFromJson(const Json &j, RunSpec &out, std::string &err);
bool parseRunSpec(const std::string &text, RunSpec &out,
                  std::string &err);

/** Render @p o (minus hostSeconds) as a Json object. */
Json outcomeToJson(const RunOutcome &o);

/** The canonical single-line text of @p o (minus hostSeconds). */
std::string formatRunOutcome(const RunOutcome &o);

bool outcomeFromJson(const Json &j, RunOutcome &out, std::string &err);
bool parseRunOutcome(const std::string &text, RunOutcome &out,
                     std::string &err);

/** FNV-1a offset basis: the hash of no bytes. */
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

/** FNV-1a over @p bytes (the fingerprint hash), continuing from
 *  @p h: fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b). */
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t h = kFnv1a64Basis);

/** The key text of @p spec: its canonical text with sys.trialSeed
 *  normalized to 0. Render it once per spec; every trial's key and
 *  fingerprint is this text plus a seed suffix. */
std::string keyText(const RunSpec &spec);

/**
 * The result-cache key of one trial: key text + '#' + trial seed +
 * '#' + slowdown flag.
 */
std::string cacheKey(std::string_view key_text, std::uint64_t trial_seed,
                     bool with_slowdown);
std::string cacheKey(const RunSpec &spec, std::uint64_t trial_seed,
                     bool with_slowdown);

/** 64-bit fingerprint of cacheKey() (logging, stats, sharding),
 *  hashed without building the key string. */
std::uint64_t specFingerprint(std::string_view key_text,
                              std::uint64_t trial_seed,
                              bool with_slowdown);
std::uint64_t specFingerprint(const RunSpec &spec,
                              std::uint64_t trial_seed,
                              bool with_slowdown);

/** The canonical text of the machine a slowdown baseline runs:
 *  spec.workload and spec.sys (sys.trialSeed normalized to 0).
 *  Every field of both lists is in it, so two specs with the same
 *  text and trial seed have the same uninstrumented run. */
std::string baselineText(const RunSpec &spec);

/** Name <-> enum helpers shared with the CLI tools. */
const char *simKindName(SimKind k);
bool simKindFromName(const std::string &name, SimKind &out);

} // namespace tw

#endif // TW_HARNESS_SPECIO_HH
