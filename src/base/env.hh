/**
 * @file
 * Strict decimal parsing for numeric environment knobs.
 *
 * A knob value is a plain decimal: ASCII digits only — plus at most
 * one '.' for a fractional knob — with no sign, whitespace, exponent
 * or suffix, and no greater than the knob's field can hold. "16k",
 * "garbage", " 4" and "4294967296" for an unsigned field are all
 * rejected, and a rejected knob is fatal: never a silent default, a
 * numeric prefix or a truncated value.
 */

#ifndef TW_BASE_ENV_HH
#define TW_BASE_ENV_HH

#include <cstdint>

namespace tw
{

/** Parse @p text as a plain decimal integer no greater than @p max;
 *  false (leaving @p out alone) for anything else, "" included. */
bool parseDecimal(const char *text, std::uint64_t max,
                  std::uint64_t &out);

/** Parse @p text as a plain decimal fraction ("2", "0.05", ".5");
 *  false (leaving @p out alone) for anything else, "" included. */
bool parseDecimal(const char *text, double &out);

/** @p text, the value of knob @p name, as a plain decimal integer no
 *  greater than @p max. Anything else is fatal. */
std::uint64_t decimalKnob(const char *name, const char *text,
                          std::uint64_t max);

/** Environment knob @p name as a plain decimal integer no greater
 *  than @p max: @p fallback when unset or empty, fatal when
 *  malformed. */
std::uint64_t envUnsigned(const char *name, std::uint64_t fallback,
                          std::uint64_t max);

/** Environment knob @p name as a plain decimal fraction: @p fallback
 *  when unset or empty, fatal when malformed. */
double envDouble(const char *name, double fallback);

} // namespace tw

#endif // TW_BASE_ENV_HH
