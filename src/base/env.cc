#include "base/env.hh"

#include <cmath>
#include <cstdlib>

#include "base/logging.hh"

namespace tw
{

bool
parseDecimal(const char *text, std::uint64_t max, std::uint64_t &out)
{
    if (*text == '\0')
        return false;
    std::uint64_t v = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        std::uint64_t d = static_cast<std::uint64_t>(*p - '0');
        if (d > max || v > (max - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

bool
parseDecimal(const char *text, double &out)
{
    bool digit = false, point = false;
    for (const char *p = text; *p; ++p) {
        if (*p >= '0' && *p <= '9')
            digit = true;
        else if (*p == '.' && !point)
            point = true;
        else
            return false;
    }
    if (!digit)
        return false;
    double v = std::strtod(text, nullptr);
    if (!std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::uint64_t
decimalKnob(const char *name, const char *text, std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!parseDecimal(text, max, v))
        fatal("%s: '%s' is not a plain decimal in 0..%llu", name, text,
              static_cast<unsigned long long>(max));
    return v;
}

std::uint64_t
envUnsigned(const char *name, std::uint64_t fallback, std::uint64_t max)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return decimalKnob(name, v, max);
}

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    double out = fallback;
    if (!parseDecimal(v, out))
        fatal("%s: '%s' is not a plain decimal number", name, v);
    return out;
}

} // namespace tw
