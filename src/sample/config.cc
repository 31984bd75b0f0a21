#include "sample/config.hh"

#include <cstdlib>
#include <limits>

#include "base/env.hh"

namespace tw
{

namespace
{

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v && *v != '0';
}

/** A set knob must be a plain decimal that fits @p out ("" and
 *  "16k" are fatal); an unset one keeps the default. */
template <typename T>
void
envKnob(const char *name, T &out)
{
    if (const char *v = std::getenv(name))
        out = static_cast<T>(
            decimalKnob(name, v, std::numeric_limits<T>::max()));
}

} // anonymous namespace

SampleConfig
sampleConfigFromEnv()
{
    SampleConfig cfg;
    if (!envFlag("TW_SAMPLE"))
        return cfg;
    cfg.enabled = true;
    envKnob("TW_SAMPLE_INTERVAL", cfg.intervalRefs);
    envKnob("TW_SAMPLE_WARMUP", cfg.warmupRefs);
    envKnob("TW_SAMPLE_CLUSTERS", cfg.clusters);
    envKnob("TW_SAMPLE_PER_CLUSTER", cfg.perCluster);
    if (cfg.intervalRefs == 0)
        cfg.intervalRefs = 16384;
    if (cfg.clusters == 0)
        cfg.clusters = 1;
    if (cfg.perCluster == 0)
        cfg.perCluster = 1;
    return cfg;
}

bool
envNoDma()
{
    return envFlag("TW_NO_DMA");
}

} // namespace tw
