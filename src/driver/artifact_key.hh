/**
 * @file
 * Canonical cache-key texts for the content-addressed artifact
 * store (DESIGN.md §16). Each artifact kind's key is a multi-line
 * "field=value" text whose field names follow the manifest schema
 * of scripts/artifact_inputs.json (starnuma-artifact-inputs-v1):
 * the declared workload/scale/setup inputs, the code-epoch hash of
 * the generating file closure, and one line per declared STARNUMA_*
 * environment gate. Env gates that are byte-invariant by contract
 * (pool size, store location) record the literal value "invariant"
 * so warm hits work across STARNUMA_THREADS settings. scripts/cas_tool.py re-parses these
 * texts and validates the field vocabulary against the manifest.
 */

#ifndef STARNUMA_DRIVER_ARTIFACT_KEY_HH
#define STARNUMA_DRIVER_ARTIFACT_KEY_HH

#include <string>

#include "driver/system_setup.hh"
#include "sim/cas/hash.hh"
#include "sim/scale.hh"

namespace starnuma
{
namespace driver
{

/** Key text of the step-A columnar trace bytes for a workload. */
std::string traceKeyText(const std::string &workload,
                         const SimScale &scale);

/**
 * Key text of a full experiment-result bundle (metrics + step-B
 * checkpoints + stats snapshots). @p stats_enabled is the
 * obs::StatsSink bit: a bundle cached without registry snapshots
 * must not satisfy a run that needs them.
 */
std::string resultKeyText(const std::string &workload,
                          const SystemSetup &setup,
                          const SimScale &scale,
                          const cas::Hash128 &trace_content,
                          bool stats_enabled);

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_ARTIFACT_KEY_HH
