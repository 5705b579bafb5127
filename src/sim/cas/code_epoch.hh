/**
 * @file
 * Build-time code-epoch hashes for the artifact cache keys
 * (DESIGN.md §16). Each artifact's epoch is the FNV-1a-128 digest
 * of its source-file closure as recorded in
 * scripts/artifact_inputs.json (the D13 manifest), so any edit to
 * code that can influence the artifact's bytes changes the epoch
 * and invalidates every cached object derived from it.
 *
 * The implementation is generated into the build tree by
 * scripts/gen_code_epoch.py. Configure requires a Python 3
 * interpreter and a generator error fails the build, so there is
 * no stub epoch under which the store could serve stale objects.
 */

#ifndef STARNUMA_SIM_CAS_CODE_EPOCH_HH
#define STARNUMA_SIM_CAS_CODE_EPOCH_HH

#include <string>

namespace starnuma
{
namespace cas
{

/**
 * Epoch digest for @p artifact — "step_a_trace",
 * "step_b_checkpoint", or "pipeline" (the whole-src closure used
 * for end-to-end experiment results). An unknown name panics.
 */
std::string codeEpoch(const std::string &artifact);

} // namespace cas
} // namespace starnuma

#endif // STARNUMA_SIM_CAS_CODE_EPOCH_HH
