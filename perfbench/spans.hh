/**
 * @file
 * Layer spans of the traced pipeline benchmark. spans.cc implements
 * this interface with link-time interposers (ld --wrap) around the
 * simulator's layer entry points; spans_off.cc is the stub linked
 * into the untraced binary. The simulator sources carry no tracing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>

namespace perfbench
{

/** True in the traced binary. */
bool tracingAvailable();

/** Start or stop recording spans (traced binary only). */
void setRecording(bool on);

/**
 * Workload seed handed to makeWorkload(name, seed)->capture by the
 * capture interposer, in place of the driver's fixed seed 1
 * (traced binary only).
 */
void setCaptureSeed(std::uint64_t seed);

/**
 * Write every recorded span to @p path, one JSON object per line:
 * name, kernel, thread, id, parent, start_ns, end_ns, bytes, records,
 * count. @return false on IO error.
 */
bool writeSpans(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
