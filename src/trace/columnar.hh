/**
 * @file
 * Columnar binary trace format v2 (DESIGN.md §12), the one byte
 * encoding of a step-A capture; the artifact store (DESIGN.md §16)
 * is the only place it is persisted. Captures are stored SoA: per
 * thread, three parallel columns — delta-encoded varint instruction
 * counts, zigzag-delta varint addresses, and a packed write-flag
 * bitmap — instead of an array of 16-byte records. Deltas between
 * consecutive accesses of one thread are small (instruction counts
 * are nondecreasing, addresses exhibit spatial locality), so the
 * varints land in one or two bytes and the encoding is several
 * times smaller than the records it holds.
 *
 * The decoder is fully bounds-checked: truncated buffers, corrupt
 * varints, impossible counts, and unknown versions all return
 * failure — never undefined behaviour (fuzzed in
 * tests/columnar_trace_test.cc under ASan).
 *
 * The varint/ByteReader primitives live in sim/bytes.hh (the step-B
 * checkpoint and result-bundle encoders share them from the driver
 * layer); they are re-exported here so trace-side call sites keep
 * their historical names.
 */

#ifndef STARNUMA_TRACE_COLUMNAR_HH
#define STARNUMA_TRACE_COLUMNAR_HH

#include <cstdint>
#include <vector>

#include "sim/bytes.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace trace
{

using starnuma::ByteReader;
using starnuma::putVarint;
using starnuma::unzigzag;
using starnuma::zigzag;

/** Serialize @p t into the columnar v2 byte layout. */
std::vector<std::uint8_t> encodeColumnar(const WorkloadTrace &t);

/**
 * Decode a columnar v2 buffer into @p out.
 * @return false on any structural error (and @p out is unspecified).
 */
bool decodeColumnar(const std::uint8_t *data, std::size_t size,
                    WorkloadTrace &out);

} // namespace trace
} // namespace starnuma

#endif // STARNUMA_TRACE_COLUMNAR_HH
