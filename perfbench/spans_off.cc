// Untraced build: no interposers, nothing is recorded.
#include "spans.hh"

namespace perfbench
{

bool tracingAvailable() { return false; }
void setRecording(bool) {}
void setCaptureSeed(std::uint64_t) {}
bool writeSpans(const std::string &) { return false; }

} // namespace perfbench
