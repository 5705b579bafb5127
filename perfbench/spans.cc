/**
 * @file
 * Traced build: link-time interposers around the simulator's layer
 * entry points. CMakeLists.txt links this binary with
 * `--wrap=<symbol>` for each entry point, so every call that crosses
 * a translation-unit boundary into it lands in the matching
 * `__wrap_` function below, which opens a span, calls the original
 * (`__real_`) and closes the span. Calls inside one translation unit
 * are not interposed, which is what keeps e.g. hashBytes(vector) ->
 * hashBytes(ptr, size) from being counted twice.
 *
 * Spans nest per thread: a span's parent is the innermost span open
 * on the same thread, so self time (duration minus children) is the
 * thread time spent in that layer's own code. Spans live in memory
 * and are written out once, by writeSpans().
 */

#include "spans.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "driver/metrics.hh"
#include "driver/timing_sim.hh"
#include "driver/trace_sim.hh"
#include "sim/cas/hash.hh"
#include "sim/cas/store.hh"
#include "sim/scale.hh"
#include "trace/trace.hh"

using namespace starnuma;

namespace perfbench
{

namespace
{

struct Span
{
    const char *name;
    std::string kernel;
    int parent;
    std::uint64_t startNs;
    std::uint64_t endNs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t records = 0;
    std::uint64_t count = 0;
};

struct ThreadLog
{
    int thread = 0;
    std::vector<Span> spans;
    std::vector<int> open;
};

std::atomic<bool> recording{false};
std::atomic<std::uint64_t> captureSeed{1};

std::mutex logsMu;
std::vector<std::unique_ptr<ThreadLog>> logs;
thread_local ThreadLog *tlsLog = nullptr;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

ThreadLog &
threadLog()
{
    if (!tlsLog) {
        std::lock_guard<std::mutex> lock(logsMu);
        logs.push_back(std::make_unique<ThreadLog>());
        tlsLog = logs.back().get();
        tlsLog->thread = static_cast<int>(logs.size()) - 1;
    }
    return *tlsLog;
}

/**
 * One open span. Children may grow the thread's span vector, so the
 * span is addressed by index, never by pointer.
 */
class Scope
{
  public:
    explicit Scope(const char *name)
        : log(recording.load(std::memory_order_relaxed) ? &threadLog()
                                                        : nullptr)
    {
        if (!log)
            return;
        idx = static_cast<int>(log->spans.size());
        int parent = log->open.empty() ? -1 : log->open.back();
        log->spans.push_back(Span{name, {}, parent, nowNs()});
        log->open.push_back(idx);
    }

    ~Scope()
    {
        if (!log)
            return;
        log->spans[static_cast<std::size_t>(idx)].endNs = nowNs();
        log->open.pop_back();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Attach the span's work counts (no-op while not recording). */
    void
    note(const std::string &kernel, std::uint64_t bytes,
         std::uint64_t records, std::uint64_t count)
    {
        if (!log)
            return;
        Span &s = log->spans[static_cast<std::size_t>(idx)];
        s.kernel = kernel;
        s.bytes = bytes;
        s.records = records;
        s.count = count;
    }

    bool active() const { return log != nullptr; }

  private:
    ThreadLog *log;
    int idx = -1;
};

} // anonymous namespace

bool tracingAvailable() { return true; }

void
setRecording(bool on)
{
    recording.store(on, std::memory_order_relaxed);
}

void
setCaptureSeed(std::uint64_t seed)
{
    captureSeed.store(seed, std::memory_order_relaxed);
}

bool
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(logsMu);
    for (const auto &log : logs) {
        for (std::size_t i = 0; i < log->spans.size(); ++i) {
            const Span &s = log->spans[i];
            std::fprintf(
                f,
                "{\"name\": \"%s\", \"kernel\": \"%s\", "
                "\"thread\": %d, \"id\": %zu, \"parent\": %d, "
                "\"start_ns\": %llu, \"end_ns\": %llu, "
                "\"bytes\": %llu, \"records\": %llu, "
                "\"count\": %llu}\n",
                s.name, s.kernel.c_str(), log->thread, i, s.parent,
                static_cast<unsigned long long>(s.startNs),
                static_cast<unsigned long long>(s.endNs),
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.count));
        }
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench

// --- interposers ---------------------------------------------------
//
// Member functions are declared as free functions taking the object
// pointer first: on the Itanium C++ ABI that is the same calling
// convention (a hidden return-slot pointer, when there is one, comes
// before it in both cases). The __real_ declarations are weak so that
// a renamed entry point degrades to "no spans for that layer" rather
// than a link error; run.py counts a layer that recorded nothing where
// it has work as a failed check.

#define PERFBENCH_REAL(sym) __asm__("__real_" sym) __attribute__((weak))
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

// One entry point per line: CMakeLists.txt reads these lines to pass
// --wrap=<symbol> to the linker.
#define SYM_CAPTURE "_ZN8starnuma9workloads15captureWorkloadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8SimScaleEm"
#define SYM_ENCODE "_ZN8starnuma5trace14encodeColumnarERKNS0_13WorkloadTraceE"
#define SYM_DECODE "_ZN8starnuma5trace14decodeColumnarEPKhmRNS0_13WorkloadTraceE"
#define SYM_PUT "_ZN8starnuma3cas5Store9putObjectERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorIhSaIhEE"
#define SYM_FETCH "_ZN8starnuma3cas5Store11fetchObjectERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERSt6vectorIhSaIhEE"
#define SYM_CONTAINS "_ZNK8starnuma3cas5Store14containsObjectERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_HASH_PTR "_ZN8starnuma3cas9hashBytesEPKvm"
#define SYM_HASH_VEC "_ZN8starnuma3cas9hashBytesERKSt6vectorIhSaIhEE"
#define SYM_HASH_STR "_ZN8starnuma3cas10hashStringERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_TRACE_SIM "_ZN8starnuma6driver8TraceSim3runERKNS_5trace13WorkloadTraceEPKNS0_15PhaseStateHooksE"
#define SYM_TIMING_SIM "_ZN8starnuma6driver9TimingSim3runERKNS_5trace13WorkloadTraceERKNS0_14TraceSimResultE"

using perfbench::Scope;

trace::WorkloadTrace realCapture(const std::string &, const SimScale &,
                                 std::uint64_t) PERFBENCH_REAL(SYM_CAPTURE);
trace::WorkloadTrace wrapCapture(const std::string &, const SimScale &,
                                 std::uint64_t) PERFBENCH_WRAP(SYM_CAPTURE);
trace::WorkloadTrace
wrapCapture(const std::string &name, const SimScale &scale, std::uint64_t)
{
    Scope s("workloads.capture");
    trace::WorkloadTrace t = realCapture(
        name, scale,
        perfbench::captureSeed.load(std::memory_order_relaxed));
    if (s.active())
        s.note(name, 0, t.totalRecords(), 1);
    return t;
}

std::vector<std::uint8_t> realEncode(const trace::WorkloadTrace &)
    PERFBENCH_REAL(SYM_ENCODE);
std::vector<std::uint8_t> wrapEncode(const trace::WorkloadTrace &)
    PERFBENCH_WRAP(SYM_ENCODE);
std::vector<std::uint8_t>
wrapEncode(const trace::WorkloadTrace &t)
{
    Scope s("trace.encode");
    std::vector<std::uint8_t> out = realEncode(t);
    if (s.active())
        s.note(t.workload, out.size(), t.totalRecords(), 1);
    return out;
}

bool realDecode(const std::uint8_t *, std::size_t, trace::WorkloadTrace &)
    PERFBENCH_REAL(SYM_DECODE);
bool wrapDecode(const std::uint8_t *, std::size_t, trace::WorkloadTrace &)
    PERFBENCH_WRAP(SYM_DECODE);
bool
wrapDecode(const std::uint8_t *data, std::size_t size,
           trace::WorkloadTrace &out)
{
    Scope s("trace.decode");
    bool ok = realDecode(data, size, out);
    if (s.active())
        s.note(ok ? out.workload : std::string(), size,
               ok ? out.totalRecords() : 0, ok ? 1 : 0);
    return ok;
}

bool realPut(cas::Store *, const std::string &,
             const std::vector<std::uint8_t> &) PERFBENCH_REAL(SYM_PUT);
bool wrapPut(cas::Store *, const std::string &,
             const std::vector<std::uint8_t> &) PERFBENCH_WRAP(SYM_PUT);
bool
wrapPut(cas::Store *store, const std::string &key,
        const std::vector<std::uint8_t> &payload)
{
    Scope s("cas.put");
    bool ok = realPut(store, key, payload);
    s.note({}, ok ? payload.size() : 0, 0, ok ? 1 : 0);
    return ok;
}

bool realFetch(cas::Store *, const std::string &,
               std::vector<std::uint8_t> &) PERFBENCH_REAL(SYM_FETCH);
bool wrapFetch(cas::Store *, const std::string &,
               std::vector<std::uint8_t> &) PERFBENCH_WRAP(SYM_FETCH);
bool
wrapFetch(cas::Store *store, const std::string &key,
          std::vector<std::uint8_t> &payload)
{
    Scope s("cas.fetch");
    bool ok = realFetch(store, key, payload);
    s.note({}, ok ? payload.size() : 0, 0, ok ? 1 : 0);
    return ok;
}

bool realContains(const cas::Store *, const std::string &)
    PERFBENCH_REAL(SYM_CONTAINS);
bool wrapContains(const cas::Store *, const std::string &)
    PERFBENCH_WRAP(SYM_CONTAINS);
bool
wrapContains(const cas::Store *store, const std::string &key)
{
    Scope s("cas.probe");
    bool ok = realContains(store, key);
    s.note({}, 0, 0, ok ? 1 : 0);
    return ok;
}

cas::Hash128 realHashPtr(const void *, std::size_t)
    PERFBENCH_REAL(SYM_HASH_PTR);
cas::Hash128 wrapHashPtr(const void *, std::size_t)
    PERFBENCH_WRAP(SYM_HASH_PTR);
cas::Hash128
wrapHashPtr(const void *data, std::size_t size)
{
    Scope s("cas.hash");
    s.note({}, size, 0, 1);
    return realHashPtr(data, size);
}

cas::Hash128 realHashVec(const std::vector<std::uint8_t> &)
    PERFBENCH_REAL(SYM_HASH_VEC);
cas::Hash128 wrapHashVec(const std::vector<std::uint8_t> &)
    PERFBENCH_WRAP(SYM_HASH_VEC);
cas::Hash128
wrapHashVec(const std::vector<std::uint8_t> &bytes)
{
    Scope s("cas.hash");
    s.note({}, bytes.size(), 0, 1);
    return realHashVec(bytes);
}

cas::Hash128 realHashStr(const std::string &) PERFBENCH_REAL(SYM_HASH_STR);
cas::Hash128 wrapHashStr(const std::string &) PERFBENCH_WRAP(SYM_HASH_STR);
cas::Hash128
wrapHashStr(const std::string &text)
{
    Scope s("cas.hash");
    s.note({}, text.size(), 0, 1);
    return realHashStr(text);
}

driver::TraceSimResult realTraceSim(driver::TraceSim *,
                                    const trace::WorkloadTrace &,
                                    const driver::PhaseStateHooks *)
    PERFBENCH_REAL(SYM_TRACE_SIM);
driver::TraceSimResult wrapTraceSim(driver::TraceSim *,
                                    const trace::WorkloadTrace &,
                                    const driver::PhaseStateHooks *)
    PERFBENCH_WRAP(SYM_TRACE_SIM);
driver::TraceSimResult
wrapTraceSim(driver::TraceSim *sim, const trace::WorkloadTrace &t,
             const driver::PhaseStateHooks *hooks)
{
    Scope s("trace_sim.run");
    driver::TraceSimResult r = realTraceSim(sim, t, hooks);
    if (s.active())
        s.note(t.workload, 0, t.totalRecords(), r.migratedPagesTotal);
    return r;
}

driver::RunMetrics realTimingSim(driver::TimingSim *,
                                 const trace::WorkloadTrace &,
                                 const driver::TraceSimResult &)
    PERFBENCH_REAL(SYM_TIMING_SIM);
driver::RunMetrics wrapTimingSim(driver::TimingSim *,
                                 const trace::WorkloadTrace &,
                                 const driver::TraceSimResult &)
    PERFBENCH_WRAP(SYM_TIMING_SIM);
driver::RunMetrics
wrapTimingSim(driver::TimingSim *sim, const trace::WorkloadTrace &t,
              const driver::TraceSimResult &placement)
{
    Scope s("timing_sim.run");
    driver::RunMetrics m = realTimingSim(sim, t, placement);
    if (s.active())
        s.note(t.workload, 0, t.totalRecords(), m.memAccesses);
    return m;
}
