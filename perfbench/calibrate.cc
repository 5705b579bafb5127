/**
 * @file
 * Host-speed probe of the pipeline benchmark (perfbench/run.py).
 *
 * On a shared machine the speed at which the same code runs drifts by
 * tens of percent over minutes, as neighbours come and go. run.py runs
 * this probe at the start and at the end of each run and scales the
 * run's host times by it. The probe does a fixed amount of work that
 * uses no simulator code, so a change to the simulator cannot move it:
 * on each of min(4, usable CPUs) threads, as many as the sweep's pool
 * has, a dependent pointer chase over a 32 MB random cycle and an
 * integer multiply-xorshift loop.
 *
 * Prints one JSON object: {"threads": N, "trials_s": [...], "sink": H},
 * the wall seconds of each timed trial after one untimed warm-up trial
 * and a value folded from the work so that it cannot be skipped.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace
{

constexpr std::size_t kCycleEntries = 8u << 20; // 32 MB per thread
constexpr int kChaseSteps = 1500000;
constexpr int kMixSteps = 30000000;
constexpr int kTrials = 3;

double
monoSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One random cycle through every entry (Sattolo's algorithm). */
std::vector<std::uint32_t>
randomCycle(std::uint64_t seed)
{
    std::vector<std::uint32_t> next(kCycleEntries);
    for (std::size_t i = 0; i < next.size(); ++i)
        next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t s = seed;
    for (std::size_t i = next.size() - 1; i > 0; --i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        std::swap(next[i], next[s % i]);
    }
    return next;
}

/** The fixed work of one thread; the result keeps it from being
 * optimized away. */
std::uint64_t
work(const std::vector<std::uint32_t> &next)
{
    std::uint32_t x = 0;
    for (int i = 0; i < kChaseSteps; ++i)
        x = next[x];
    std::uint64_t h = x;
    for (int i = 0; i < kMixSteps; ++i) {
        h ^= h >> 31;
        h *= 0x9E3779B97F4A7C15ULL;
        h += static_cast<std::uint64_t>(i);
    }
    return h;
}

} // anonymous namespace

int
main()
{
    cpu_set_t cpus;
    int usable = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                     ? CPU_COUNT(&cpus)
                     : 1;
    int threads = std::clamp(usable, 1, 4);

    std::vector<std::vector<std::uint32_t>> cycles(threads);
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t)
            pool.emplace_back([&cycles, t] {
                cycles[t] = randomCycle(0x9E3779B97F4A7C15ULL + t);
            });
        for (std::thread &th : pool)
            th.join();
    }

    std::string json = "{\"threads\": " + std::to_string(threads) +
                       ", \"trials_s\": [";
    std::uint64_t sink = 0;
    for (int trial = 0; trial <= kTrials; ++trial) {
        std::vector<std::uint64_t> out(threads);
        std::vector<std::thread> pool;
        double t0 = monoSeconds();
        for (int t = 0; t < threads; ++t)
            pool.emplace_back(
                [&cycles, &out, t] { out[t] = work(cycles[t]); });
        for (std::thread &th : pool)
            th.join();
        double wall = monoSeconds() - t0;
        for (std::uint64_t v : out)
            sink += v;
        if (trial == 0)
            continue; // warm-up
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%.9f", trial > 1 ? ", " : "",
                      wall);
        json += buf;
    }
    std::printf("%s], \"sink\": %llu}\n", json.c_str(),
                static_cast<unsigned long long>(sink));
    return 0;
}
