#include "bench_util.hh"

#include <benchmark/benchmark.h>

namespace starnuma
{
namespace benchutil
{

int
runBenchmarks(int argc, char **argv)
{
    initBench(&argc, argv);

    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}

} // namespace benchutil
} // namespace starnuma
