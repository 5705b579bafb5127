// Fixture: D9 receiver types — violations. A std::vector element
// resolves to its declared class, whose allocation is a finding; a
// receiver of unknown type keeps every same-named candidate.

#include <vector>

namespace starnuma
{

struct FixtureLog
{
    int fixtureAppend(int v) { return *new int(v); } // expect-lint: D9
};

struct FixtureCounter
{
    int fixtureAppend(int v) { return v; }
};

struct FixtureArena
{
    int fixtureGrab(int v) { return *new int(v); } // expect-lint: D9
};

struct FixturePool
{
    int fixtureGrab(int v) { return v; }
};

struct FixtureUntyped
{
    std::vector<FixtureLog> logs;
    FixturePool *pools;

    // lint: hot-path fixture root with typed and untyped receivers
    int
    fixtureMixedLoop(int v)
    {
        auto &some = pools[0];
        return logs[0].fixtureAppend(v) + some.fixtureGrab(v);
    }
};

} // namespace starnuma
