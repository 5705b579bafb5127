// Fixture: D9 receiver types — clean. Both calls name a receiver of
// declared class (a member, a std::vector element), so they resolve
// to FixtureQuietTable only, never to FixtureNoisyTable's method.

#include <vector>

namespace starnuma
{

struct FixtureQuietTable
{
    int fixtureScan(int v) const { return v + 1; }
};

struct FixtureNoisyTable
{
    int fixtureScan(int v) const { return *new int(v); }
};

struct FixtureTyped
{
    FixtureQuietTable quiet;
    std::vector<FixtureQuietTable> shelves;

    // lint: hot-path fixture root with typed receivers
    int
    fixtureTypedLoop(int v) const
    {
        return quiet.fixtureScan(v) + shelves[0].fixtureScan(v);
    }
};

} // namespace starnuma
