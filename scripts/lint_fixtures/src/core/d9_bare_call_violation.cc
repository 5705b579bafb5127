// Fixture: D9 bare calls — violation. A bare call whose class has no
// member of that name keeps every same-named candidate (here a free
// function and another class's member), so the allocation is found.

namespace starnuma
{

int
fixtureEmit(int v)
{
    return v;
}

struct FixtureLoudSink
{
    int fixtureEmit(int v) { return *new int(v); } // expect-lint: D9
};

struct FixtureForwarder
{
    // lint: hot-path fixture root with a bare call to a non-member
    int
    fixtureForward(int v)
    {
        return fixtureEmit(v);
    }
};

} // namespace starnuma
