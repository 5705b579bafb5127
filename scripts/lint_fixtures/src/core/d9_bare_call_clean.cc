// Fixture: D9 bare calls — clean. A bare call (or this->) inside a
// member function finds the caller's own class first, as C++ name
// lookup does, so it never reaches FixtureNoisyVisitor's
// same-named method.

namespace starnuma
{

struct FixtureNoisyVisitor
{
    int fixtureVisit(int v) { return *new int(v); }
};

struct FixtureCapture
{
    int fixtureVisit(int v) { return v + 1; }

    // lint: hot-path fixture root calling its own member bare
    int
    fixtureCaptureLoop(int v)
    {
        return fixtureVisit(v) + this->fixtureVisit(v);
    }
};

} // namespace starnuma
