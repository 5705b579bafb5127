#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace mem
{

namespace
{

std::size_t
toPowerOfTwo(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // anonymous namespace

Cache::Cache(const CacheConfig &config)
    : ways(config.ways), useClock(0), hits_(0), misses_(0),
      evictions_(0)
{
    sn_assert(config.ways > 0 && config.ways <= 64 &&
                  config.sizeBytes >= blockBytes,
              "bad cache geometry");
    numSets = toPowerOfTwo(
        config.sizeBytes / (blockBytes * config.ways));
    if (numSets == 0)
        numSets = 1;
    tags.assign(numSets * ways, emptyTag);
    lastUse.assign(numSets * ways, 0);
    bits.assign(numSets, SetBits{});
}

std::size_t
Cache::setIndex(Addr block) const
{
    return (block / blockBytes) & (numSets - 1);
}

int
Cache::find(std::size_t set, Addr block) const
{
    const Addr *tag = &tags[set * ways];
    for (int w = 0; w < ways; ++w)
        if (tag[w] == block)
            return w;
    return -1;
}

CacheAccess
Cache::access(Addr addr, bool write)
{
    Addr block = blockAddr(addr);
    std::size_t set = setIndex(block);
    std::size_t base = set * ways;
    SetBits &b = bits[set];
    ++useClock;

    CacheAccess result;
    int way = find(set, block);
    if (way >= 0) {
        lastUse[base + way] = useClock;
        b.dirty |= std::uint64_t(write) << way;
        ++hits_;
        result.hit = true;
        return result;
    }

    ++misses_;
    std::uint64_t all =
        ways == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << ways) - 1;
    std::uint64_t invalid = ~b.valid & all;
    if (invalid) {
        way = 63 - std::countl_zero(invalid);
    } else {
        const std::uint64_t *stamp = &lastUse[base];
        std::uint64_t oldest = stamp[0];
        way = 0;
        for (int w = 1; w < ways; ++w) {
            bool older = stamp[w] < oldest;
            oldest = older ? stamp[w] : oldest;
            way = older ? w : way;
        }
        ++evictions_;
        result.evicted = true;
        result.victim = tags[base + way];
        result.victimDirty = (b.dirty >> way) & 1;
    }
    std::uint64_t bit = std::uint64_t(1) << way;
    tags[base + way] = block;
    lastUse[base + way] = useClock;
    b.valid |= bit;
    b.dirty = (b.dirty & ~bit) | (std::uint64_t(write) << way);
    return result;
}

bool
Cache::contains(Addr addr) const
{
    Addr block = blockAddr(addr);
    return find(setIndex(block), block) >= 0;
}

bool
Cache::invalidate(Addr addr)
{
    Addr block = blockAddr(addr);
    std::size_t set = setIndex(block);
    int way = find(set, block);
    if (way < 0)
        return false;
    tags[set * ways + way] = emptyTag;
    std::uint64_t keep = ~(std::uint64_t(1) << way);
    bits[set].valid &= keep;
    bits[set].dirty &= keep;
    return true;
}

int
Cache::invalidatePage(Addr addr)
{
    int dropped = 0;
    Addr page = pageAddr(addr);
    for (Addr block = page; block < page + pageBytes;
         block += blockBytes)
        dropped += invalidate(block);
    return dropped;
}

void
Cache::reset()
{
    std::fill(tags.begin(), tags.end(), emptyTag);
    std::fill(lastUse.begin(), lastUse.end(), 0);
    std::fill(bits.begin(), bits.end(), SetBits{});
    useClock = 0;
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

// lint: cold-path stats export, once per run when observing
void
Cache::registerStats(obs::Registry &r,
                     const std::string &prefix) const
{
    r.addCounter(prefix + ".hits", &hits_);
    r.addCounter(prefix + ".misses", &misses_);
    r.addCounter(prefix + ".evictions", &evictions_);
    r.addGaugeFn(prefix + ".hitRate",
                 [this] { return hitRate(); });
}

} // namespace mem
} // namespace starnuma
