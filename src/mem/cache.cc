#include "cache.hh"

#include "common/logging.hh"

namespace pmemspec::mem
{

SetAssocCache::SetAssocCache(std::string name, std::size_t size_bytes,
                             unsigned ways)
    : cacheName(std::move(name)),
      sets(size_bytes / blockBytes / ways),
      waysPerSet(ways),
      lines(sets * ways)
{
    fatal_if(size_bytes % (blockBytes * ways) != 0,
             "%s: size %zu not divisible into %u-way 64B sets",
             cacheName.c_str(), size_bytes, ways);
    fatal_if(!isPowerOf2(sets),
             "%s: %zu sets is not a power of two", cacheName.c_str(),
             sets);
}

std::size_t
SetAssocCache::setIndex(Addr block_addr) const
{
    return static_cast<std::size_t>(blockNumber(block_addr)) &
           (sets - 1);
}

SetAssocCache::Line *
SetAssocCache::find(Addr block_addr)
{
    Line *set = &lines[setIndex(block_addr) * waysPerSet];
    for (unsigned w = 0; w < waysPerSet; ++w) {
        if (set[w].matches(block_addr))
            return &set[w];
    }
    return nullptr;
}

const SetAssocCache::Line *
SetAssocCache::find(Addr block_addr) const
{
    return const_cast<SetAssocCache *>(this)->find(block_addr);
}

bool
SetAssocCache::access(Addr block_addr)
{
    if (Line *line = find(block_addr)) {
        line->lastUse = ++useClock;
        ++hits;
        return true;
    }
    ++misses;
    return false;
}

bool
SetAssocCache::contains(Addr block_addr) const
{
    return find(block_addr) != nullptr;
}

bool
SetAssocCache::isDirty(Addr block_addr) const
{
    const Line *line = find(block_addr);
    panic_if(!line, "%s: isDirty on absent block %#llx",
             cacheName.c_str(),
             static_cast<unsigned long long>(block_addr));
    return line->dirty();
}

void
SetAssocCache::markDirty(Addr block_addr)
{
    Line *line = find(block_addr);
    panic_if(!line, "%s: markDirty on absent block %#llx",
             cacheName.c_str(),
             static_cast<unsigned long long>(block_addr));
    line->meta |= Line::kDirty;
    line->lastUse = ++useClock;
}

bool
SetAssocCache::write(Addr block_addr)
{
    if (Line *line = find(block_addr)) {
        line->meta |= Line::kDirty;
        line->lastUse = ++useClock;
        ++hits;
        return true;
    }
    ++misses;
    return false;
}

void
SetAssocCache::markClean(Addr block_addr)
{
    if (Line *line = find(block_addr))
        line->meta &= ~Line::kDirty;
}

std::optional<Eviction>
SetAssocCache::insert(Addr block_addr, bool dirty)
{
    panic_if(blockAlign(block_addr) != block_addr,
             "%s: inserting unaligned address", cacheName.c_str());
    if (Line *line = find(block_addr)) {
        // Re-insertion of a present block just updates metadata.
        if (dirty)
            line->meta |= Line::kDirty;
        line->lastUse = ++useClock;
        return std::nullopt;
    }

    Line *set = &lines[setIndex(block_addr) * waysPerSet];
    Line *victim = nullptr;
    for (unsigned w = 0; w < waysPerSet; ++w) {
        if (!set[w].valid()) {
            victim = &set[w];
            break;
        }
        if (!victim || set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }

    std::optional<Eviction> evicted;
    if (victim->valid()) {
        ++evictions;
        if (victim->dirty())
            ++dirtyEvictions;
        evicted = Eviction{victim->tag(), victim->dirty()};
    } else {
        ++validCount;
    }

    victim->meta = block_addr | Line::kValid |
                   (dirty ? Line::kDirty : std::uint64_t{0});
    victim->lastUse = ++useClock;
    return evicted;
}

std::optional<bool>
SetAssocCache::invalidate(Addr block_addr)
{
    Line *line = find(block_addr);
    if (!line)
        return std::nullopt;
    const bool was_dirty = line->dirty();
    line->meta = 0;
    --validCount;
    return was_dirty;
}

} // namespace pmemspec::mem
