#include "cache_system.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace gaas::core
{

namespace
{

/** Build the write-buffer timing from the system config. */
mem::WriteBufferConfig
makeWbConfig(const SystemConfig &cfg)
{
    mem::WriteBufferConfig wb;
    wb.depth = cfg.wbDepth;
    wb.entryWords = cfg.wbEntryWords;
    // The buffer drains into the data side of L2 at its effective
    // access time.
    wb.drainCycles = cfg.l2DataSide().accessTime;
    // The stream overlap cannot exceed the drain time itself.
    wb.streamOverlap =
        std::min<Cycles>(cfg.wbStreamOverlap, wb.drainCycles - 1);
    return wb;
}

/** Build the memory config (the dirty buffer lives behind L2-D). */
mem::MainMemoryConfig
makeMemConfig(const SystemConfig &cfg)
{
    mem::MainMemoryConfig mc = cfg.memory;
    mc.dirtyBuffer = cfg.l2DirtyBuffer;
    return mc;
}

/** Halve a cache for the logical I/D split (high index bit). */
cache::CacheConfig
halfOf(const cache::CacheConfig &full)
{
    cache::CacheConfig half = full;
    half.sizeWords = full.sizeWords / 2;
    return half;
}

} // namespace

CacheSystem::CacheSystem(const SystemConfig &config)
    : cfg(config), mmuUnit((config.validate(), config.mmu)),
      l1i(config.l1i, "L1-I"), l1d(config.l1d, "L1-D"),
      wb(makeWbConfig(config)), memory(makeMemConfig(config))
{
    switch (cfg.l2Org) {
      case L2Org::Unified:
        l2u.emplace(cfg.l2.cache, "L2");
        break;
      case L2Org::LogicalSplit:
        // Splitting uses the high-order index bit to interleave the
        // instruction and data halves (Section 7): each half behaves
        // as an independent cache of half the capacity.
        l2is.emplace(halfOf(cfg.l2.cache), "L2-I(half)");
        l2ds.emplace(halfOf(cfg.l2.cache), "L2-D(half)");
        break;
      case L2Org::PhysicalSplit:
        l2is.emplace(cfg.l2i.cache, "L2-I");
        l2ds.emplace(cfg.l2d.cache, "L2-D");
        break;
    }
}

cache::TagStore &
CacheSystem::l2Store(bool is_inst)
{
    if (l2u)
        return *l2u;
    return is_inst ? *l2is : *l2ds;
}

const cache::TagStore &
CacheSystem::l2InstStore() const
{
    return l2u ? *l2u : *l2is;
}

const cache::TagStore &
CacheSystem::l2DataStore() const
{
    return l2u ? *l2u : *l2ds;
}

Cycles
CacheSystem::extraTransferCycles(unsigned fetch_words) const
{
    if (fetch_words <= 4)
        return 0;
    return divCeil(fetch_words - 4, cfg.transferWordsPerCycle);
}

template <Mode M>
CacheSystem::L2Result
CacheSystem::l2Access(bool is_inst, Addr paddr, Cycles now,
                      unsigned fetch_words)
{
    cache::TagStore &store = l2Store(is_inst);

    (is_inst ? st.l2iAccesses : st.l2dAccesses) += 1;

    // Warm mode leaves access at 0, so main memory sees the
    // caller's `now` (see charge()).
    L2Result res;
    if constexpr (M == Mode::Detail) {
        const L2SideConfig &side =
            is_inst ? cfg.l2InstSide() : cfg.l2DataSide();
        res.access = side.accessTime + extraTransferCycles(fetch_words);
    }

    if (cache::TagStore::Ref line = store.find(paddr)) {
        store.touch(line);
        return res;
    }

    (is_inst ? st.l2iMisses : st.l2dMisses) += 1;

    cache::Eviction evicted;
    store.allocate(paddr, evicted);
    const bool dirty_victim = evicted.valid && evicted.dirty;
    if (dirty_victim)
        ++st.l2DirtyMisses;

    res.memory = memory.fetchLine(now + res.access, dirty_victim);
    return res;
}

template <Mode M>
Cycles
CacheSystem::ifetchMiss(Cycles now, Cycles stall, Addr paddr)
{
    ++st.l1iMisses;

    // The base architecture makes both primary caches wait for the
    // write buffer to empty before processing a miss (Section 2).
    // With a split L2, the I-refill can proceed concurrently with
    // the drain into L2-D (Section 9).
    if (!cfg.concurrentIRefill) {
        const Cycles wait = wb.drainAll(now + stall);
        charge<M>(stall, comp.wbWait, wait);
    }

    const L2Result r =
        l2Access<M>(true, paddr, now + stall, cfg.l1i.fetchWords);
    charge<M>(stall, comp.l1iMiss, r.access);
    charge<M>(stall, comp.l2iMiss, r.memory);

    cache::Eviction evicted;
    l1i.allocate(paddr, evicted);
    return stall;
}

template <Mode M>
void
CacheSystem::dataMissWriteBufferWait(Addr paddr, Cycles now,
                                     Cycles &stall)
{
    Cycles wait = 0;
    switch (cfg.loadBypass) {
      case LoadBypass::None:
        wait = wb.drainAll(now + stall);
        break;
      case LoadBypass::Associative:
        wait = wb.drainLine(now + stall, l1d.lineAddr(paddr),
                            cfg.l1d.lineBytes());
        break;
      case LoadBypass::DirtyBit: {
        // Only flush when the line being replaced is dirty; the
        // write-only policy guarantees every buffered write also
        // allocated (and dirtied) an L1-D line, so a clean victim
        // proves the buffer holds nothing this line needs
        // (Section 9).
        cache::TagStore::Ref line = l1d.find(paddr);
        const cache::TagStore::Ref victim =
            line ? line : l1d.victim(paddr);
        if (victim.valid() && victim.dirty())
            wait = wb.drainAll(now + stall);
        else
            wb.noteBypass();
        break;
      }
    }
    charge<M>(stall, comp.wbWait, wait);
}

template <Mode M>
cache::TagStore::Ref
CacheSystem::refillL1D(Addr paddr, Cycles now, Cycles &stall)
{
    // A read miss on a write-only (or partially valid) line with a
    // matching tag reallocates the same line in place.
    if (cache::TagStore::Ref line = l1d.find(paddr)) {
        line.setWriteOnly(false);
        line.setDirty(false);
        line.setValidMask(l1d.fullMask());
        l1d.touch(line);
        return line;
    }

    cache::Eviction evicted;
    cache::TagStore::Ref line = l1d.allocate(paddr, evicted);

    // Write-back: a displaced dirty line drains through the write
    // buffer as one full-line entry.
    if (cfg.writePolicy == WritePolicy::WriteBack && evicted.valid &&
        evicted.dirty) {
        const Cycles wait = wb.push(now + stall, evicted.lineAddr);
        charge<M>(stall, comp.wbWait, wait);
        applyWriteToL2(evicted.lineAddr);
    }
    return line;
}

template <Mode M>
Cycles
CacheSystem::loadMiss(Cycles now, Cycles stall, Addr paddr,
                      cache::TagStore::LineIndex idx)
{
    if (idx != cache::TagStore::npos &&
        (l1d.stateAt(idx) & cache::TagStore::kWriteOnlyBit))
        ++st.writeOnlyReadMisses;
    ++st.l1dReadMisses;

    dataMissWriteBufferWait<M>(paddr, now, stall);

    const L2Result r =
        l2Access<M>(false, paddr, now + stall, cfg.l1d.fetchWords);
    charge<M>(stall, comp.l1dMiss, r.access);
    charge<M>(stall, comp.l2dMiss, r.memory);

    refillL1D<M>(paddr, now, stall);
    return stall;
}

void
CacheSystem::applyWriteToL2(Addr paddr)
{
    // State-only effect of a write-buffer entry reaching L2; the
    // *timing* of the drain is modelled by the write buffer itself.
    // L2 allocates on writes, so write-through traffic creates the
    // dirty L2-D lines whose replacement causes dirty misses.
    cache::TagStore &store = l2Store(false);
    if (cache::TagStore::Ref line = store.find(paddr)) {
        line.setDirty(true);
        store.touch(line);
        return;
    }
    ++st.l2WriteAllocates;
    cache::Eviction evicted;
    cache::TagStore::Ref line = store.allocate(paddr, evicted);
    line.setDirty(true);
    // A displaced dirty line is written back in the background; the
    // bus cost is folded into the effective drain time (DESIGN.md).
}

template <Mode M>
Cycles
CacheSystem::storeMissWriteBack(Cycles now, Cycles stall, Addr paddr)
{
    // Write-allocate: fetch the line like a read miss; the write
    // itself needs no extra cycle (Section 6).
    ++st.l1dWriteMisses;
    dataMissWriteBufferWait<M>(paddr, now, stall);
    const L2Result r =
        l2Access<M>(false, paddr, now + stall, cfg.l1d.fetchWords);
    charge<M>(stall, comp.l1dMiss, r.access);
    charge<M>(stall, comp.l2dMiss, r.memory);
    cache::TagStore::Ref nl = refillL1D<M>(paddr, now, stall);
    nl.setDirty(true);
    return stall;
}

template <Mode M>
Cycles
CacheSystem::storeMissInvalidate(Cycles stall, Addr paddr)
{
    ++st.l1dWriteMisses;
    // The data array was written while the tag mismatched; a second
    // cycle invalidates the corrupted line.  (Only meaningful for a
    // direct-mapped L1-D, where the way is implied; the design
    // study's L1-D is always direct mapped.)
    charge<M>(stall, comp.l1Writes, 1);
    if (cfg.l1d.assoc == 1)
        l1d.victim(paddr).invalidate();
    return stall;
}

template <Mode M>
Cycles
CacheSystem::storeMissWriteOnly(Cycles stall, Addr paddr)
{
    ++st.l1dWriteMisses;
    // The second cycle updates the tag and marks the line
    // write-only; subsequent writes to it hit (Section 6).
    charge<M>(stall, comp.l1Writes, 1);
    cache::Eviction evicted;
    cache::TagStore::Ref nl = l1d.allocate(paddr, evicted);
    nl.setWriteOnly(true);
    nl.setDirty(true);
    nl.setValidMask(0);
    return stall;
}

template <Mode M>
Cycles
CacheSystem::storeMissSubblock(Cycles stall, Addr paddr,
                               bool partial_word)
{
    ++st.l1dWriteMisses;
    // Second cycle: update the tag; only the written word (if a
    // full-word write) becomes valid.
    charge<M>(stall, comp.l1Writes, 1);
    cache::Eviction evicted;
    cache::TagStore::Ref nl = l1d.allocate(paddr, evicted);
    nl.setDirty(true);
    nl.setValidMask(partial_word ? 0 : l1d.wordBit(paddr));
    return stall;
}

// The header's access paths call the miss paths in both modes.
#define GAAS_INSTANTIATE_MISS_PATHS(M)                                 \
    template Cycles CacheSystem::ifetchMiss<M>(Cycles, Cycles, Addr); \
    template Cycles CacheSystem::loadMiss<M>(                         \
        Cycles, Cycles, Addr, cache::TagStore::LineIndex);            \
    template Cycles CacheSystem::storeMissWriteBack<M>(Cycles, Cycles, \
                                                       Addr);         \
    template Cycles CacheSystem::storeMissInvalidate<M>(Cycles, Addr); \
    template Cycles CacheSystem::storeMissWriteOnly<M>(Cycles, Addr);  \
    template Cycles CacheSystem::storeMissSubblock<M>(Cycles, Addr,    \
                                                      bool);
GAAS_INSTANTIATE_MISS_PATHS(Mode::Detail)
GAAS_INSTANTIATE_MISS_PATHS(Mode::Warm)
#undef GAAS_INSTANTIATE_MISS_PATHS

void
CacheSystem::resetStats()
{
    st = SysStats{};
    comp = CpiComponents{};
    wb.resetStats();
    memory.resetStats();
    mmuUnit.resetStats();
}

SysStats
CacheSystem::stats() const
{
    SysStats out = st;
    out.wb = wb.stats();
    out.memory = memory.stats();
    out.itlb = mmuUnit.itlbStats();
    out.dtlb = mmuUnit.dtlbStats();
    return out;
}

} // namespace gaas::core
