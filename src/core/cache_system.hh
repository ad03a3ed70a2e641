/**
 * @file
 * The cycle-accounting two-level cache system: the reference
 * processor's memory side.
 *
 * CacheSystem ties together the L1 I/D tag stores, the secondary
 * cache (unified, logically split, or physically split), the write
 * buffer, the MMU, and main memory, and charges stall cycles
 * according to the timing rules of Sections 2 and 6-9 of the paper
 * (see DESIGN.md section 4 for the contract).
 *
 * Each of ifetch/load/store takes the current cycle and returns the
 * stall cycles the access adds beyond the instruction's base cost;
 * stalls are simultaneously attributed to the Fig. 4 CPI buckets.
 *
 * Hot-core structure: the three access entry points are templates
 * over an AccessSpec that fixes the L1 geometry (direct-mapped or
 * set-associative) and the write policy at compile time, so the
 * specialized simulate loops carry no per-reference policy branches.
 * The L1 *hit* paths live here in the header and inline into the
 * simulate loop; every miss path is a non-inlined out-of-line call
 * (misses are rare and their code would otherwise crowd the hit
 * path out of the host I-cache).  GenericAccessSpec instantiates
 * the exact same code with runtime config reads, so the generic and
 * specialized paths are bit-identical by construction.
 *
 * One path, two modes: every access and miss path also takes a
 * compile-time Mode.  Mode::Detail is the cycle-accounting model.
 * Mode::Warm is functional warming for sampled simulation: the same
 * code performs every state mutation -- TLB fills, L1/L2 lookups,
 * LRU touches and allocations, dirty and valid-mask updates,
 * write-buffer pushes and drains, main memory's bus and dirty-buffer
 * evolution -- while `if constexpr` compiles out the stall and CPI
 * bucket arithmetic, so a warm access returns 0 and every time it
 * hands the write buffer and main memory stays at the caller's
 * `now`.  The event counters still tick in warm mode; the
 * resetStats() that starts every measurement interval clears them.
 */

#ifndef GAAS_CORE_CACHE_SYSTEM_HH
#define GAAS_CORE_CACHE_SYSTEM_HH

#include <memory>
#include <optional>

#include "cache/tag_store.hh"
#include "core/config.hh"
#include "core/cpi.hh"
#include "mem/main_memory.hh"
#include "mem/write_buffer.hh"
#include "mmu/mmu.hh"
#include "util/logging.hh"

namespace gaas::core
{

/**
 * Access-path spec that resolves nothing at compile time: geometry
 * and write policy are read from the runtime config, exactly as the
 * pre-specialization simulator did.  The reference path for the
 * equivalence tests, and the fallback for mixed L1 geometries.
 */
struct GenericAccessSpec
{
    static constexpr bool specialized = false;
    /** Unused when !specialized; present so the template compiles. */
    static constexpr bool dmL1 = false;
    static constexpr WritePolicy policy = WritePolicy::WriteBack;
};

/**
 * Fully specialized access path: both L1s share one geometry class
 * (@p DmL1: direct-mapped, else set-associative) and the write
 * policy is @p Policy.  The policy switch and the way-loop choice
 * constant-fold away.
 */
template <bool DmL1, WritePolicy Policy>
struct FastAccessSpec
{
    static constexpr bool specialized = true;
    static constexpr bool dmL1 = DmL1;
    static constexpr WritePolicy policy = Policy;
};

/**
 * What an access path computes (see file comment): Detail charges
 * stall cycles and CPI buckets, Warm only evolves hierarchy state.
 */
enum class Mode
{
    Detail,
    Warm,
};

/** The memory side of the machine; see file comment. */
class CacheSystem
{
  public:
    /** Validates @p config (throws FatalError if inconsistent). */
    explicit CacheSystem(const SystemConfig &config);

    /**
     * Fetch the instruction at @p vaddr for process @p pid.
     * @return stall cycles beyond the base instruction cost
     */
    Cycles
    ifetch(Cycles now, Pid pid, Addr vaddr)
    {
        return ifetchT<GenericAccessSpec>(now, pid, vaddr);
    }

    /** Execute a load; @return stall cycles. */
    Cycles
    load(Cycles now, Pid pid, Addr vaddr)
    {
        return loadT<GenericAccessSpec>(now, pid, vaddr);
    }

    /**
     * Execute a store.
     * @param partial_word the store writes less than a full word
     * @return stall cycles
     */
    Cycles
    store(Cycles now, Pid pid, Addr vaddr, bool partial_word)
    {
        return storeT<GenericAccessSpec>(now, pid, vaddr,
                                         partial_word);
    }

    /** @name Specialized access paths (see file comment) */
    ///@{
    template <class Spec, Mode M = Mode::Detail>
    Cycles ifetchT(Cycles now, Pid pid, Addr vaddr);

    template <class Spec, Mode M = Mode::Detail>
    Cycles loadT(Cycles now, Pid pid, Addr vaddr);

    template <class Spec, Mode M = Mode::Detail>
    Cycles storeT(Cycles now, Pid pid, Addr vaddr,
                  bool partial_word);
    ///@}

    /** Event counters (TLB/WB/memory stats are folded in). */
    SysStats stats() const;

    /** Stall cycles by CPI bucket. */
    const CpiComponents &components() const { return comp; }

    /**
     * Zero every statistic while keeping all cache/TLB/write-buffer
     * state, so measurements can start from a warmed hierarchy (the
     * long-trace discipline of [BKW90] the paper follows).
     */
    void resetStats();

    const SystemConfig &config() const { return cfg; }

    /** @name Introspection for tests */
    ///@{
    const cache::TagStore &l1iStore() const { return l1i; }
    const cache::TagStore &l1dStore() const { return l1d; }
    const cache::TagStore &l2InstStore() const;
    const cache::TagStore &l2DataStore() const;
    const mem::WriteBuffer &writeBuffer() const { return wb; }
    const mem::MainMemory &mainMemory() const { return memory; }
    const mmu::Mmu &mmu() const { return mmuUnit; }
    ///@}

  private:
    struct L2Result
    {
        Cycles access = 0; //!< L2 array access + transfer cycles
        Cycles memory = 0; //!< main-memory cycles on an L2 miss
    };

    /** L1 probe under @p Spec: the way-loop choice constant-folds
     *  when the spec pins the geometry. */
    template <class Spec>
    static cache::TagStore::LineIndex
    l1Lookup(const cache::TagStore &store, Addr paddr)
    {
        if constexpr (Spec::specialized) {
            if constexpr (Spec::dmL1)
                return store.lookupDm(paddr);
            else
                return store.lookupAssoc(paddr);
        } else {
            return store.lookup(paddr);
        }
    }

    /** L1 LRU touch under @p Spec: touchIdx() is a no-op on a
     *  direct-mapped store (nothing reads the stamps), so the
     *  DM-pinned specs drop even its directMapped test. */
    template <class Spec>
    static void
    l1Touch(cache::TagStore &store, cache::TagStore::LineIndex idx)
    {
        if constexpr (Spec::specialized && Spec::dmL1)
            (void)store, (void)idx;
        else
            store.touchIdx(idx);
    }

    /** Charge @p c stall cycles to @p stall and CPI bucket
     *  @p bucket.  Compiled out in warm mode, so a warm path's
     *  stall stays 0 and every `now + stall` it forms is `now`. */
    template <Mode M>
    static void
    charge(Cycles &stall, Cycles &bucket, Cycles c)
    {
        if constexpr (M == Mode::Detail) {
            stall += c;
            bucket += c;
        }
    }

    /** @name Out-of-line miss paths
     *  Kept out of the inlined hit paths on purpose: misses are the
     *  rare case, and the compiler would otherwise inline hundreds
     *  of instructions of drain/refill logic into every simulate
     *  loop specialization.  Instantiated for both modes in
     *  cache_system.cc.
     */
    ///@{
    template <Mode M>
    [[gnu::noinline]] Cycles ifetchMiss(Cycles now, Cycles stall,
                                        Addr paddr);
    template <Mode M>
    [[gnu::noinline]] Cycles
    loadMiss(Cycles now, Cycles stall, Addr paddr,
             cache::TagStore::LineIndex idx);
    template <Mode M>
    [[gnu::noinline]] Cycles storeMissWriteBack(Cycles now,
                                                Cycles stall,
                                                Addr paddr);
    template <Mode M>
    [[gnu::noinline]] Cycles storeMissInvalidate(Cycles stall,
                                                 Addr paddr);
    template <Mode M>
    [[gnu::noinline]] Cycles storeMissWriteOnly(Cycles stall,
                                                Addr paddr);
    template <Mode M>
    [[gnu::noinline]] Cycles storeMissSubblock(Cycles stall,
                                               Addr paddr,
                                               bool partial_word);
    ///@}

    cache::TagStore &l2Store(bool is_inst);
    template <Mode M>
    L2Result l2Access(bool is_inst, Addr paddr, Cycles now,
                      unsigned fetch_words);
    Cycles extraTransferCycles(unsigned fetch_words) const;
    template <Mode M>
    void dataMissWriteBufferWait(Addr paddr, Cycles now,
                                 Cycles &stall);
    void applyWriteToL2(Addr paddr);
    template <Mode M>
    cache::TagStore::Ref refillL1D(Addr paddr, Cycles now,
                                   Cycles &stall);

    SystemConfig cfg;
    mmu::Mmu mmuUnit;
    cache::TagStore l1i;
    cache::TagStore l1d;
    std::optional<cache::TagStore> l2u;  //!< unified
    std::optional<cache::TagStore> l2is; //!< split, instruction side
    std::optional<cache::TagStore> l2ds; //!< split, data side
    mem::WriteBuffer wb;
    mem::MainMemory memory;

    SysStats st;
    CpiComponents comp;
};

// The hot paths.  Statistic increments, LRU touches, and write-buffer
// pushes happen in exactly the order of the original monolithic
// ifetch/load/store; the golden byte-identity harness depends on it.

template <class Spec, Mode M>
Cycles
CacheSystem::ifetchT(Cycles now, Pid pid, Addr vaddr)
{
    ++st.ifetches;
    const auto tr = mmuUnit.translateInst(pid, vaddr);

    Cycles stall = 0;
    if (tr.tlbMiss && cfg.mmu.tlbMissPenalty) [[unlikely]]
        charge<M>(stall, comp.tlb, cfg.mmu.tlbMissPenalty);

    const cache::TagStore::LineIndex idx =
        l1Lookup<Spec>(l1i, tr.paddr);
    if (idx != cache::TagStore::npos) [[likely]] {
        l1Touch<Spec>(l1i, idx);
        return stall;
    }
    return ifetchMiss<M>(now, stall, tr.paddr);
}

template <class Spec, Mode M>
Cycles
CacheSystem::loadT(Cycles now, Pid pid, Addr vaddr)
{
    ++st.loads;
    const auto tr = mmuUnit.translateData(pid, vaddr);

    Cycles stall = 0;
    if (tr.tlbMiss && cfg.mmu.tlbMissPenalty) [[unlikely]]
        charge<M>(stall, comp.tlb, cfg.mmu.tlbMissPenalty);

    WritePolicy wp;
    if constexpr (Spec::specialized)
        wp = Spec::policy;
    else
        wp = cfg.writePolicy;

    const cache::TagStore::LineIndex idx =
        l1Lookup<Spec>(l1d, tr.paddr);
    bool usable = idx != cache::TagStore::npos &&
                  !(l1d.stateAt(idx) & cache::TagStore::kWriteOnlyBit);
    if (wp == WritePolicy::SubblockPlacement && usable)
        usable = (l1d.maskAt(idx) & l1d.wordBit(tr.paddr)) != 0;

    if (usable) [[likely]] {
        l1Touch<Spec>(l1d, idx);
        return stall;
    }
    return loadMiss<M>(now, stall, tr.paddr, idx);
}

template <class Spec, Mode M>
Cycles
CacheSystem::storeT(Cycles now, Pid pid, Addr vaddr,
                    bool partial_word)
{
    ++st.stores;
    const auto tr = mmuUnit.translateData(pid, vaddr);

    Cycles stall = 0;
    if (tr.tlbMiss && cfg.mmu.tlbMissPenalty) [[unlikely]]
        charge<M>(stall, comp.tlb, cfg.mmu.tlbMissPenalty);

    WritePolicy wp;
    if constexpr (Spec::specialized)
        wp = Spec::policy;
    else
        wp = cfg.writePolicy;

    const cache::TagStore::LineIndex idx =
        l1Lookup<Spec>(l1d, tr.paddr);

    if (wp == WritePolicy::WriteBack) {
        if (idx != cache::TagStore::npos) [[likely]] {
            // Write hits take two cycles: the tag is checked before
            // the write commits (Section 2).
            charge<M>(stall, comp.l1Writes, 1);
            l1d.setDirtyAt(idx, true);
            l1Touch<Spec>(l1d, idx);
            return stall;
        }
        return storeMissWriteBack<M>(now, stall, tr.paddr);
    }

    // Write-through family: every write enters the write buffer and
    // is applied to L2 when it drains.
    {
        const Cycles wait = wb.push(now + stall, tr.paddr);
        charge<M>(stall, comp.wbWait, wait);
        applyWriteToL2(tr.paddr);
    }

    switch (wp) {
      case WritePolicy::WriteMissInvalidate:
        if (idx != cache::TagStore::npos) [[likely]] {
            // One-cycle hit: tag checked in parallel with the write.
            l1Touch<Spec>(l1d, idx);
            l1d.setDirtyAt(idx, true);
            return stall;
        }
        return storeMissInvalidate<M>(stall, tr.paddr);

      case WritePolicy::WriteOnly:
        if (idx != cache::TagStore::npos) [[likely]] {
            // Hits -- including hits on write-only lines -- complete
            // in one cycle.
            l1Touch<Spec>(l1d, idx);
            l1d.setDirtyAt(idx, true);
            return stall;
        }
        return storeMissWriteOnly<M>(stall, tr.paddr);

      case WritePolicy::SubblockPlacement:
        if (idx != cache::TagStore::npos) [[likely]] {
            l1Touch<Spec>(l1d, idx);
            l1d.setDirtyAt(idx, true);
            // Word writes validate their word; partial-word writes
            // leave the valid bits unchanged (Section 6).
            if (!partial_word)
                l1d.orMaskAt(idx, l1d.wordBit(tr.paddr));
            return stall;
        }
        return storeMissSubblock<M>(stall, tr.paddr, partial_word);

      case WritePolicy::WriteBack:
        break; // handled above
    }
    gaas_panic("unreachable write policy");
}

} // namespace gaas::core

#endif // GAAS_CORE_CACHE_SYSTEM_HH
