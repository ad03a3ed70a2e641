/**
 * @file
 * Timing-contract tests for core::CacheSystem: every rule of
 * Sections 2 and 6-9 of the paper, checked with hand-computed cycle
 * counts on crafted address sequences.
 *
 * Address notes: pages are 16KB, so two virtual addresses one page
 * apart share their L1 index (the L1s are exactly one page) but have
 * different tags -- a guaranteed direct-mapped conflict.  Test
 * operations are spaced far apart in time so the memory bus is idle
 * unless a test wants contention.
 */

#include <gtest/gtest.h>

#include <cctype>

#include "core/cache_system.hh"
#include "core/config.hh"
#include "util/logging.hh"

namespace gaas::core
{
namespace
{

constexpr Addr kText = 0x0040'0000;
constexpr Addr kData = 0x1000'0000;
constexpr Addr kPage = 16 * 1024;

/** Baseline penalties: L2 access 6, clean 143, dirty 237. */
constexpr Cycles kL2 = 6;
constexpr Cycles kClean = 143;

class CacheSystemTest : public ::testing::Test
{
  protected:
    /** Fresh system; advance t between ops to keep the bus idle. */
    void
    makeSystem(const SystemConfig &cfg)
    {
        sys = std::make_unique<CacheSystem>(cfg);
    }

    Cycles
    step(Cycles stall)
    {
        t += 10'000 + stall;
        return stall;
    }

    std::unique_ptr<CacheSystem> sys;
    Cycles t = 0;
};

TEST_F(CacheSystemTest, IfetchColdMissCostsL2PlusMemory)
{
    makeSystem(baseline());
    const Cycles stall = sys->ifetch(t, 0, kText);
    EXPECT_EQ(stall, kL2 + kClean);
    const auto s = sys->stats();
    EXPECT_EQ(s.ifetches, 1u);
    EXPECT_EQ(s.l1iMisses, 1u);
    EXPECT_EQ(s.l2iAccesses, 1u);
    EXPECT_EQ(s.l2iMisses, 1u);
    EXPECT_EQ(sys->components().l1iMiss, kL2);
    EXPECT_EQ(sys->components().l2iMiss, kClean);
}

TEST_F(CacheSystemTest, IfetchHitsAreFree)
{
    makeSystem(baseline());
    step(sys->ifetch(t, 0, kText));
    EXPECT_EQ(sys->ifetch(t, 0, kText), 0u);
    // Any word of the same 4W line hits.
    EXPECT_EQ(sys->ifetch(t, 0, kText + 4), 0u);
    EXPECT_EQ(sys->ifetch(t, 0, kText + 12), 0u);
    EXPECT_EQ(sys->stats().l1iMisses, 1u);
}

TEST_F(CacheSystemTest, IfetchL2HitCostsAccessTimeOnly)
{
    makeSystem(baseline());
    step(sys->ifetch(t, 0, kText));         // cold: into L1 + L2
    step(sys->ifetch(t, 0, kText + kPage)); // conflicts in L1
    // Refetching the first line: L1 conflict miss, L2 hit.
    EXPECT_EQ(sys->ifetch(t, 0, kText), kL2);
    const auto s = sys->stats();
    EXPECT_EQ(s.l2iAccesses, 3u);
    EXPECT_EQ(s.l2iMisses, 2u);
}

TEST_F(CacheSystemTest, LoadColdMissAndHit)
{
    makeSystem(baseline());
    EXPECT_EQ(step(sys->load(t, 0, kData)), kL2 + kClean);
    EXPECT_EQ(sys->load(t, 0, kData + 8), 0u);
    const auto s = sys->stats();
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.l1dReadMisses, 1u);
    EXPECT_EQ(s.l2dAccesses, 1u);
}

TEST_F(CacheSystemTest, WriteBackStoreHitTakesTwoCycles)
{
    makeSystem(baseline());
    step(sys->load(t, 0, kData));
    // Hit: one extra cycle for the tag check before commit.
    EXPECT_EQ(sys->store(t, 0, kData, false), 1u);
    EXPECT_EQ(sys->components().l1Writes, 1u);
    EXPECT_EQ(sys->stats().l1dWriteMisses, 0u);
}

TEST_F(CacheSystemTest, WriteBackStoreMissAllocates)
{
    makeSystem(baseline());
    // Write-allocate: fetch the line; no extra write cycle.
    EXPECT_EQ(step(sys->store(t, 0, kData, false)), kL2 + kClean);
    EXPECT_EQ(sys->stats().l1dWriteMisses, 1u);
    // The allocated line absorbs both reads and writes.
    EXPECT_EQ(sys->load(t, 0, kData + 4), 0u);
    EXPECT_EQ(sys->store(t, 0, kData + 4, false), 1u);
}

TEST_F(CacheSystemTest, WriteBackDirtyVictimEntersWriteBuffer)
{
    makeSystem(baseline());
    step(sys->load(t, 0, kData));
    step(sys->store(t, 0, kData, false)); // dirty
    // Conflict-evict the dirty line.
    step(sys->load(t, 0, kData + kPage));
    const auto s = sys->stats();
    EXPECT_EQ(s.wb.pushes, 1u);
    // The write-back marked the victim's L2 line dirty.
    EXPECT_EQ(sys->l2DataStore().dirtyCount(), 1u);
}

TEST_F(CacheSystemTest, MissWaitsForWriteBufferDrain)
{
    makeSystem(baseline());
    step(sys->load(t, 0, kData));
    step(sys->store(t, 0, kData, false));
    // Evict the dirty line; the victim enters the write buffer at
    // the *end* of this miss...
    sys->load(t, 0, kData + kPage);
    // ...so an immediately following miss (no time elapsed) must
    // wait for the buffer to empty (Section 2).
    const Cycles before_wait = sys->components().wbWait;
    sys->load(t, 0, kData + 2 * kPage);
    EXPECT_GT(sys->components().wbWait, before_wait);
    EXPECT_GE(sys->stats().wb.drainWaits, 1u);
}

TEST_F(CacheSystemTest, WriteMissInvalidateCorruptsVictimLine)
{
    makeSystem(
        withWritePolicy(baseline(), WritePolicy::WriteMissInvalidate));
    step(sys->load(t, 0, kData)); // line resident
    // A write hit costs nothing extra (tag checked in parallel).
    EXPECT_EQ(sys->store(t, 0, kData, false), 0u);
    step(0);
    // A write miss to the same set takes the extra invalidate cycle
    // and corrupts the resident line.
    EXPECT_EQ(sys->store(t, 0, kData + kPage, false), 1u);
    step(0);
    // The original line was invalidated: the next load misses.
    EXPECT_GT(sys->load(t, 0, kData), 0u);
    EXPECT_EQ(sys->stats().l1dWriteMisses, 1u);
}

TEST_F(CacheSystemTest, WriteOnlyMissMakesSubsequentWritesHit)
{
    makeSystem(withWritePolicy(baseline(), WritePolicy::WriteOnly));
    // Write miss: one extra cycle, tag updated, marked write-only.
    EXPECT_EQ(step(sys->store(t, 0, kData, false)), 1u);
    EXPECT_EQ(sys->stats().l1dWriteMisses, 1u);
    // Subsequent writes to the line complete in one cycle.
    EXPECT_EQ(step(sys->store(t, 0, kData + 4, false)), 0u);
    EXPECT_EQ(step(sys->store(t, 0, kData + 8, false)), 0u);
    EXPECT_EQ(sys->stats().l1dWriteMisses, 1u);
}

TEST_F(CacheSystemTest, WriteOnlyLineMissesOnRead)
{
    makeSystem(withWritePolicy(baseline(), WritePolicy::WriteOnly));
    step(sys->store(t, 0, kData, false));
    // Reads that map to a write-only line miss and reallocate it.
    const Cycles stall = sys->load(t, 0, kData);
    EXPECT_GE(stall, kL2);
    EXPECT_EQ(sys->stats().writeOnlyReadMisses, 1u);
    step(stall);
    // After reallocation the line is readable.
    EXPECT_EQ(sys->load(t, 0, kData + 4), 0u);
}

TEST_F(CacheSystemTest, WriteThroughStoresEnterWriteBuffer)
{
    makeSystem(withWritePolicy(baseline(), WritePolicy::WriteOnly));
    step(sys->store(t, 0, kData, false));
    step(sys->store(t, 0, kData + 4, false));
    EXPECT_EQ(sys->stats().wb.pushes, 2u);
    // The drained writes allocated (and dirtied) the L2 line.
    EXPECT_GE(sys->stats().l2WriteAllocates, 1u);
    EXPECT_EQ(sys->l2DataStore().dirtyCount(), 1u);
}

TEST_F(CacheSystemTest, SubblockValidatesWrittenWordsOnly)
{
    makeSystem(
        withWritePolicy(baseline(), WritePolicy::SubblockPlacement));
    // Word write-miss: tag updated, only this word valid.
    EXPECT_EQ(step(sys->store(t, 0, kData + 4, false)), 1u);
    // Reading the written word hits...
    EXPECT_EQ(step(sys->load(t, 0, kData + 4)), 0u);
    // ...but another word of the line misses.
    EXPECT_GT(sys->load(t, 0, kData + 8), 0u);
}

TEST_F(CacheSystemTest, SubblockWriteHitValidatesItsWord)
{
    makeSystem(
        withWritePolicy(baseline(), WritePolicy::SubblockPlacement));
    step(sys->store(t, 0, kData, false));     // word 0 valid
    step(sys->store(t, 0, kData + 4, false)); // hit; word 1 valid
    EXPECT_EQ(sys->load(t, 0, kData + 4), 0u);
}

TEST_F(CacheSystemTest, SubblockPartialWordWritesDoNotValidate)
{
    makeSystem(
        withWritePolicy(baseline(), WritePolicy::SubblockPlacement));
    // Partial-word write miss: tag updated, no word validated.
    EXPECT_EQ(step(sys->store(t, 0, kData, true)), 1u);
    EXPECT_GT(sys->load(t, 0, kData), 0u);
}

TEST_F(CacheSystemTest, AssociativeBypassSkipsUnrelatedLines)
{
    auto cfg = withWritePolicy(baseline(), WritePolicy::WriteOnly);
    cfg.loadBypass = LoadBypass::Associative;
    makeSystem(cfg);
    sys->store(t, 0, kData, false);
    // A read miss to an unrelated line need not wait (Section 9).
    // (Same page, different L1 set and L2 set: no aliasing.)
    const Cycles stall = sys->load(t, 0, kData + 8192);
    EXPECT_EQ(stall, kL2 + kClean);
    EXPECT_GE(sys->stats().wb.bypasses, 1u);
    EXPECT_EQ(sys->components().wbWait, 0u);
}

TEST_F(CacheSystemTest, AssociativeBypassWaitsOnMatch)
{
    auto cfg = withWritePolicy(baseline(), WritePolicy::WriteOnly);
    cfg.loadBypass = LoadBypass::Associative;
    makeSystem(cfg);
    sys->store(t, 0, kData, false);
    // Reading the just-written (write-only) line must flush the
    // matching entry first.
    sys->load(t, 0, kData);
    EXPECT_GT(sys->components().wbWait, 0u);
}

TEST_F(CacheSystemTest, DirtyBitBypassChecksVictimOnly)
{
    auto cfg = withWritePolicy(baseline(), WritePolicy::WriteOnly);
    cfg.loadBypass = LoadBypass::DirtyBit;
    makeSystem(cfg);
    sys->store(t, 0, kData, false);
    // Miss replacing an *invalid* slot (different L1 set): no
    // flush needed.
    const Cycles before = sys->components().wbWait;
    sys->load(t, 0, kData + 8192);
    EXPECT_EQ(sys->components().wbWait, before);
    // Miss on the dirty (write-only) line itself: flush.
    sys->load(t, 0, kData);
    EXPECT_GT(sys->components().wbWait, before);
}

TEST_F(CacheSystemTest, ConcurrentIRefillSkipsWriteBufferWait)
{
    auto cfg = afterSplitL2();
    cfg.concurrentIRefill = true;
    makeSystem(cfg);
    // Queue a store, then immediately miss in L1-I: the I-refill
    // proceeds from L2-I concurrently with the drain into L2-D.
    sys->store(t, 0, kData, false);
    sys->ifetch(t, 0, kText);
    EXPECT_EQ(sys->components().wbWait, 0u);
}

TEST_F(CacheSystemTest, FetchSizeAddsTransferBeats)
{
    // 8W fetch at 4 words/cycle adds one beat beyond the first 4W.
    auto cfg = afterFetchSize();
    makeSystem(cfg);
    const Cycles stall = sys->ifetch(t, 0, kText);
    // L2-I access time 2 (+1 beat) + memory.
    EXPECT_EQ(stall, 2u + 1u + kClean);
    EXPECT_EQ(sys->components().l1iMiss, 3u);
}

TEST_F(CacheSystemTest, TlbMissPenaltyCharged)
{
    auto cfg = baseline();
    cfg.mmu.tlbMissPenalty = 20;
    makeSystem(cfg);
    const Cycles stall = sys->ifetch(t, 0, kText);
    EXPECT_EQ(stall, 20u + kL2 + kClean);
    EXPECT_EQ(sys->components().tlb, 20u);
    step(stall);
    // Second access to the same line and page: all hits.
    EXPECT_EQ(sys->ifetch(t, 0, kText + 4), 0u);
}

TEST_F(CacheSystemTest, PidsKeepAddressSpacesDistinct)
{
    makeSystem(baseline());
    step(sys->ifetch(t, 0, kText));
    // The same virtual address in another process is a different
    // physical line: it must miss.
    EXPECT_GT(sys->ifetch(t, 1, kText), 0u);
    EXPECT_EQ(sys->stats().l1iMisses, 2u);
}

TEST_F(CacheSystemTest, LogicalSplitSeparatesInstAndData)
{
    auto cfg = afterWritePolicy();
    cfg.l2Org = L2Org::LogicalSplit;
    makeSystem(cfg);
    EXPECT_NE(&sys->l2InstStore(), &sys->l2DataStore());
    // Each half is half the unified capacity.
    EXPECT_EQ(sys->l2InstStore().config().sizeWords,
              cfg.l2.cache.sizeWords / 2);
}

TEST_F(CacheSystemTest, UnifiedL2SharesOneStore)
{
    makeSystem(baseline());
    EXPECT_EQ(&sys->l2InstStore(), &sys->l2DataStore());
}

TEST_F(CacheSystemTest, DirtyL2MissPaysDirtyPenalty)
{
    // Force an L2 eviction of a dirty line with a tiny L2.
    auto cfg = baseline();
    cfg.l2.cache.sizeWords = 1024; // 32 lines of 32W
    makeSystem(cfg);
    step(sys->load(t, 0, kData));
    step(sys->store(t, 0, kData, false));
    // Evict the dirty L1 line so its write-back dirties L2.
    step(sys->load(t, 0, kData + kPage));
    // Now push the dirty L2 line out: its set repeats every
    // 1024 words = 4KB of physical address space; page colouring
    // keeps low page bits, so +4KB within the same page conflicts.
    const Cycles stall = sys->load(t, 0, kData + 4096);
    (void)stall;
    // Somewhere in this sequence a dirty L2 miss occurred.
    Cycles total_dirty = sys->stats().l2DirtyMisses;
    if (total_dirty == 0) {
        // One more conflicting line settles it regardless of layout.
        step(0);
        sys->load(t, 0, kData + 8192);
        total_dirty = sys->stats().l2DirtyMisses;
    }
    EXPECT_GE(total_dirty, 1u);
}

TEST_F(CacheSystemTest, ResetStatsPreservesCacheContents)
{
    makeSystem(baseline());
    step(sys->ifetch(t, 0, kText));
    sys->resetStats();
    EXPECT_EQ(sys->stats().ifetches, 0u);
    // Still a hit: the line survived the reset.
    EXPECT_EQ(sys->ifetch(t, 0, kText), 0u);
}

TEST_F(CacheSystemTest, StatsAggregateSubsystems)
{
    makeSystem(baseline());
    step(sys->ifetch(t, 0, kText));
    step(sys->load(t, 0, kData));
    const auto s = sys->stats();
    EXPECT_EQ(s.itlb.accesses, 1u);
    EXPECT_EQ(s.dtlb.accesses, 1u);
    EXPECT_EQ(s.memory.reads, 2u);
}

/** Config validation failures the system must reject. */
TEST(CacheSystemConfig, RejectsInconsistentConfigs)
{
    // Concurrent I-refill needs a split L2.
    auto cfg = baseline();
    cfg.concurrentIRefill = true;
    EXPECT_THROW(CacheSystem{cfg}, FatalError);

    // Dirty-bit bypass needs the write-only policy.
    cfg = withWritePolicy(baseline(), WritePolicy::SubblockPlacement);
    cfg.loadBypass = LoadBypass::DirtyBit;
    EXPECT_THROW(CacheSystem{cfg}, FatalError);

    // Load bypass does not apply to the write-back buffer.
    cfg = baseline();
    cfg.loadBypass = LoadBypass::Associative;
    EXPECT_THROW(CacheSystem{cfg}, FatalError);

    // Write-back victims need line-sized WB entries.
    cfg = baseline();
    cfg.wbEntryWords = 1;
    EXPECT_THROW(CacheSystem{cfg}, FatalError);

    // L2 lines must cover L1 lines.
    cfg = baseline();
    cfg.l2.cache.lineWords = 2;
    cfg.l2.cache.fetchWords = 2;
    EXPECT_THROW(CacheSystem{cfg}, FatalError);
}

} // namespace

/**
 * Print a preset by name.  gtest's default byte dump of a
 * SystemConfig embeds heap addresses, which made the listed test
 * names differ from one build to the next.
 */
void
PrintTo(const SystemConfig &cfg, std::ostream *os)
{
    *os << cfg.name;
}

namespace
{

/** All presets must construct and describe themselves. */
class PresetTest : public ::testing::TestWithParam<SystemConfig>
{
};

TEST_P(PresetTest, ConstructsAndDescribes)
{
    const SystemConfig &cfg = GetParam();
    EXPECT_NO_THROW(cfg.validate());
    CacheSystem sys(cfg);
    EXPECT_FALSE(cfg.describe().empty());
    EXPECT_EQ(&sys.config().l1i, &sys.config().l1i);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetTest,
    ::testing::Values(baseline(), afterWritePolicy(), afterSplitL2(),
                      afterFetchSize(), afterConcurrentIRefill(),
                      afterLoadBypass(), optimized(),
                      splitL2Exchanged()),
    [](const auto &info) {
        std::string name = info.param.name;
        for (char &ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

} // namespace
} // namespace gaas::core
