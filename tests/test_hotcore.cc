/**
 * @file
 * Hot-core equivalence tests: the compile-time specialized simulate
 * loops (FastAccessSpec, picked by Simulator::pickLoop) must be
 * bit-identical to the generic runtime-dispatched path for every
 * configuration class they cover.  Randomized reference streams are
 * driven through both paths across direct-mapped / set-associative
 * L1s and all four write policies, and the full stats dumps are
 * compared byte for byte -- the same contract the golden harness
 * enforces across releases, applied here across code paths.  The
 * same holds for functional warming (Mode::Warm), which must also
 * leave exactly the cache state a detailed run does.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/simulator.hh"
#include "core/stats_dump.hh"
#include "core/workload.hh"
#include "trace/memref.hh"
#include "trace/source.hh"
#include "util/random.hh"

namespace gaas::core
{
namespace
{

/**
 * A well-formed random reference stream: every record group is one
 * instruction followed by at most one data reference, addresses are
 * word-aligned, and the address pattern mixes sequential runs with
 * random jumps so both cache levels see hits, misses, writebacks
 * and (at assoc > 1) LRU churn.
 */
std::vector<trace::MemRef>
randomStream(std::uint64_t seed, std::size_t instructions)
{
    Rng rng(seed);
    std::vector<trace::MemRef> refs;
    refs.reserve(instructions * 2);

    Addr iaddr = 0x40'0000;
    for (std::size_t i = 0; i < instructions; ++i) {
        // Mostly straight-line code, occasional jump to a new page.
        if (rng.nextDouble() < 0.02)
            iaddr = (rng.nextBounded(1u << 22) & ~Addr{3});
        refs.push_back(
            trace::instRef(iaddr, rng.nextDouble() < 0.001));
        iaddr += 4;

        const double roll = rng.nextDouble();
        if (roll < 0.25) {
            refs.push_back(trace::loadRef(
                rng.nextBounded(1u << 20) & ~Addr{3}));
        } else if (roll < 0.40) {
            refs.push_back(trace::storeRef(
                rng.nextBounded(1u << 20) & ~Addr{3},
                rng.nextDouble() < 0.2));
        }
    }
    return refs;
}

/** Two-process workload over independent random streams. */
Workload
randomWorkload(std::uint64_t seed, std::size_t instructions)
{
    Workload wl;
    wl.add(std::make_unique<trace::VectorSource>(
               "rnd-a", randomStream(seed, instructions)),
           1.4, "rnd-a");
    wl.add(std::make_unique<trace::VectorSource>(
               "rnd-b", randomStream(seed ^ 0xabcdef, instructions)),
           1.7, "rnd-b");
    return wl;
}

/** Baseline reshaped to @p assoc L1s under @p policy. */
SystemConfig
configFor(unsigned assoc, WritePolicy policy)
{
    SystemConfig cfg = withWritePolicy(baseline(), policy);
    cfg.l1i.assoc = assoc;
    cfg.l1d.assoc = assoc;
    cfg.name = "hotcore-a" + std::to_string(assoc);
    return cfg;
}

std::string
dumpText(const SimResult &res)
{
    std::ostringstream os;
    dumpStats(res, os);
    return os.str();
}

constexpr WritePolicy kPolicies[] = {
    WritePolicy::WriteBack,
    WritePolicy::WriteMissInvalidate,
    WritePolicy::WriteOnly,
    WritePolicy::SubblockPlacement,
};

TEST(HotCore, SpecializedMatchesGenericOnRandomStreams)
{
    constexpr std::size_t kInstructions = 8'000;
    // Detail: a run with warmup.  Warm: functional warming
    // (Mode::Warm), then a detailed interval that exposes any
    // divergence in the L1/L2/TLB/write-buffer/memory state the
    // warming left.
    const auto drive = [](Simulator &sim, bool warm) {
        if (!warm)
            return sim.run(10'000, 2'000);
        sim.runWarm(6'000);
        sim.resetMeasurement();
        return sim.run(6'000, 0);
    };
    for (const unsigned assoc : {1u, 2u}) {
        for (const WritePolicy policy : kPolicies) {
            for (const std::uint64_t seed : {1ull, 42ull, 9001ull}) {
                for (const bool warm : {false, true}) {
                    const SystemConfig cfg = configFor(assoc, policy);

                    Simulator fast(
                        cfg, randomWorkload(seed, kInstructions));
                    ASSERT_FALSE(fast.usingGenericPath())
                        << "policy " << writePolicyName(policy)
                        << " assoc " << assoc
                        << " should have a specialized loop";

                    Simulator generic(
                        cfg, randomWorkload(seed, kInstructions));
                    generic.setForceGenericPath(true);
                    ASSERT_TRUE(generic.usingGenericPath());

                    EXPECT_EQ(dumpText(drive(fast, warm)),
                              dumpText(drive(generic, warm)))
                        << "policy " << writePolicyName(policy)
                        << " assoc " << assoc << " seed " << seed
                        << (warm ? " after warming" : "");
                }
            }
        }
    }
}

TEST(HotCore, SpecializedMatchesGenericOnStandardWorkload)
{
    // The standard synthetic workload goes through the trace arena's
    // packed replay path (when enabled), so this covers the packed
    // decode under both access paths too.
    for (const unsigned assoc : {1u, 2u}) {
        const SystemConfig cfg =
            configFor(assoc, WritePolicy::WriteBack);

        Simulator fast(cfg, Workload::standard(4, 30'000));
        ASSERT_FALSE(fast.usingGenericPath());
        Simulator generic(cfg, Workload::standard(4, 30'000));
        generic.setForceGenericPath(true);

        const auto fastRes = fast.run(25'000, 5'000);
        const auto genRes = generic.run(25'000, 5'000);
        EXPECT_EQ(dumpText(fastRes), dumpText(genRes))
            << "assoc " << assoc;
    }
}

/**
 * randomStream with the noise a raw trace may carry: byte offsets
 * on instruction, load and store addresses (up to just below 2^31),
 * and stray flags on kinds they mean nothing for (syscall on data
 * records, partialWord on instructions and loads).
 */
std::vector<trace::MemRef>
noisyStream(std::uint64_t seed, std::size_t instructions)
{
    Rng rng(seed ^ 0x5a5a);
    std::vector<trace::MemRef> refs = randomStream(seed, instructions);
    for (trace::MemRef &ref : refs) {
        if (rng.nextDouble() < 0.01)
            ref.addr = (Addr{1} << 31) - 4 * (1 + rng.nextBounded(64));
        ref.addr |= rng.nextBounded(4);
        if (ref.isData())
            ref.syscall = rng.nextDouble() < 0.05;
        if (!ref.isStore())
            ref.partialWord = rng.nextDouble() < 0.05;
    }
    return refs;
}

/** @p refs as the packed word keeps them: addresses word aligned,
 *  flags only where their kind gives them a meaning. */
std::vector<trace::MemRef>
normalised(std::vector<trace::MemRef> refs)
{
    for (trace::MemRef &ref : refs) {
        ref.addr &= ~Addr{3};
        ref.syscall = ref.syscall && ref.isInst();
        ref.partialWord = ref.partialWord && ref.isStore();
    }
    return refs;
}

TEST(HotCore, RawReferencesMatchTheirNormalisedCopy)
{
    // The simulator ignores address bits [1:0] (tags and set indexes
    // use line bits, the subblock valid mask starts at bit 2, the
    // write buffer matches by line) and flags on kinds they do not
    // apply to, so normalising at ingest cannot move a result.
    constexpr std::size_t kInstructions = 6'000;
    const auto workload = [](bool normalise) {
        Workload wl;
        for (const std::uint64_t seed : {3ull, 77ull, 512ull}) {
            auto refs = noisyStream(seed, kInstructions);
            if (normalise)
                refs = normalised(std::move(refs));
            const std::string name = "noisy" + std::to_string(seed);
            wl.add(std::make_unique<trace::VectorSource>(
                       name, std::move(refs)),
                   1.3, name);
        }
        return wl;
    };
    for (const unsigned assoc : {1u, 2u}) {
        for (const WritePolicy policy : kPolicies) {
            for (const bool generic : {false, true}) {
                SystemConfig cfg = configFor(assoc, policy);
                cfg.timeSliceCycles = 4'000;
                SCOPED_TRACE(std::string("policy ") +
                             writePolicyName(policy) + " assoc " +
                             std::to_string(assoc) +
                             (generic ? " generic" : " specialised"));
                Simulator raw(cfg, workload(false));
                Simulator clean(cfg, workload(true));
                raw.setForceGenericPath(generic);
                clean.setForceGenericPath(generic);
                const SimResult a = raw.run(20'000, 1'000);
                const SimResult b = clean.run(20'000, 1'000);
                EXPECT_GT(a.syscallSwitches, 0u);
                EXPECT_EQ(a.instructions, b.instructions);
                EXPECT_EQ(a.cycles, b.cycles);
                EXPECT_EQ(a.cpuStallCycles, b.cpuStallCycles);
                EXPECT_EQ(a.contextSwitches, b.contextSwitches);
                EXPECT_EQ(a.syscallSwitches, b.syscallSwitches);
                EXPECT_EQ(dumpText(a), dumpText(b));
            }
        }
    }
}

TEST(HotCore, MixedGeometryFallsBackToGeneric)
{
    SystemConfig cfg = configFor(1, WritePolicy::WriteBack);
    cfg.l1d.assoc = 2; // mixed: dm I-side, 2-way D-side
    Simulator sim(cfg, randomWorkload(7, 1'000));
    EXPECT_TRUE(sim.usingGenericPath());
}

/** Every line of @p a and @p b agrees in tag, state and mask. */
::testing::AssertionResult
sameLines(const cache::TagStore &a, const cache::TagStore &b)
{
    for (cache::TagStore::LineIndex i = 0; i < a.config().lines();
         ++i) {
        if (a.tagAt(i) != b.tagAt(i) || a.stateAt(i) != b.stateAt(i) ||
            a.maskAt(i) != b.maskAt(i)) {
            return ::testing::AssertionFailure()
                   << "line " << i << ": tag " << a.tagAt(i) << "/"
                   << b.tagAt(i) << " state "
                   << unsigned{a.stateAt(i)} << "/"
                   << unsigned{b.stateAt(i)} << " mask "
                   << a.maskAt(i) << "/" << b.maskAt(i);
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(HotCore, WarmModeLeavesDetailedCacheState)
{
    // The contract functional warming rests on: Mode::Warm performs
    // exactly the detailed path's cache-state mutations.  With one
    // process the instruction order cannot depend on stall cycles
    // (a context switch returns to the same process), so warming n
    // instructions and simulating them in detail must leave every
    // L1-I, L1-D and L2 line identical, for every write policy and
    // every load-bypass scheme validate() admits with it.
    constexpr std::size_t kInstructions = 20'000;
    constexpr LoadBypass kBypasses[] = {
        LoadBypass::None,
        LoadBypass::Associative,
        LoadBypass::DirtyBit,
    };
    for (const unsigned assoc : {1u, 2u}) {
        for (const WritePolicy policy : kPolicies) {
            for (const LoadBypass bypass : kBypasses) {
                if (bypass != LoadBypass::None &&
                    policy == WritePolicy::WriteBack)
                    continue;
                if (bypass == LoadBypass::DirtyBit &&
                    policy != WritePolicy::WriteOnly)
                    continue;
                SystemConfig cfg = configFor(assoc, policy);
                cfg.loadBypass = bypass;
                SCOPED_TRACE(std::string("policy ") +
                             writePolicyName(policy) + " bypass " +
                             loadBypassName(bypass) + " assoc " +
                             std::to_string(assoc));

                const auto single = [&] {
                    Workload wl;
                    wl.add(std::make_unique<trace::VectorSource>(
                               "rnd", randomStream(11, kInstructions)),
                           1.5, "rnd");
                    return wl;
                };
                Simulator warm(cfg, single());
                Simulator detail(cfg, single());
                warm.runWarm(kInstructions);
                detail.run(kInstructions);

                const CacheSystem &w = warm.system();
                const CacheSystem &d = detail.system();
                EXPECT_GT(d.l2DataStore().validCount(), 0u);
                EXPECT_TRUE(sameLines(w.l1iStore(), d.l1iStore()));
                EXPECT_TRUE(sameLines(w.l1dStore(), d.l1dStore()));
                EXPECT_TRUE(
                    sameLines(w.l2InstStore(), d.l2InstStore()));
                EXPECT_TRUE(
                    sameLines(w.l2DataStore(), d.l2DataStore()));
            }
        }
    }
}

} // namespace
} // namespace gaas::core
