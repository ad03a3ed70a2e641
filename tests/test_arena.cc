/**
 * @file
 * Tests for the shared trace arena: packed replay is bit-identical
 * to running the generators fresh (per stream and end-to-end across
 * mp levels), concurrent first-touch growth is safe (exercised under
 * TSan), tryEnsure and acquire never wait on another thread's
 * growth, threads that acquire the same cold streams -- one at a time
 * like a seeded builder, through Workload::standard, or through
 * Workload::fromTraceFiles -- split their generation, records the
 * packed layout cannot hold are rejected, the high-water mark makes
 * second jobs generation-free, and GAAS_BENCH_ARENA=0 restores the
 * per-job generator path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/config.hh"
#include "core/simulator.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "core/workload.hh"
#include "synth/benchmark.hh"
#include "synth/suite.hh"
#include "trace/arena.hh"
#include "trace/compose.hh"
#include "trace/packed.hh"
#include "trace/source.hh"
#include "trace/v3.hh"
#include "util/error.hh"

namespace gaas::trace
{
namespace
{

/** RAII GAAS_BENCH_ARENA override (restores "unset" on exit). */
class ArenaEnv
{
  public:
    explicit ArenaEnv(const char *value)
    {
        if (value)
            ::setenv("GAAS_BENCH_ARENA", value, 1);
        else
            ::unsetenv("GAAS_BENCH_ARENA");
    }
    ~ArenaEnv() { ::unsetenv("GAAS_BENCH_ARENA"); }
};

/** A small suite benchmark with a test-sized pass. */
synth::BenchmarkSpec
smallSpec(std::uint64_t sim_instructions = 50'000)
{
    synth::BenchmarkSpec spec = synth::workloadSpecs(1).front();
    spec.simInstructions = sim_instructions;
    return spec;
}

std::vector<MemRef>
drain(TraceSource &src)
{
    std::vector<MemRef> out;
    MemRef buf[257];
    std::size_t got;
    while ((got = src.nextBatch(buf, 257)) > 0)
        out.insert(out.end(), buf, buf + got);
    return out;
}

/** The level-@p mp suite specs with every seed remixed afresh on
 *  each call, so their keys are cold in the global arena even when
 *  a test repeats in one process. */
std::vector<synth::BenchmarkSpec>
remixedSpecs(unsigned mp)
{
    static std::atomic<std::uint64_t> calls{0};
    const std::uint64_t salt = ++calls * 0x9e37'79b9'7f4a'7c15ull;
    std::vector<synth::BenchmarkSpec> specs = synth::workloadSpecs(mp);
    for (auto &spec : specs)
        spec.seed ^= salt;
    return specs;
}

/** The first @p n records of a fresh generator for @p spec. */
std::vector<MemRef>
freshPrefix(const synth::BenchmarkSpec &spec, std::size_t n)
{
    std::vector<MemRef> out(n);
    auto fresh = synth::makeBenchmark(spec);
    out.resize(fresh->nextBatch(out.data(), n));
    return out;
}

/** The first @p n records replayed from @p stream. */
std::vector<MemRef>
replayPrefix(ArenaStream *stream, std::size_t n)
{
    std::vector<MemRef> out(n);
    ArenaSource view(stream, "view");
    out.resize(view.nextBatch(out.data(), n));
    return out;
}

/**
 * Acquire stream @p i of @p specs from the global arena the way a
 * seeded workload builder does (Workload::standard's key and bound),
 * with size hint @p hint.
 */
ArenaStream *
acquireSpecStream(const std::vector<synth::BenchmarkSpec> &specs,
                  std::size_t i, std::size_t hint)
{
    const synth::BenchmarkSpec &spec = specs[i];
    const std::string key = synth::specDigest(spec) + ":" +
                            std::to_string(specs.size()) + ":" +
                            std::to_string(i);
    return TraceArena::global().acquire(
        key, 2 * spec.simInstructions, hint,
        [spec] { return synth::makeBenchmark(spec); });
}

/** Wait up to 30 s for @p done; false means it is stuck. */
template <typename T>
bool
finishes(std::future<T> &done)
{
    return done.wait_for(std::chrono::seconds(30)) ==
           std::future_status::ready;
}

std::string
statsText(const core::SimResult &result)
{
    std::ostringstream os;
    core::dumpStats(result, os);
    return os.str();
}

TEST(ArenaStream, ReplayMatchesGeneratorBitExactly)
{
    const synth::BenchmarkSpec spec = smallSpec();
    auto fresh = synth::makeBenchmark(spec);
    const std::vector<MemRef> expected = drain(*fresh);
    ASSERT_FALSE(expected.empty());

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "test-stream", 2 * spec.simInstructions, /*ref_hint=*/0,
        [spec] { return synth::makeBenchmark(spec); });
    ArenaSource view(stream, "view");
    EXPECT_EQ(drain(view), expected);
    EXPECT_EQ(stream->passRefs(), expected.size());

    // reset() replays the pass identically (zero regeneration: the
    // second drain starts with everything already published).
    view.reset();
    EXPECT_EQ(drain(view), expected);
}

/** A VectorSource that also emits its records packed, as the
 *  synthetic generator does. */
class PackedVectorSource : public VectorSource
{
  public:
    using VectorSource::VectorSource;

    std::size_t
    nextBatchPacked(std::uint32_t *out, std::size_t n) override
    {
        std::vector<MemRef> refs(n);
        const std::size_t got = nextBatch(refs.data(), n);
        for (std::size_t i = 0; i < got; ++i)
            out[i] = packed::pack(refs[i]);
        return got;
    }
};

TEST(ArenaStream, PackedGeneratorFillsBlocksAcrossTheirEdges)
{
    // A synthetic stream longer than one block arrives through the
    // generator's packed path and replays like a fresh generator.
    const synth::BenchmarkSpec spec = smallSpec(300'000);
    auto fresh = synth::makeBenchmark(spec);
    const std::vector<MemRef> expected = drain(*fresh);
    ASSERT_GT(expected.size(), ArenaStream::kBlockRefs);

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "packed", 2 * spec.simInstructions, expected.size(),
        [spec] { return synth::makeBenchmark(spec); });
    ArenaSource view(stream, "view");
    EXPECT_EQ(drain(view), expected);
    EXPECT_EQ(stream->passRefs(), expected.size());
    EXPECT_EQ(stream->bytes(),
              2 * ArenaStream::kBlockRefs * sizeof(std::uint32_t));
}

TEST(ArenaStream, PackedPassEndingOnABlockEdgeKeepsNoEmptyBlock)
{
    // The pass fills block 0 exactly: the probe that finds its end
    // must not leave block 1 allocated.
    std::vector<MemRef> records;
    for (std::size_t i = 0; i < ArenaStream::kBlockRefs; ++i)
        records.push_back(instRef(0x0040'0000 + 4 * i));
    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "edge", 2 * records.size(), 0, [&records] {
            return std::make_unique<PackedVectorSource>("edge", records);
        });
    stream->ensure(2 * records.size());
    EXPECT_EQ(stream->passRefs(), records.size());
    EXPECT_EQ(stream->bytes(),
              ArenaStream::kBlockRefs * sizeof(std::uint32_t));
    ArenaSource view(stream, "view");
    EXPECT_EQ(drain(view), records);
}

TEST(ArenaStream, SyntheticStreamPast2To31IsRejectedAtItsReference)
{
    // A spec whose arrays reach past 2^31 has no packed path, so the
    // arena packs its records itself and names the first it cannot.
    synth::BenchmarkSpec spec = synth::workloadSpecs(8)[3];
    spec.data.arrayWords = 200'000'000;
    spec.simInstructions = 100'000;
    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "wide", 2 * spec.simInstructions, 0,
        [spec] { return synth::makeBenchmark(spec); });
    try {
        stream->ensure(2 * spec.simInstructions);
        FAIL() << "an address past 2^31 was packed";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Internal);
        EXPECT_NE(std::string(e.what()).find("of stream 'wide'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(stream->publishedRefs(), 0u);
}

TEST(ArenaStream, PacksEveryFlagCombination)
{
    // syscall Inst and partial-word Store exercise the shared flag
    // bit of the packed layout; a pass bound equal to the record
    // count also exercises the bound-exact completion probe.
    const std::vector<MemRef> records = {
        instRef(0x0040'0000),
        instRef(0x0040'0004, /*syscall=*/true),
        loadRef(0x1000'0000),
        storeRef(0x7ffe'ff00),
        storeRef(0x7ffe'ff04, /*partial_word=*/true),
        instRef(0x7fff'fffc),
    };
    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "flags", records.size(), records.size(), [&records] {
            return std::make_unique<VectorSource>("flags", records);
        });
    ArenaSource view(stream, "view");
    EXPECT_EQ(drain(view), records);
    EXPECT_EQ(stream->passRefs(), records.size());
    EXPECT_GT(stream->bytes(), 0u);
}

TEST(ArenaSource, SkipMatchesDiscardedReadsOnColdAndWarmStream)
{
    // skip() on a cold stream triggers generation up to the target
    // (interval seeking must not change what is generated); on a
    // warm stream it is pure pointer arithmetic.  Either way the
    // tail after a skip must equal the tail after that many reads.
    const synth::BenchmarkSpec spec = smallSpec(20'000);
    auto fresh = synth::makeBenchmark(spec);
    const std::vector<MemRef> expected = drain(*fresh);
    ASSERT_GT(expected.size(), 1000u);

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "skip", 2 * spec.simInstructions, 0,
        [spec] { return synth::makeBenchmark(spec); });

    for (std::size_t skip : {std::size_t{0}, std::size_t{997},
                             expected.size() - 1}) {
        ArenaSource view(stream, "view");
        ASSERT_EQ(view.skip(skip), skip);
        MemRef ref;
        ASSERT_TRUE(view.next(ref)) << "skip " << skip;
        EXPECT_EQ(ref, expected[skip]) << "skip " << skip;
    }
}

TEST(ArenaSource, SkipClampsAtPassEnd)
{
    const synth::BenchmarkSpec spec = smallSpec(10'000);
    auto fresh = synth::makeBenchmark(spec);
    const std::size_t passLen = drain(*fresh).size();

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "skip-end", 2 * spec.simInstructions, 0,
        [spec] { return synth::makeBenchmark(spec); });

    // A skip past the pass end consumes only what exists ...
    ArenaSource view(stream, "view");
    EXPECT_EQ(view.skip(passLen + 12345), passLen);
    MemRef ref;
    EXPECT_FALSE(view.next(ref));

    // ... which is exactly what LoopSource needs to learn the pass
    // length and wrap: a looped view lands at (position + n) mod
    // pass length, however large the skip.
    LoopSource looped(
        std::make_unique<ArenaSource>(stream, "looped"));
    const std::size_t skip = 3 * passLen + 17;
    EXPECT_EQ(looped.skip(skip), skip);
    ArenaSource probe(stream, "probe");
    ASSERT_EQ(probe.skip(17u), 17u);
    MemRef fromLoop, fromProbe;
    ASSERT_TRUE(looped.next(fromLoop));
    ASSERT_TRUE(probe.next(fromProbe));
    EXPECT_EQ(fromLoop, fromProbe);
}

TEST(ArenaStream, ConcurrentFirstTouchGrowth)
{
    // Several readers race to grow one cold stream with mutually
    // prime batch sizes; every one must observe the full generator
    // pass.  Run under TSan this is the publication-ordering proof.
    const synth::BenchmarkSpec spec = smallSpec(30'000);
    auto fresh = synth::makeBenchmark(spec);
    const std::vector<MemRef> expected = drain(*fresh);

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "race", 2 * spec.simInstructions, 0,
        [spec] { return synth::makeBenchmark(spec); });

    constexpr std::size_t kReaders = 4;
    const std::size_t batch[kReaders] = {61, 127, 509, 1021};
    std::vector<std::vector<MemRef>> seen(kReaders);
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            ArenaSource view(stream, "view");
            std::vector<MemRef> buf(batch[r]);
            std::size_t got;
            while ((got = view.nextBatch(buf.data(), batch[r])) > 0)
                seen[r].insert(seen[r].end(), buf.begin(),
                               buf.begin() + got);
        });
    }
    for (auto &t : readers)
        t.join();
    for (std::size_t r = 0; r < kReaders; ++r)
        EXPECT_EQ(seen[r], expected) << "reader " << r;
}

TEST(ArenaStream, TryEnsureFailsFastWhileAnotherThreadGrows)
{
    // The factory runs under the growth mutex, so a grower parked on
    // the latch holds the mutex for as long as the test needs.
    const std::vector<MemRef> records = {instRef(0x0040'0000),
                                         loadRef(0x1000'0000)};
    std::latch entered(1), release(1);
    TraceArena arena;
    ArenaStream *stream =
        arena.acquire("busy", records.size(), 0, [&] {
            entered.count_down();
            release.wait();
            return std::make_unique<VectorSource>("busy", records);
        });
    std::thread grower([&] { stream->ensure(records.size()); });
    entered.wait();
    EXPECT_FALSE(stream->tryEnsure(records.size()));
    EXPECT_EQ(stream->publishedRefs(), 0u);
    release.count_down();
    grower.join();

    // Published references satisfy tryEnsure without the mutex.
    EXPECT_TRUE(stream->tryEnsure(records.size()));
    ArenaSource view(stream, "view");
    EXPECT_EQ(drain(view), records);
}

TEST(TraceArena, AcquireMovesPastAStreamAnotherThreadIsGrowing)
{
    // Stream 0's factory parks on the latch while it holds the
    // stream's growth mutex.  Another thread's in-order acquisition
    // of all eight streams with a size hint must not wait for it:
    // it comes back with stream 0 unpublished and streams 1-7
    // generated, and its first reads replay the fresh generators.
    ArenaEnv on(nullptr);
    const auto specs = remixedSpecs(8);
    constexpr std::size_t kHint = 20'000;
    std::latch entered(1), release(1);
    std::thread grower([&] {
        const synth::BenchmarkSpec spec = specs[0];
        TraceArena::global().acquire(
            synth::specDigest(spec) + ":8:0", 2 * spec.simInstructions,
            kHint, [&, spec] {
                entered.count_down();
                release.wait();
                return synth::makeBenchmark(spec);
            });
    });
    entered.wait();
    auto builder = std::async(std::launch::async, [&] {
        std::vector<ArenaStream *> streams;
        for (std::size_t i = 0; i < specs.size(); ++i)
            streams.push_back(acquireSpecStream(specs, i, kHint));
        return streams;
    });
    std::vector<ArenaStream *> streams;
    if (finishes(builder)) {
        streams = builder.get();
        EXPECT_EQ(streams[0]->publishedRefs(), 0u);
        for (std::size_t i = 1; i < specs.size(); ++i)
            EXPECT_GE(streams[i]->publishedRefs(), kHint) << i;
    } else {
        ADD_FAILURE() << "acquire queued behind stream 0's growth";
    }
    release.count_down();
    grower.join();
    if (streams.empty())
        streams = builder.get();

    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(replayPrefix(streams[i], kHint),
                  freshPrefix(specs[i], kHint))
            << "stream " << i;
}

TEST(ArenaStream, RejectsUnpackableReferences)
{
    // An unaligned or >= 2^31 address cannot be packed.  The bad
    // record sits mid-block, on the last slot of the first block and
    // on the first slot of the second, so every case of the
    // run-at-a-time packing names the exact record.
    struct Case
    {
        std::size_t pos;
        MemRef bad;
        const char *addr;
    };
    constexpr std::size_t kBlock = ArenaStream::kBlockRefs;
    const Case cases[] = {
        {1000, instRef(0x0040'0002), "0x400002"},
        {kBlock - 1, loadRef(0x8000'0000), "0x80000000"},
        {kBlock, storeRef(0x1000'0001), "0x10000001"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.pos);
        std::vector<MemRef> records;
        records.reserve(kBlock + 16);
        for (std::size_t i = 0; i < kBlock + 16; ++i)
            records.push_back(instRef(0x0040'0000 + 4 * i));
        records[c.pos] = c.bad;

        TraceArena arena;
        ArenaStream *stream =
            arena.acquire("bad", records.size(), 0, [&records] {
                return std::make_unique<VectorSource>("bad", records);
            });
        try {
            stream->ensure(records.size());
            ADD_FAILURE() << "unpackable reference was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::Internal);
            const std::string what = e.what();
            EXPECT_NE(what.find("reference " + std::to_string(c.pos) +
                                " of stream 'bad'"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(c.addr), std::string::npos) << what;
        }
        // Nothing of the failed growth step is published.
        EXPECT_EQ(stream->publishedRefs(), 0u);
    }
}

TEST(ArenaStream, HighWaterMarkMakesSecondReaderFree)
{
    const synth::BenchmarkSpec spec = smallSpec(20'000);
    TraceArena arena;
    const auto factory = [spec] { return synth::makeBenchmark(spec); };

    TraceArena::resetThreadTally();
    ArenaStream *stream =
        arena.acquire("hwm", 2 * spec.simInstructions, 0, factory);
    ArenaSource first(stream, "first");
    const std::vector<MemRef> pass = drain(first);
    ArenaTally tally = TraceArena::threadTally();
    EXPECT_EQ(tally.streamsGenerated, 1u);
    EXPECT_EQ(tally.streamsReused, 0u);
    EXPECT_EQ(tally.refsGenerated, pass.size());

    // The second acquisition replays the published pass: a cache hit
    // and not one reference of new generation.
    TraceArena::resetThreadTally();
    ArenaStream *again =
        arena.acquire("hwm", 2 * spec.simInstructions, 0, factory);
    EXPECT_EQ(again, stream);
    ArenaSource second(again, "second");
    EXPECT_EQ(drain(second).size(), pass.size());
    tally = TraceArena::threadTally();
    EXPECT_EQ(tally.streamsGenerated, 0u);
    EXPECT_EQ(tally.streamsReused, 1u);
    EXPECT_EQ(tally.refsGenerated, 0u);
    EXPECT_EQ(tally.genSeconds, 0.0);
}

TEST(TraceArena, EnvKnobParsing)
{
    {
        ArenaEnv off("0");
        EXPECT_FALSE(TraceArena::enabledByEnv());
    }
    {
        ArenaEnv on("1");
        EXPECT_TRUE(TraceArena::enabledByEnv());
    }
    {
        ArenaEnv unset(nullptr);
        EXPECT_TRUE(TraceArena::enabledByEnv());
    }
}

TEST(ArenaEndToEnd, SimResultsMatchFreshGeneratorsAcrossMpLevels)
{
    // The acceptance property in miniature: identical stats dumps
    // (every counter, byte for byte) with the arena on and off.
    const core::SystemConfig config = core::baseline();
    for (const unsigned mp : {1u, 2u, 4u}) {
        std::string fresh, arena;
        {
            ArenaEnv off("0");
            fresh = statsText(
                core::runStandard(config, 20'000, mp, 5'000));
        }
        {
            ArenaEnv on(nullptr);
            arena = statsText(
                core::runStandard(config, 20'000, mp, 5'000));
        }
        EXPECT_EQ(fresh, arena) << "mp level " << mp;
    }
}

/** One worker's replay of a workload's streams, in process order. */
using Replays = std::vector<std::unique_ptr<TraceSource>>;

/**
 * Four workers run @p build at once over the cold streams of
 * @p specs (keyed like Workload::standard).  Each replay must equal
 * fresh generators, every stream is created exactly once, and the
 * workers' generation tallies add up to what the arena published.
 */
void
expectSplitGeneration(const std::vector<synth::BenchmarkSpec> &specs,
                      const std::function<Replays()> &build)
{
    constexpr std::size_t kWorkers = 4;
    const std::size_t streamsBefore =
        TraceArena::global().streamCount();

    std::vector<Replays> replays(kWorkers);
    std::vector<ArenaTally> tallies(kWorkers);
    std::latch start(kWorkers);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            start.arrive_and_wait();
            replays[w] = build();
            tallies[w] = TraceArena::threadTally();
        });
    }
    for (auto &t : workers)
        t.join();

    ArenaTally sum;
    for (const ArenaTally &t : tallies)
        sum += t;
    EXPECT_EQ(sum.streamsGenerated, specs.size());
    EXPECT_EQ(sum.streamsReused, (kWorkers - 1) * specs.size());
    EXPECT_EQ(TraceArena::global().streamCount(),
              streamsBefore + specs.size());

    std::size_t published = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ArenaStream *stream = acquireSpecStream(specs, i, 0);
        EXPECT_GT(stream->publishedRefs(), 0u) << stream->key();
        published += stream->publishedRefs();
    }
    EXPECT_EQ(sum.refsGenerated, published);

    constexpr std::size_t kReplay = 2'000;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        ASSERT_EQ(replays[w].size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::vector<MemRef> got(kReplay);
            got.resize(replays[w][i]->nextBatch(got.data(), kReplay));
            EXPECT_EQ(got, freshPrefix(specs[i], kReplay))
                << "worker " << w << " stream " << i;
        }
    }
}

TEST(ArenaEndToEnd, ConcurrentStandardWorkloadsSplitGeneration)
{
    ArenaEnv on(nullptr);
    {
        SCOPED_TRACE("Workload::standard");
        // No other test uses mp level 6, so its streams are cold.
        constexpr unsigned kMp = 6;
        expectSplitGeneration(synth::workloadSpecs(kMp), [] {
            Replays out;
            for (core::Process &p :
                 core::Workload::standard(kMp, 60'000).take())
                out.push_back(std::move(p.source));
            return out;
        });
    }
    {
        SCOPED_TRACE("per-stream acquire");
        // One stream at a time with a size hint, as a seeded
        // workload builder does.
        const auto specs = remixedSpecs(8);
        expectSplitGeneration(specs, [&specs] {
            Replays out;
            for (std::size_t i = 0; i < specs.size(); ++i)
                out.push_back(std::make_unique<ArenaSource>(
                    acquireSpecStream(specs, i, 30'000), "replay"));
            return out;
        });
    }
}

TEST(ArenaEndToEnd, ConcurrentTraceFileWorkloadsDecodeEachFileOnce)
{
    // Four threads build the same trace-file workload from four
    // freshly written v3 files: each file is decoded into the arena
    // exactly once, and every replay equals the file's own reader.
    ArenaEnv on(nullptr);
    const auto dir = std::filesystem::temp_directory_path() /
                     ("gaas_arena_files_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const auto specs = remixedSpecs(4);
    std::vector<std::string> paths;
    std::vector<std::vector<MemRef>> expected;
    std::size_t records = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        synth::BenchmarkSpec spec = specs[i];
        spec.simInstructions = 20'000;
        paths.push_back((dir / (std::to_string(i) + ".v3")).string());
        TraceV3Writer writer(paths.back());
        writer.writeAll(*synth::makeBenchmark(spec));
        writer.close();
        TraceV3Reader reader(paths.back());
        expected.push_back(drain(reader));
        records += expected.back().size();
    }

    constexpr std::size_t kThreads = 4;
    std::vector<ArenaTally> tallies(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            std::vector<core::Process> procs =
                core::Workload::fromTraceFiles(paths, false).take();
            ASSERT_EQ(procs.size(), paths.size());
            for (std::size_t i = 0; i < paths.size(); ++i) {
                std::vector<MemRef> got(expected[i].size());
                got.resize(procs[i].source->nextBatch(got.data(),
                                                      got.size()));
                EXPECT_EQ(got, expected[i])
                    << "thread " << t << " file " << i;
            }
            tallies[t] = TraceArena::threadTally();
        });
    }
    for (auto &thread : threads)
        thread.join();
    std::filesystem::remove_all(dir);

    ArenaTally sum;
    for (const ArenaTally &tally : tallies)
        sum += tally;
    EXPECT_EQ(sum.streamsGenerated, paths.size());
    EXPECT_EQ(sum.refsGenerated, records);
}

TEST(ArenaEndToEnd, SweepJobTelemetryShowsReuse)
{
    // Two identical jobs, serially: the first pays all generation,
    // the second reuses every stream and generates nothing.
    ArenaEnv on(nullptr);
    core::SweepJob job;
    job.config = core::baseline();
    job.mpLevel = 3;
    job.instructions = 15'000;
    job.warmup = 5'000;

    core::SweepStats stats;
    const auto outcomes =
        core::runSweepOutcomes({job, job}, 1, &stats);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(statsText(outcomes[0].result),
              statsText(outcomes[1].result));

    ASSERT_EQ(stats.perJob.size(), 2u);
    EXPECT_EQ(stats.perJob[0].arenaStreamsReused, 0u);
    EXPECT_EQ(stats.perJob[0].arenaStreamsGenerated, 3u);
    EXPECT_GT(stats.perJob[0].arenaRefsGenerated, 0u);
    EXPECT_EQ(stats.perJob[1].arenaStreamsGenerated, 0u);
    EXPECT_EQ(stats.perJob[1].arenaStreamsReused, 3u);
    EXPECT_EQ(stats.perJob[1].arenaRefsGenerated, 0u);

    EXPECT_EQ(stats.arenaStreamsGenerated, 3u);
    EXPECT_EQ(stats.arenaStreamsReused, 3u);
    EXPECT_GT(stats.arenaBytes, 0u);
}

TEST(ArenaEndToEnd, OptOutBypassesArena)
{
    ArenaEnv off("0");
    core::SweepJob job;
    job.config = core::baseline();
    job.mpLevel = 2;
    job.instructions = 10'000;
    job.warmup = 2'000;

    const std::size_t streamsBefore =
        TraceArena::global().streamCount();
    core::SweepStats stats;
    const auto outcomes = core::runSweepOutcomes({job}, 1, &stats);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, core::PointStatus::Ok);
    EXPECT_EQ(stats.perJob[0].arenaStreamsGenerated, 0u);
    EXPECT_EQ(stats.perJob[0].arenaStreamsReused, 0u);
    EXPECT_EQ(stats.perJob[0].arenaRefsGenerated, 0u);
    EXPECT_EQ(TraceArena::global().streamCount(), streamsBefore);
}

} // namespace
} // namespace gaas::trace
