/**
 * @file
 * Tests for the v3 block-compressed trace format (trace/v3.hh) and
 * the bounded-memory streaming reader (trace/stream.hh): encode /
 * decode round trips across every token shape, O(1) skip semantics
 * mirroring the ArenaSource/LoopSource contracts, the memory-ceiling
 * error path, journal keying by content digest, and -- the one that
 * matters -- bit-identical simulation results between in-memory
 * arena replay and streaming replay on pinned design points.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/journal.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "synth/benchmark.hh"
#include "synth/suite.hh"
#include "trace/compose.hh"
#include "trace/packed.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/error.hh"

namespace gaas::trace
{
namespace
{

/**
 * Deterministic multi-block trace hitting every packable token
 * shape: +1 instruction deltas (the one-byte fast path), small and
 * large positive/negative data deltas, syscall and partial-word
 * meta bits.  All addresses are word aligned and below 2^31, so the
 * whole trace fits the packed u32 layout.
 */
std::vector<MemRef>
packableTrace(std::size_t n)
{
    std::vector<MemRef> refs;
    refs.reserve(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    Addr pc = 0x0040'0000;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        switch (x & 7u) {
          case 0:
            refs.push_back(
                loadRef(((x >> 8) & 0x1fff'ffffu) << 2));
            break;
          case 1:
            refs.push_back(
                storeRef(((x >> 8) & 0x1fff'ffffu) << 2,
                         /*partial_word=*/(x & 0x100) != 0));
            break;
          case 2:
            refs.push_back(loadRef(0x1000'0000 + ((x >> 8) & 0xfcu)));
            break;
          default:
            refs.push_back(instRef(pc, /*syscall=*/(x & 0x700) == 0));
            pc += 4;
            break;
        }
    }
    return refs;
}

/** packableTrace plus escape-token records: unaligned addresses and
 *  addresses past the 2^31 packed-layout ceiling. */
std::vector<MemRef>
escapeTrace(std::size_t n)
{
    std::vector<MemRef> refs = packableTrace(n);
    for (std::size_t i = 7; i < refs.size(); i += 13)
        refs[i] = loadRef(0x1000'0001 + 9 * static_cast<Addr>(i));
    for (std::size_t i = 11; i < refs.size(); i += 29)
        refs[i] = storeRef((Addr{1} << 40) + 4 * static_cast<Addr>(i));
    return refs;
}

std::vector<MemRef>
drainAll(TraceSource &src)
{
    // Large enough for every trace in this file; collect() reserves
    // its limit up front, so "unbounded" must stay modest.
    return collect(src, 1u << 20);
}

class StreamTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case AND per process: ctest -j runs each
        // case as its own concurrent process (see test_trace.cc).
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = std::filesystem::temp_directory_path() /
              ("gaas_stream_test_" + std::string(info->name()) +
               "_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    std::string
    writeV3(const std::string &name, const std::vector<MemRef> &refs,
            std::uint32_t block_refs = kV3DefaultBlockRefs)
    {
        const std::string path = (dir / name).string();
        TraceV3Writer writer(path, block_refs);
        for (const MemRef &ref : refs)
            writer.write(ref);
        writer.close();
        return path;
    }

    std::filesystem::path dir;
};

TEST_F(StreamTest, RoundTripMultiBlockPackable)
{
    const auto refs = packableTrace(1000);
    const std::string path = writeV3("t.v3", refs, 64);

    const V3FileInfo info = v3FileInfo(path);
    EXPECT_EQ(info.records, refs.size());
    EXPECT_EQ(info.blockRefs, 64u);
    EXPECT_TRUE(info.packable());

    TraceV3Reader reader(path);
    EXPECT_EQ(drainAll(reader), refs);

    // reset() replays from the top, bit-identically.
    reader.reset();
    EXPECT_EQ(drainAll(reader), refs);
}

TEST_F(StreamTest, RoundTripEscapeTokens)
{
    // Unaligned and >2^31 addresses force the 0x0F escape token;
    // they must survive the round trip and clear the packable flag.
    const auto refs = escapeTrace(500);
    const std::string path = writeV3("esc.v3", refs, 32);

    EXPECT_FALSE(v3FileInfo(path).packable());
    TraceV3Reader reader(path);
    EXPECT_EQ(drainAll(reader), refs);
}

TEST_F(StreamTest, DigestIsContentNotName)
{
    const auto refs = packableTrace(300);
    const std::string a = writeV3("a.v3", refs, 64);
    const std::string b = writeV3("renamed-copy.v3", refs, 64);
    EXPECT_EQ(v3FileInfo(a).digest, v3FileInfo(b).digest);

    auto more = refs;
    more.push_back(instRef(0x123'4560));
    const std::string c = writeV3("c.v3", more, 64);
    EXPECT_NE(v3FileInfo(a).digest, v3FileInfo(c).digest);
}

TEST_F(StreamTest, ReaderSkipMatchesDiscardedReads)
{
    // Mirror of LoopSource.SkipMatchesDiscardedReads: skip(n) must
    // land exactly where n discarded reads would -- inside the
    // current block, on a block boundary, across several blocks --
    // from a cold reader and mid-stream.
    const auto refs = packableTrace(200);
    const std::string path = writeV3("skip.v3", refs, 32);

    for (std::size_t pre : {std::size_t{0}, std::size_t{3},
                            std::size_t{50}}) {
        for (std::size_t skip :
             {std::size_t{0}, std::size_t{1}, std::size_t{31},
              std::size_t{32}, std::size_t{33}, std::size_t{95},
              std::size_t{149}}) {
            TraceV3Reader skipped(path);
            TraceV3Reader read(path);
            (void)collect(skipped, pre);
            (void)collect(read, pre);
            ASSERT_EQ(skipped.skip(skip), skip)
                << "pre " << pre << " skip " << skip;
            (void)collect(read, skip);
            EXPECT_EQ(drainAll(skipped), drainAll(read))
                << "pre " << pre << " skip " << skip;
        }
    }
}

TEST_F(StreamTest, ReaderSkipClampsAtEof)
{
    const auto refs = packableTrace(100);
    const std::string path = writeV3("clamp.v3", refs, 32);

    TraceV3Reader reader(path);
    EXPECT_EQ(reader.skip(refs.size() + 12345), refs.size());
    MemRef ref;
    EXPECT_FALSE(reader.next(ref));

    // ... which is exactly what LoopSource needs to learn the pass
    // length and wrap (same contract as ArenaSource).
    LoopSource looped(std::make_unique<TraceV3Reader>(path));
    const std::size_t skip = 3 * refs.size() + 17;
    EXPECT_EQ(looped.skip(skip), skip);
    ASSERT_TRUE(looped.next(ref));
    EXPECT_EQ(ref, refs[17]);
}

TEST_F(StreamTest, StreamMatchesReaderForEveryBatchSize)
{
    const auto refs = packableTrace(400);
    const std::string path = writeV3("batch.v3", refs, 64);

    for (std::size_t batch :
         {std::size_t{1}, std::size_t{3}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{200},
          std::size_t{1000}}) {
        StreamSource stream(path);
        std::vector<MemRef> got;
        std::vector<MemRef> buf(batch);
        for (;;) {
            const std::size_t n =
                stream.nextBatch(buf.data(), batch);
            got.insert(got.end(), buf.begin(), buf.begin() + n);
            if (n < batch)
                break;
        }
        EXPECT_EQ(got, refs) << "batch " << batch;
    }
}

TEST_F(StreamTest, StreamPackedPathUnpacksIdentically)
{
    const auto refs = packableTrace(500);
    const std::string path = writeV3("packed.v3", refs, 64);

    StreamSource stream(path);
    ASSERT_TRUE(stream.packedCapable());
    std::vector<std::uint32_t> words(37);
    std::vector<MemRef> got;
    for (;;) {
        const std::size_t n =
            stream.nextBatchPacked(words.data(), words.size());
        ASSERT_NE(n, TraceSource::kNoPacked);
        for (std::size_t i = 0; i < n; ++i)
            got.push_back(packed::unpack(words[i]));
        if (n < words.size())
            break;
    }
    EXPECT_EQ(got, refs);
    EXPECT_GT(stream.blocksDecoded(), 0u);
}

TEST_F(StreamTest, NonPackableStreamUsesMemRefPath)
{
    const auto refs = escapeTrace(300);
    const std::string path = writeV3("np.v3", refs, 64);

    StreamSource stream(path);
    EXPECT_FALSE(stream.packedCapable());
    std::uint32_t word;
    EXPECT_EQ(stream.nextBatchPacked(&word, 1),
              TraceSource::kNoPacked);
    EXPECT_EQ(drainAll(stream), refs);
}

TEST_F(StreamTest, StreamSkipMatchesDiscardedReads)
{
    // The StreamSource mirror of the reader test above: skips that
    // stay in the held block, land on block boundaries, and jump
    // past the prefetch window (forcing a producer reseek).
    const auto refs = packableTrace(300);
    const std::string path = writeV3("sskip.v3", refs, 16);

    for (std::size_t pre : {std::size_t{0}, std::size_t{5}}) {
        for (std::size_t skip :
             {std::size_t{0}, std::size_t{1}, std::size_t{15},
              std::size_t{16}, std::size_t{17}, std::size_t{160},
              std::size_t{250}}) {
            StreamSource skipped(path);
            StreamSource read(path);
            (void)collect(skipped, pre);
            (void)collect(read, pre);
            ASSERT_EQ(skipped.skip(skip), skip)
                << "pre " << pre << " skip " << skip;
            (void)collect(read, skip);
            EXPECT_EQ(drainAll(skipped), drainAll(read))
                << "pre " << pre << " skip " << skip;
        }
    }
}

TEST_F(StreamTest, StreamSkipClampsAndResetReplays)
{
    const auto refs = packableTrace(200);
    const std::string path = writeV3("sclamp.v3", refs, 32);

    StreamSource stream(path);
    EXPECT_EQ(stream.skip(refs.size() + 999), refs.size());
    MemRef ref;
    EXPECT_FALSE(stream.next(ref));

    // reset() re-aims the producer backwards (generation bump) and
    // the replay is bit-identical, repeatedly.
    for (int lap = 0; lap < 3; ++lap) {
        stream.reset();
        EXPECT_EQ(drainAll(stream), refs) << "lap " << lap;
    }
}

TEST_F(StreamTest, LoopedStreamWrapsLikeLoopedReader)
{
    const auto refs = packableTrace(150);
    const std::string path = writeV3("loop.v3", refs, 32);

    LoopSource stream(std::make_unique<StreamSource>(path));
    LoopSource reader(std::make_unique<TraceV3Reader>(path));
    const std::size_t skip = 3 * refs.size() + 17;
    EXPECT_EQ(stream.skip(skip), skip);
    EXPECT_EQ(reader.skip(skip), skip);
    EXPECT_EQ(collect(stream, 2 * refs.size()),
              collect(reader, 2 * refs.size()));
}

TEST_F(StreamTest, CeilingTooSmallIsATraceIoError)
{
    const std::string path =
        writeV3("tiny.v3", packableTrace(100), 32);
    StreamOptions options;
    options.memoryBudgetBytes = 1;
    try {
        StreamSource stream(path, options);
        FAIL() << "a 1-byte ceiling was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO);
        EXPECT_NE(std::string(e.what()).find("at least"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(StreamTest, MinimalCeilingStillDrainsWithTwoSlots)
{
    const auto refs = packableTrace(1000);
    const std::string path = writeV3("min.v3", refs, 64);

    // Derive one slot's byte size from a default-budget stream,
    // then rebuild with exactly two slots' worth of ceiling.
    std::size_t slotBytes = 0;
    {
        StreamSource probe(path);
        slotBytes = probe.bufferBytes() / probe.slotCount();
    }
    StreamOptions options;
    options.memoryBudgetBytes = 2 * slotBytes;
    StreamSource stream(path, options);
    EXPECT_EQ(stream.slotCount(), 2u);
    EXPECT_LE(stream.bufferBytes(), options.memoryBudgetBytes);
    EXPECT_EQ(drainAll(stream), refs);
}

/** One ring slot's bytes: a compressed payload plus a decoded block. */
std::size_t
slotBytesOf(const std::string &path)
{
    const V3File file(path);
    return file.maxPayloadBytes() +
           std::size_t{file.blockRefs()} *
               (file.packable() ? sizeof(std::uint32_t)
                                : sizeof(MemRef));
}

TEST_F(StreamTest, RingDepthIsTheLookaheadNotTheCeiling)
{
    // A roomy ceiling buys no depth past the lookahead, on either
    // replay path; the ceiling only caps it.
    for (const bool packable : {true, false}) {
        const std::string path =
            writeV3(packable ? "deep.v3" : "deep-np.v3",
                    packable ? packableTrace(2000) : escapeTrace(2000),
                    64);
        const std::size_t slotBytes = slotBytesOf(path);
        for (const std::size_t ceiling :
             {std::size_t{0}, std::size_t{64} << 20,
              (kStreamLookaheadBlocks + 5) * slotBytes}) {
            StreamOptions options;
            options.memoryBudgetBytes = ceiling;
            StreamSource stream(path, options);
            EXPECT_EQ(stream.packedCapable(), packable);
            EXPECT_EQ(stream.slotCount(), kStreamLookaheadBlocks)
                << "ceiling " << ceiling;
            EXPECT_EQ(stream.bufferBytes(),
                      kStreamLookaheadBlocks * slotBytes)
                << "ceiling " << ceiling;
        }

        // Under the lookahead the ceiling wins, down to two slots.
        StreamOptions options;
        options.memoryBudgetBytes =
            (kStreamLookaheadBlocks - 1) * slotBytes + slotBytes / 2;
        StreamSource capped(path, options);
        EXPECT_EQ(capped.slotCount(), kStreamLookaheadBlocks - 1);
        EXPECT_LE(capped.bufferBytes(), options.memoryBudgetBytes);
    }
}

TEST_F(StreamTest, ReplaySkipAndResetMatchReaderAtEveryDepth)
{
    // The same read/skip/reset script against TraceV3Reader and
    // against streams at the minimum and the lookahead depth: every
    // record must agree, whether a skip stays in the held block,
    // lands inside the prefetch window or jumps past it.
    const auto refs = packableTrace(1500);
    const std::string path = writeV3("depth.v3", refs, 16);
    const std::size_t slotBytes = slotBytesOf(path);
    const std::vector<std::pair<std::size_t, std::size_t>> script = {
        {5, 0},  {3, 7},   {20, 16},  {1, 33}, {40, 200},
        {16, 1}, {9, 500}, {64, 17},  {2, 48}, {100, 0}};

    auto run = [&](TraceSource &src) {
        std::vector<MemRef> got;
        for (int lap = 0; lap < 2; ++lap) {
            for (const auto &[reads, skip] : script) {
                const auto part = collect(src, reads);
                got.insert(got.end(), part.begin(), part.end());
                EXPECT_EQ(src.skip(skip), skip);
            }
            const auto rest = drainAll(src);
            got.insert(got.end(), rest.begin(), rest.end());
            src.reset();
        }
        return got;
    };

    std::size_t skipped = 0;
    for (const auto &step : script)
        skipped += step.second;
    TraceV3Reader reader(path);
    const auto expected = run(reader);
    ASSERT_EQ(expected.size(), 2 * (refs.size() - skipped));
    for (const std::size_t slots :
         {std::size_t{2}, kStreamLookaheadBlocks}) {
        StreamOptions options;
        options.memoryBudgetBytes = slots * slotBytes;
        StreamSource stream(path, options);
        ASSERT_EQ(stream.slotCount(), slots);
        EXPECT_EQ(run(stream), expected) << slots << " slots";
        stream.reset();
        EXPECT_EQ(drainAll(stream), refs) << slots << " slots";
    }
}

TEST_F(StreamTest, JournalKeysTrackContentNotPathOrMode)
{
    const auto refs = packableTrace(400);
    const std::string a = writeV3("job-a.v3", refs, 64);
    const std::string b = writeV3("job-renamed.v3", refs, 64);

    core::SweepJob job;
    job.config = core::afterWritePolicy();
    job.instructions = 10'000;
    job.traceFiles = {a};
    const std::string keyA = core::sweepJobKey(job);
    ASSERT_FALSE(keyA.empty());

    // A renamed byte-identical copy resumes under the same key ...
    job.traceFiles = {b};
    EXPECT_EQ(core::sweepJobKey(job), keyA);

    // ... the replay mode is not part of the key (the modes are
    // bit-identical by contract) ...
    job.traceStreaming = true;
    EXPECT_EQ(core::sweepJobKey(job), keyA);
    job.traceStreaming = false;

    // ... different content is a different key ...
    auto more = refs;
    more.push_back(instRef(0x77'7000));
    job.traceFiles = {writeV3("job-c.v3", more, 64)};
    EXPECT_NE(core::sweepJobKey(job), keyA);

    // ... and an unreadable file yields the empty (never-journaled)
    // key instead of throwing on the sweep planning path.
    job.traceFiles = {(dir / "no-such-file.v3").string()};
    EXPECT_EQ(core::sweepJobKey(job), "");
}

/** RAII arena-mode env guard (mirrors tests/test_arena.cc). */
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

TEST_F(StreamTest, GoldenPointsBitIdenticalAcrossReplayModes)
{
    // Three pinned design points simulated three ways over the same
    // trace files -- per-block reader (arena off), in-memory arena,
    // and bounded StreamSource -- must dump byte-identical stats.
    // This is the contract that lets traceStreaming stay out of the
    // resume-journal key.
    std::vector<std::string> paths;
    auto specs = synth::workloadSpecs(2);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].simInstructions = 30'000;
        auto src = synth::makeBenchmark(specs[i]);
        const std::string path =
            (dir / ("wl-" + std::to_string(i) + ".v3")).string();
        TraceV3Writer writer(path, 1u << 12);
        writer.writeAll(*src);
        writer.close();
        paths.push_back(path);
    }

    std::vector<core::SweepJob> points;
    for (int p = 0; p < 3; ++p) {
        core::SweepJob job;
        job.config = core::afterWritePolicy();
        job.config.l2Org = p == 1 ? core::L2Org::LogicalSplit
                                  : core::L2Org::Unified;
        job.config.l2.cache.assoc = p == 2 ? 2 : 1;
        job.config.l2i = job.config.l2d = job.config.l2;
        job.config.name = "point-" + std::to_string(p);
        job.instructions = 40'000;
        job.traceFiles = paths;
        points.push_back(std::move(job));
    }

    auto dump = [](const core::SweepJob &job) {
        const core::SimResult result = core::runSweepJob(job);
        std::ostringstream os;
        core::dumpStats(result, os);
        return os.str();
    };

    for (core::SweepJob &job : points) {
        SCOPED_TRACE(job.config.name);
        std::string viaReader;
        std::string viaArena;
        {
            ArenaEnv off(nullptr);
            job.traceStreaming = false;
            viaReader = dump(job);
        }
        {
            ArenaEnv on("1");
            job.traceStreaming = false;
            viaArena = dump(job);
        }
        ArenaEnv off(nullptr);
        job.traceStreaming = true;
        const std::string viaStream = dump(job);
        ASSERT_FALSE(viaReader.empty());
        EXPECT_EQ(viaArena, viaReader);
        EXPECT_EQ(viaStream, viaReader);
    }
}

} // namespace
} // namespace gaas::trace
