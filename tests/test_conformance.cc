/**
 * @file
 * TraceSource conformance: one parameterised suite holds every
 * in-tree source to the interface contract of trace/source.hh.
 *
 *  - nextBatchPacked() yields exactly pack(nextBatch()), whatever
 *    the two calls' batch sizes, so batch edges fall differently on
 *    the two sides;
 *  - skip(k) followed by a read lands where reading and discarding
 *    k records would, from a cold source and mid-stream;
 *  - reset() replays the identical stream.
 *
 * The raw traces carry unaligned addresses and stray flags, so the
 * packed side also checks that every source normalises by the one
 * ingest rule.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "synth/benchmark.hh"
#include "synth/suite.hh"
#include "trace/arena.hh"
#include "trace/compose.hh"
#include "trace/packed.hh"
#include "trace/patterns.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"

namespace gaas::trace
{
namespace
{

/** Records per v3 block, so a stream of kRecords spans many. */
constexpr std::uint32_t kFileBlockRefs = 64;

constexpr std::size_t kRecords = 1500;

/**
 * A well-formed trace with the noise raw traces carry: byte offsets
 * on every kind, syscall flags on data records, partialWord flags on
 * instructions and loads.
 */
std::vector<MemRef>
rawTrace()
{
    std::vector<MemRef> refs;
    std::uint64_t x = 0x2545'f491'4f6c'dd1dull;
    Addr pc = 0x0040'0000;
    while (refs.size() < kRecords) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        refs.push_back(instRef(pc | (x & 3u), (x & 0x70) == 0));
        refs.back().partialWord = (x & 0x380) == 0;
        pc += 4;
        const Addr data = 0x1000'0000 + ((x >> 12) & 0xffffu);
        switch ((x >> 10) & 3u) {
          case 0:
            refs.push_back(loadRef(data));
            refs.back().partialWord = (x & 0x3000'0000) == 0;
            break;
          case 1:
            refs.push_back(storeRef(data, (x & 0x400'0000) != 0));
            break;
          default:
            break;
        }
        if (refs.back().isData())
            refs.back().syscall = (x & 0x3'0000'0000) == 0;
    }
    refs.resize(kRecords);
    return refs;
}

/** The raw trace as a v3 file, written once per test process. */
const std::string &
traceFile()
{
    static const std::string path = [] {
        const auto file = std::filesystem::temp_directory_path() /
                          ("gaas_conformance_" +
                           std::to_string(::getpid()) + ".v3");
        TraceV3Writer writer(file.string(), kFileBlockRefs);
        for (const MemRef &ref : rawTrace())
            writer.write(ref);
        writer.close();
        std::atexit([] {
            std::filesystem::remove(
                std::filesystem::temp_directory_path() /
                ("gaas_conformance_" + std::to_string(::getpid()) +
                 ".v3"));
        });
        return file.string();
    }();
    return path;
}

/** A stream's byte ceiling that holds exactly @p slots slots. */
std::size_t
ceilingFor(std::size_t slots)
{
    const V3File file(traceFile());
    return slots * (file.maxPayloadBytes() +
                    std::size_t{file.blockRefs()} * sizeof(std::uint32_t)) +
           std::size_t{file.blockRefs()} * sizeof(MemRef);
}

std::unique_ptr<TraceSource>
makeStream(std::size_t slots)
{
    StreamOptions options;
    options.memoryBudgetBytes = ceilingFor(slots);
    auto stream = std::make_unique<StreamSource>(traceFile(), options);
    EXPECT_EQ(stream->slotCount(), slots);
    return stream;
}

/** An arena stream of the raw trace, one per test process. */
ArenaStream *
arenaStream()
{
    static TraceArena arena;
    return arena.acquire("conformance", kRecords, 0, [] {
        return std::make_unique<VectorSource>("raw", rawTrace());
    });
}

synth::BenchmarkSpec
smallSpec()
{
    synth::BenchmarkSpec spec = synth::workloadSpecs(2).back();
    spec.simInstructions = 2'000;
    return spec;
}

/** One source under test: how to build a fresh instance, and how
 *  many records to read at most (past the pass of a finite source;
 *  three passes and then some of a loop). */
struct SourceCase
{
    std::string name;
    std::function<std::unique_ptr<TraceSource>()> make;
    std::size_t records;
};

void
PrintTo(const SourceCase &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<SourceCase>
sourceCases()
{
    SequentialPattern::Params seq;
    seq.instFootprintWords = 300;
    seq.dataFootprintWords = 200;
    seq.storeEvery = 3;
    seq.instructions = 900;
    ConflictPattern::Params conflict;
    conflict.ways = 3;
    conflict.instructions = 700;
    conflict.stores = true;
    RandomPattern::Params random;
    random.footprintWords = 4096;
    random.instructions = 800;
    random.storeFrac = 0.3;
    return {
        {"VectorSource",
         [] { return std::make_unique<VectorSource>("raw", rawTrace()); },
         kRecords},
        {"TraceV3Reader",
         [] { return std::make_unique<TraceV3Reader>(traceFile()); },
         kRecords},
        {"StreamSource2", [] { return makeStream(2); }, kRecords},
        {"StreamSource3", [] { return makeStream(3); }, kRecords},
        {"ArenaSource",
         [] { return std::make_unique<ArenaSource>(arenaStream(), "a"); },
         kRecords},
        {"LoopOverArena",
         [] {
             return std::make_unique<LoopSource>(
                 std::make_unique<ArenaSource>(arenaStream(), "a"));
         },
         3 * kRecords + 17},
        {"LoopOverStream",
         [] { return std::make_unique<LoopSource>(makeStream(3)); },
         3 * kRecords + 17},
        {"SyntheticBenchmark",
         [] { return synth::makeBenchmark(smallSpec()); }, 10'000},
        {"MixSource",
         [] {
             return std::make_unique<MixSource>(
                 std::make_unique<VectorSource>("raw", rawTrace()));
         },
         kRecords},
        {"SequentialPattern",
         [seq] { return std::make_unique<SequentialPattern>(seq); },
         10'000},
        {"ConflictPattern",
         [conflict] {
             return std::make_unique<ConflictPattern>(conflict);
         },
         10'000},
        {"RandomPattern",
         [random] { return std::make_unique<RandomPattern>(random); },
         10'000},
    };
}

/** Read up to @p limit records through nextBatch, in batches whose
 *  sizes cycle through @p sizes, packed afterwards. */
std::vector<std::uint32_t>
readPackedAfter(TraceSource &src, std::size_t limit,
                const std::vector<std::size_t> &sizes)
{
    std::vector<std::uint32_t> out;
    std::vector<MemRef> buf;
    for (std::size_t i = 0; out.size() < limit; ++i) {
        const std::size_t want =
            std::min(sizes[i % sizes.size()], limit - out.size());
        buf.resize(want);
        const std::size_t got = src.nextBatch(buf.data(), want);
        for (std::size_t k = 0; k < got; ++k)
            out.push_back(packed::pack(buf[k]));
        if (got < want)
            break;
    }
    return out;
}

/** Read up to @p limit words through nextBatchPacked, in batches
 *  whose sizes cycle through @p sizes. */
std::vector<std::uint32_t>
readPacked(TraceSource &src, std::size_t limit,
           const std::vector<std::size_t> &sizes = {256})
{
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; out.size() < limit; ++i) {
        const std::size_t want =
            std::min(sizes[i % sizes.size()], limit - out.size());
        const std::size_t at = out.size();
        out.resize(at + want);
        const std::size_t got = src.nextBatchPacked(out.data() + at, want);
        out.resize(at + got);
        if (got < want)
            break;
    }
    return out;
}

class TraceSourceConformance
    : public ::testing::TestWithParam<SourceCase>
{};

TEST_P(TraceSourceConformance, PackedBatchesArePackedRecords)
{
    const SourceCase &c = GetParam();
    auto a = c.make();
    auto b = c.make();
    const auto expected = readPackedAfter(*a, c.records, {1, 7, 64, 255});
    const auto got = readPacked(*b, c.records, {3, 256, 13, 1000, 65});
    ASSERT_GT(got.size(), 1000u);
    EXPECT_EQ(got, expected);
    // The words are already normalised: none carries a flag its kind
    // gives no meaning (pack(unpack(w)) == w).
    for (const std::uint32_t w : got)
        ASSERT_EQ(packed::pack(packed::unpack(w)), w);
}

TEST_P(TraceSourceConformance, SkipLandsWhereDiscardedReadsLand)
{
    const SourceCase &c = GetParam();
    const std::size_t total = readPacked(*c.make(), c.records).size();
    for (const std::size_t pre : {std::size_t{0}, std::size_t{5}}) {
        for (const std::size_t k :
             {std::size_t{0}, std::size_t{1}, std::size_t{63},
              std::size_t{64}, std::size_t{65}, std::size_t{700},
              total / 2, total - pre}) {
            SCOPED_TRACE("pre " + std::to_string(pre) + " skip " +
                         std::to_string(k));
            auto skipped = c.make();
            auto read = c.make();
            readPacked(*skipped, pre);
            readPacked(*read, pre);
            EXPECT_EQ(skipped->skip(k), k);
            readPacked(*read, k);
            EXPECT_EQ(readPacked(*skipped, c.records),
                      readPacked(*read, c.records));
        }
    }
}

TEST_P(TraceSourceConformance, ResetReplaysTheIdenticalStream)
{
    const SourceCase &c = GetParam();
    auto src = c.make();
    const auto first = readPacked(*src, c.records);
    ASSERT_FALSE(first.empty());
    src->reset();
    EXPECT_EQ(readPacked(*src, c.records), first);
    // Also from mid-stream, after a skip, and through nextBatch.
    src->reset();
    readPacked(*src, 100);
    src->skip(333);
    src->reset();
    EXPECT_EQ(readPackedAfter(*src, c.records, {128}), first);
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, TraceSourceConformance,
    ::testing::ValuesIn(sourceCases()),
    [](const ::testing::TestParamInfo<SourceCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace gaas::trace
