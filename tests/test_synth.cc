/**
 * @file
 * Unit and statistical tests for the synthetic workload generator:
 * CodeModel, DataModel, SyntheticBenchmark, and the Table-1 suite.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

#include "synth/benchmark.hh"
#include "synth/code_model.hh"
#include "synth/data_model.hh"
#include "synth/suite.hh"
#include "trace/compose.hh"
#include "trace/packed.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::synth
{
namespace
{

TEST(CodeModel, DeterministicForSeed)
{
    CodeParams params;
    CodeModel a(params, 42), b(params, 42), c(params, 43);
    bool same = true, differs = false;
    for (int i = 0; i < 10000; ++i) {
        const Addr pa = a.nextPc();
        same = same && (pa == b.nextPc());
        differs = differs || (pa != c.nextPc());
    }
    EXPECT_TRUE(same);
    EXPECT_TRUE(differs);
}

TEST(CodeModel, ResetReplaysIdentically)
{
    CodeModel model(CodeParams{}, 7);
    std::vector<Addr> first;
    for (int i = 0; i < 5000; ++i)
        first.push_back(model.nextPc());
    model.reset();
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(model.nextPc(), first[i]) << "at " << i;
}

TEST(CodeModel, AddressesAreWordAlignedAndInText)
{
    CodeParams params;
    CodeModel model(params, 3);
    const Addr text_end =
        layout::kTextBase + 64 * kPageBytes +
        wordsToBytes(model.footprintWords() * 2);
    for (int i = 0; i < 50000; ++i) {
        const Addr pc = model.nextPc();
        EXPECT_EQ(pc % kWordBytes, 0u);
        EXPECT_GE(pc, layout::kTextBase);
        EXPECT_LT(pc, text_end);
    }
}

TEST(CodeModel, FootprintTracksBudget)
{
    CodeParams params;
    params.codeWords = 32 * 1024;
    CodeModel model(params, 5);
    // Generation consumes nearly the whole budget (pads allowed).
    EXPECT_GT(model.footprintWords(), params.codeWords / 4);
    EXPECT_LT(model.footprintWords(), params.codeWords * 2);
    EXPECT_EQ(model.procedureCount(), params.procCount);
}

TEST(CodeModel, SequentialRunsDominate)
{
    // Most instructions advance the PC by one word (straight-line
    // execution), as in real code.
    CodeModel model(CodeParams{}, 11);
    Addr prev = model.nextPc();
    int sequential = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const Addr pc = model.nextPc();
        if (pc == prev + kWordBytes)
            ++sequential;
        prev = pc;
    }
    EXPECT_GT(sequential, n / 2);
}

TEST(CodeModel, RejectsBadParams)
{
    CodeParams params;
    params.procCount = 0;
    EXPECT_THROW(CodeModel(params, 1), FatalError);

    params = CodeParams{};
    params.codeWords = 4;
    EXPECT_THROW(CodeModel(params, 1), FatalError);

    params = CodeParams{};
    params.meanRunLen = 0.5;
    EXPECT_THROW(CodeModel(params, 1), FatalError);
}

TEST(DataModel, DeterministicAndResettable)
{
    DataParams params;
    DataModel a(params, 9), b(params, 9);
    std::vector<Addr> first;
    for (int i = 0; i < 3000; ++i) {
        const Addr addr =
            (i % 3 == 0) ? a.nextStore() : a.nextLoad();
        first.push_back(addr);
        EXPECT_EQ(addr,
                  (i % 3 == 0) ? b.nextStore() : b.nextLoad());
    }
    a.reset();
    for (int i = 0; i < 3000; ++i) {
        EXPECT_EQ((i % 3 == 0) ? a.nextStore() : a.nextLoad(),
                  first[i]);
    }
}

TEST(DataModel, AddressesAreWordAligned)
{
    DataModel model(DataParams{}, 21);
    for (int i = 0; i < 20000; ++i) {
        EXPECT_EQ(model.nextLoad() % kWordBytes, 0u);
        EXPECT_EQ(model.nextStore() % kWordBytes, 0u);
    }
}

TEST(DataModel, TouchesAllConfiguredRegions)
{
    DataParams params; // default has all four regions
    DataModel model(DataParams{}, 33);
    std::map<const char *, int> regions;
    auto classify = [&](Addr a) {
        if (a >= 0x7000'0000)
            regions["stack"]++;
        else if (a >= layout::kArrayBase)
            regions["array"]++;
        else if (a >= layout::kHeapBase)
            regions["heap"]++;
        else
            regions["global"]++;
    };
    for (int i = 0; i < 20000; ++i) {
        classify(model.nextLoad());
        classify(model.nextStore());
    }
    EXPECT_GT(regions["stack"], 0);
    EXPECT_GT(regions["global"], 0);
    EXPECT_GT(regions["array"], 0);
    EXPECT_GT(regions["heap"], 0);
    (void)params;
}

TEST(DataModel, HeapDrawsAreSkewed)
{
    // A small set of hot lines should absorb most heap traffic.
    DataParams params;
    params.loadStackFrac = 0;
    params.loadGlobalFrac = 0;
    params.loadArrayFrac = 0;
    params.sameLineBurstProb = 0;
    DataModel model(params, 17);
    std::map<Addr, int> counts;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        counts[model.nextLoad() & ~Addr{15}]++;
    // Count traffic captured by the 128 hottest lines.
    std::vector<int> sorted;
    for (const auto &[addr, count] : counts)
        sorted.push_back(count);
    std::sort(sorted.rbegin(), sorted.rend());
    int hot = 0;
    for (std::size_t i = 0; i < 128 && i < sorted.size(); ++i)
        hot += sorted[i];
    EXPECT_GT(hot, n / 2);
}

TEST(DataModel, ArrayWalkIsBlocked)
{
    // With one array and nothing else, consecutive draws scan a
    // segment repeatedly before advancing.
    DataParams params;
    params.arrayCount = 1;
    params.arrayWords = 64 * 1024;
    params.arraySegWords = 64;
    params.arraySegRepeats = 4;
    params.arrayStrideWords = 1;
    params.loadArrayFrac = 1.0;
    params.loadStackFrac = params.loadGlobalFrac = 0.0;
    params.sameLineBurstProb = 0;
    DataModel model(params, 55);

    std::set<Addr> unique;
    const int accesses = 64 * 4 * 3; // three full segments
    for (int i = 0; i < accesses; ++i)
        unique.insert(model.nextLoad());
    // Three segments of 64 words = 192 unique addresses.
    EXPECT_EQ(unique.size(), 192u);
}

TEST(DataModel, RejectsBadFractions)
{
    DataParams params;
    params.loadStackFrac = 0.8;
    params.loadGlobalFrac = 0.3;
    EXPECT_THROW(DataModel(params, 1), FatalError);

    params = DataParams{};
    params.heapWords = 0;
    EXPECT_THROW(DataModel(params, 1), FatalError);
}

TEST(SyntheticBenchmark, EmitsExactInstructionCount)
{
    BenchmarkSpec spec = defaultSuite()[0];
    spec.simInstructions = 10000;
    SyntheticBenchmark bench(spec);
    trace::MemRef ref;
    Count instructions = 0, data = 0;
    while (bench.next(ref)) {
        if (ref.isInst())
            ++instructions;
        else
            ++data;
    }
    EXPECT_EQ(instructions, 10000u);
    EXPECT_GT(data, 0u);
}

TEST(SyntheticBenchmark, MixMatchesSpecFractions)
{
    BenchmarkSpec spec = defaultSuite()[0];
    spec.simInstructions = 400000;
    trace::MixSource mix(std::make_unique<SyntheticBenchmark>(spec));
    trace::MemRef ref;
    while (mix.next(ref)) {
    }
    const auto &m = mix.mix();
    EXPECT_NEAR(m.loadFraction(), spec.loadFrac, 0.02);
    EXPECT_NEAR(m.storeFraction(), spec.storeFrac, 0.02);
}

TEST(SyntheticBenchmark, SyscallRateMatchesSpec)
{
    BenchmarkSpec spec = defaultSuite()[2]; // xlisp: 4 / M instr
    spec.simInstructions = 2'000'000;
    trace::MixSource mix(std::make_unique<SyntheticBenchmark>(spec));
    trace::MemRef ref;
    while (mix.next(ref)) {
    }
    const double per_m =
        static_cast<double>(mix.mix().syscalls) /
        (static_cast<double>(mix.mix().instructions) * 1e-6);
    EXPECT_NEAR(per_m, spec.syscallsPerMInstr,
                spec.syscallsPerMInstr * 0.5 + 1.0);
}

TEST(SyntheticBenchmark, ResetReplaysIdentically)
{
    BenchmarkSpec spec = defaultSuite()[3];
    spec.simInstructions = 20000;
    SyntheticBenchmark bench(spec);
    std::vector<trace::MemRef> first;
    trace::MemRef ref;
    while (bench.next(ref))
        first.push_back(ref);
    bench.reset();
    std::size_t i = 0;
    while (bench.next(ref)) {
        ASSERT_LT(i, first.size());
        EXPECT_EQ(ref, first[i]) << "at " << i;
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(SyntheticBenchmark, StoreBurstsAreWordSequential)
{
    BenchmarkSpec spec = defaultSuite()[0];
    spec.simInstructions = 200000;
    SyntheticBenchmark bench(spec);
    trace::MemRef ref, prev{};
    bool have_prev_store = false;
    Count sequential = 0, stores = 0;
    while (bench.next(ref)) {
        if (ref.isStore()) {
            ++stores;
            if (have_prev_store &&
                ref.addr == prev.addr + kWordBytes) {
                ++sequential;
            }
            prev = ref;
            have_prev_store = true;
        } else if (ref.isInst()) {
            continue; // bursts span instructions
        } else {
            have_prev_store = false;
        }
    }
    // Bursts of mean 3 make a majority of stores word-sequential.
    EXPECT_GT(sequential, stores / 3);
}

TEST(SyntheticBenchmark, RejectsBadSpec)
{
    BenchmarkSpec spec = defaultSuite()[0];
    spec.loadFrac = 0.8;
    spec.storeFrac = 0.4;
    EXPECT_THROW(SyntheticBenchmark{spec}, FatalError);

    spec = defaultSuite()[0];
    spec.simInstructions = 0;
    EXPECT_THROW(SyntheticBenchmark{spec}, FatalError);
}

TEST(Suite, HasSixteenDistinctBenchmarks)
{
    const auto &suite = defaultSuite();
    EXPECT_EQ(suite.size(), kSuiteSize);
    std::set<std::string> names;
    std::set<std::uint64_t> seeds;
    for (const auto &spec : suite) {
        names.insert(spec.name);
        seeds.insert(spec.seed);
        EXPECT_GE(spec.baseCpi, 1.0) << spec.name;
        EXPECT_GT(spec.loadFrac, 0.0) << spec.name;
        EXPECT_GT(spec.storeFrac, 0.0) << spec.name;
        EXPECT_LE(spec.loadFrac + spec.storeFrac, 1.0) << spec.name;
        // Every spec must construct cleanly.
        EXPECT_NO_THROW(SyntheticBenchmark{spec}) << spec.name;
    }
    EXPECT_EQ(names.size(), kSuiteSize);
    EXPECT_EQ(seeds.size(), kSuiteSize);
}

TEST(Suite, Level8AveragesMatchPaperConstants)
{
    // The paper: stores are 0.0725 of instructions; the CPU-stall
    // floor is 1.238 CPI (Sections 4 and 6).
    const auto specs = workloadSpecs(8);
    double store_sum = 0, cpi_sum = 0;
    for (const auto &spec : specs) {
        store_sum += spec.storeFrac;
        cpi_sum += spec.baseCpi;
    }
    EXPECT_NEAR(store_sum / 8.0, 0.0725, 0.002);
    EXPECT_NEAR(cpi_sum / 8.0, 1.238, 0.01);
}

TEST(Suite, WorkloadSpecsValidatesLevel)
{
    EXPECT_THROW(workloadSpecs(0), FatalError);
    EXPECT_THROW(workloadSpecs(17), FatalError);
    EXPECT_EQ(workloadSpecs(1).size(), 1u);
    EXPECT_EQ(workloadSpecs(16).size(), 16u);
}

TEST(Suite, ScaleSuiteAdjustsInstructions)
{
    auto specs = workloadSpecs(2);
    const Count before = specs[0].simInstructions;
    scaleSuite(specs, 0.5);
    EXPECT_EQ(specs[0].simInstructions, before / 2);
    EXPECT_THROW(scaleSuite(specs, 0.0), FatalError);
    // Scaling never drops below the floor.
    scaleSuite(specs, 1e-9);
    EXPECT_GE(specs[0].simInstructions, 1000u);
}

TEST(Suite, ArithClassTags)
{
    EXPECT_STREQ(arithClassTag(ArithClass::Integer), "(I)");
    EXPECT_STREQ(arithClassTag(ArithClass::SingleFloat), "(S)");
    EXPECT_STREQ(arithClassTag(ArithClass::DoubleFloat), "(D)");
}

/** Every suite benchmark generates and replays deterministically. */
class SuiteBenchmark : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SuiteBenchmark, GeneratesValidRecords)
{
    BenchmarkSpec spec = defaultSuite()[GetParam()];
    spec.simInstructions = 30000;
    SyntheticBenchmark bench(spec);
    trace::MemRef ref;
    bool expect_inst = true;
    Count data_run = 0;
    while (bench.next(ref)) {
        EXPECT_EQ(ref.addr % kWordBytes, 0u);
        if (ref.isInst()) {
            expect_inst = false;
            data_run = 0;
        } else {
            // At most one data reference per instruction.
            EXPECT_FALSE(expect_inst);
            ++data_run;
            EXPECT_LE(data_run, 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(All, SuiteBenchmark,
                         ::testing::Range(0u, 16u));

/**
 * Pinned streams: one full pass of each level-8 spec, and of two
 * specs under remixed seeds (the benchmark's held-out-seed remix),
 * digested as packed words.  The values were computed before the
 * samplers became table-driven and the generator gained its packed
 * path, so they pin the stream itself, through both batch calls.
 */
struct StreamPin
{
    unsigned spec;          //!< index into workloadSpecs(8)
    std::uint64_t remix;    //!< 0: the spec's own seed
    std::size_t refs;       //!< records in one pass
    std::uint64_t digest;   //!< FNV-1a over the packed words
};

/** Names each instance by its spec and remix: gtest's default byte
 *  dump would include the struct's padding, whose contents vary from
 *  build to build. */
void
PrintTo(const StreamPin &pin, std::ostream *os)
{
    *os << "spec" << pin.spec << "-remix" << pin.remix;
}

std::uint64_t
remixSeed(std::uint64_t seed, std::uint64_t remix)
{
    // SplitMix64 finaliser, as perfbench remixes held-out seeds.
    const auto mix = [](std::uint64_t z) {
        z += 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    return mix(seed ^ mix(remix));
}

void
digestWords(std::uint64_t &h, const std::uint32_t *words, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        for (unsigned byte = 0; byte < 4; ++byte) {
            h ^= (words[i] >> (8 * byte)) & 0xff;
            h *= 0x0000'0100'0000'01b3ull;
        }
    }
}

class StreamPins : public ::testing::TestWithParam<StreamPin>
{
  protected:
    BenchmarkSpec
    spec() const
    {
        BenchmarkSpec s = workloadSpecs(8).at(GetParam().spec);
        if (GetParam().remix != 0)
            s.seed = remixSeed(s.seed, GetParam().remix);
        return s;
    }
};

TEST_P(StreamPins, NextBatchAndNextBatchPackedReproduceThePin)
{
    constexpr std::uint64_t kBasis = 0xcbf2'9ce4'8422'2325ull;
    // Odd batch sizes, so data references straddle batch ends.
    {
        SyntheticBenchmark bench(spec());
        std::vector<trace::MemRef> refs(4093);
        std::vector<std::uint32_t> words(refs.size());
        std::uint64_t h = kBasis;
        std::size_t total = 0, got = 0;
        do {
            got = bench.nextBatch(refs.data(), refs.size());
            for (std::size_t i = 0; i < got; ++i) {
                ASSERT_TRUE(trace::packed::packable(refs[i]));
                words[i] = trace::packed::pack(refs[i]);
            }
            digestWords(h, words.data(), got);
            total += got;
        } while (got == refs.size());
        EXPECT_EQ(total, GetParam().refs);
        EXPECT_EQ(h, GetParam().digest);
    }
    {
        SyntheticBenchmark bench(spec());
        std::vector<std::uint32_t> words(5119);
        std::uint64_t h = kBasis;
        std::size_t total = 0, got = 0;
        do {
            got = bench.nextBatchPacked(words.data(), words.size());
            digestWords(h, words.data(), got);
            total += got;
        } while (got == words.size());
        EXPECT_EQ(total, GetParam().refs);
        EXPECT_EQ(h, GetParam().digest);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Level8, StreamPins,
    ::testing::Values(
        StreamPin{0, 0, 5000956, 0x176f679e5d7d56b0ull},
        StreamPin{1, 0, 5177134, 0x40a767f2d259e00aull},
        StreamPin{2, 0, 5261885, 0x76043aa3d49d350bull},
        StreamPin{3, 0, 5215574, 0x4037f855c5a2f3ceull},
        StreamPin{4, 0, 4853400, 0x79f1ccd807a438a1ull},
        StreamPin{5, 0, 5236895, 0x13911be178145be8ull},
        StreamPin{6, 0, 5185674, 0x9e6281f91548f63aull},
        StreamPin{7, 0, 5186561, 0x71bec3d10fcac0a2ull},
        StreamPin{0, 7, 5001007, 0x30ee8b5ef2e63876ull},
        StreamPin{4, 21, 4850583, 0xe265f65935d2d2a6ull}));

TEST(SyntheticBenchmark, MixedBatchCallsShareOneStream)
{
    // nextBatch and nextBatchPacked advance one generator: any
    // interleaving of them yields the packed-only stream.
    BenchmarkSpec spec = workloadSpecs(8)[0];
    spec.simInstructions = 50'000;
    SyntheticBenchmark packed_only(spec), mixed(spec);
    std::vector<std::uint32_t> expect(3 * spec.simInstructions);
    expect.resize(packed_only.nextBatchPacked(expect.data(),
                                              expect.size()));
    std::vector<std::uint32_t> got;
    std::uint32_t words[97];
    trace::MemRef refs[61];
    for (bool packed = true;; packed = !packed) {
        std::size_t n = 0;
        if (packed) {
            n = mixed.nextBatchPacked(words, 97);
            got.insert(got.end(), words, words + n);
        } else {
            n = mixed.nextBatch(refs, 61);
            for (std::size_t i = 0; i < n; ++i)
                got.push_back(trace::packed::pack(refs[i]));
        }
        if (n == 0)
            break;
    }
    EXPECT_EQ(got, expect);
}

/** Expect @p packed_drain to fail with the ingest rule's TraceIO
 *  error naming record @p index. */
template <typename Drain>
void
expectRejectedAt(Drain packed_drain, std::size_t index)
{
    try {
        packed_drain();
        ADD_FAILURE() << "an address past 2^31 was packed";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO);
        EXPECT_NE(std::string(e.what()).find(
                      "record " + std::to_string(index) + ":"),
                  std::string::npos)
            << e.what();
    }
}

/** Index of @p spec's first record at or above 2^31. */
std::size_t
firstPast2To31(const BenchmarkSpec &spec)
{
    SyntheticBenchmark bench(spec);
    trace::MemRef ref;
    std::size_t index = 0;
    while (bench.next(ref) && (ref.addr >> 31) == 0)
        ++index;
    EXPECT_NE(ref.addr >> 31, 0u) << "no address past 2^31";
    return index;
}

TEST(SyntheticBenchmark, PackedPathRefusesRegionsPast2To31)
{
    // Arrays reaching past 2^31 play through nextBatch, but the
    // packed path refuses the first record past 2^31 by the ingest
    // rule, naming it.
    BenchmarkSpec spec = workloadSpecs(8)[3];
    spec.data.arrayWords = 200'000'000;
    spec.simInstructions = 100'000;
    const std::size_t index = firstPast2To31(spec);
    SyntheticBenchmark bench(spec);
    expectRejectedAt(
        [&] {
            std::vector<std::uint32_t> words(4096);
            while (bench.nextBatchPacked(words.data(), words.size()) ==
                   words.size()) {
            }
        },
        index);
}

TEST(SyntheticBenchmark, PackedPathRejectsABurstPast2To31)
{
    // Store bursts run on from a stack address toward 2^31, which no
    // region check can rule out: the packed batch that emits one
    // is the same structured error, never a truncated word.
    BenchmarkSpec spec = workloadSpecs(8)[0];
    spec.data.storeStackFrac = 1.0;
    spec.data.storeGlobalFrac = spec.data.storeArrayFrac = 0.0;
    spec.data.storeBurstMean = 1e5;
    spec.loadFrac = 0.1;
    spec.storeFrac = 0.5;
    spec.simInstructions = 4'000'000;
    const std::size_t index = firstPast2To31(spec);
    SyntheticBenchmark bench(spec);
    expectRejectedAt(
        [&] {
            std::vector<std::uint32_t> words(1 << 16);
            while (bench.nextBatchPacked(words.data(), words.size()) ==
                   words.size()) {
            }
        },
        index);
}

} // namespace
} // namespace gaas::synth
