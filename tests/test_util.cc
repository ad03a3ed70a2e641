/**
 * @file
 * Unit tests for util: bit operations, logging, the PRNG, the
 * fractional cycle accumulator, the structured error model, fault
 * injection, and atomic file publication.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "synth/suite.hh"
#include "util/bitops.hh"
#include "util/env.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/file_io.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace gaas
{
namespace
{

TEST(BitOps, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitOps, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
}

TEST(BitOps, MaskAndBits)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(4), 0xfu);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});
    EXPECT_EQ(bits(0xabcd, 4, 8), 0xbcu);
}

TEST(BitOps, AlignAndDivCeil)
{
    EXPECT_EQ(alignUp(0, 16), 0u);
    EXPECT_EQ(alignUp(1, 16), 16u);
    EXPECT_EQ(alignUp(16, 16), 16u);
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(8, 4), 2u);
    EXPECT_EQ(divCeil(9, 4), 3u);
}

TEST(Types, WordConversions)
{
    EXPECT_EQ(wordsToBytes(kw(4)), 16u * 1024);
    EXPECT_EQ(bytesToWords(16 * 1024), kw(4));
    EXPECT_EQ(kPageWords, 4u * 1024);
    EXPECT_EQ(kPageBytes, 16u * 1024);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(gaas_fatal("boom"), FatalError);
    try {
        gaas_fatal("value was ", 42);
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("value was 42"),
                  std::string::npos);
    }
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(12345), b(12345), c(54321);
    bool all_equal = true;
    bool any_diff_c = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next64();
        const auto vb = b.next64();
        const auto vc = c.next64();
        all_equal = all_equal && (va == vb);
        any_diff_c = any_diff_c || (va != vc);
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_c);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(37), 37u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(99);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GeometricMeanApproximatelyCorrect)
{
    Rng rng(42);
    const double target = 12.0;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(target));
    const double mean = sum / n;
    EXPECT_NEAR(mean, target, 0.25);
}

TEST(Rng, GeometricDegenerateMeanIsOne)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(0.5), 1u);
}

TEST(Rng, ParetoIndexInBounds)
{
    Rng rng(21);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(rng.nextParetoIndex(0.9, 1000), 1000u);
}

TEST(Rng, ParetoIsSkewedTowardZero)
{
    Rng rng(22);
    const int n = 100000;
    int low = 0;
    for (int i = 0; i < n; ++i) {
        if (rng.nextParetoIndex(1.0, 1 << 20) < 16)
            ++low;
    }
    // A heavy-tailed rank distribution puts a large share of mass on
    // the first few ranks.
    EXPECT_GT(low, n / 2);
}

TEST(Rng, ParetoSmallerAlphaHasHeavierTail)
{
    Rng a(31), b(31);
    const int n = 100000;
    std::uint64_t deep_light = 0, deep_heavy = 0;
    for (int i = 0; i < n; ++i) {
        if (a.nextParetoIndex(1.5, 1 << 20) > 4096)
            ++deep_light;
        if (b.nextParetoIndex(0.6, 1 << 20) > 4096)
            ++deep_heavy;
    }
    EXPECT_GT(deep_heavy, deep_light);
}

TEST(Rng, PickCumulative)
{
    Rng rng(17);
    const double cdf[] = {0.25, 0.75, 1.0};
    int counts[3] = {0, 0, 0};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.pickCumulative(cdf)];
    EXPECT_NEAR(counts[0], n * 0.25, n * 0.02);
    EXPECT_NEAR(counts[1], n * 0.50, n * 0.02);
    EXPECT_NEAR(counts[2], n * 0.25, n * 0.02);
}

/**
 * @name Sampler exactness
 * ParetoSampler and GeometricSampler answer most draws from a shared
 * DrawTable; the contract is that every draw equals Rng's libm
 * expression (nextParetoIndex / nextGeometric) and consumes the same
 * PRNG state.  The references below restate those expressions for a
 * given uniform k = next64() >> 11, independently of the samplers.
 */
///@{
constexpr std::uint64_t kTopDraw = (std::uint64_t{1} << 53) - 1;

std::uint64_t
paretoAt(double alpha, std::uint64_t bound, std::uint64_t k)
{
    const double tail = std::pow(static_cast<double>(bound), -alpha);
    const double u = static_cast<double>(k) * 0x1.0p-53;
    const double x = std::pow(1.0 - u * (1.0 - tail), -1.0 / alpha);
    const auto idx = static_cast<std::uint64_t>(x) - 1;
    return idx >= bound ? bound - 1 : idx;
}

std::uint64_t
geometricAt(double mean, std::uint64_t k)
{
    const double u = static_cast<double>(k) * 0x1.0p-53;
    const double r =
        std::floor(std::log1p(-u) / std::log1p(-(1.0 / mean))) + 1.0;
    return static_cast<std::uint64_t>(std::clamp(r, 1.0, 1e12));
}

struct ParetoSet
{
    double alpha;
    std::uint64_t bound;
};

/** The suite's Pareto parameter sets (as DataModel and CodeModel
 *  derive them) plus a grid over alpha 0.5-1.5, bounds 2-2^20. */
std::vector<ParetoSet>
paretoSets()
{
    std::set<std::pair<double, std::uint64_t>> sets;
    for (const auto &spec : synth::workloadSpecs(synth::kSuiteSize)) {
        const auto &d = spec.data;
        sets.emplace(d.globalAlpha,
                     std::bit_floor(std::max<std::uint64_t>(
                         d.globalWords, 1)));
        sets.emplace(d.heapAlpha,
                     std::bit_floor(std::max<std::uint64_t>(
                         d.heapWords / d.heapLineWords, 1)));
        sets.emplace(spec.code.jumpZipfAlpha, spec.code.procCount);
    }
    for (const double alpha : {0.5, 0.65, 0.8, 1.0, 1.25, 1.5}) {
        for (const std::uint64_t bound :
             {2ull, 3ull, 7ull, 100ull, 4096ull, 1ull << 20})
            sets.emplace(alpha, bound);
    }
    std::vector<ParetoSet> out;
    for (const auto &[alpha, bound] : sets)
        out.push_back({alpha, bound});
    return out;
}

/** The suite's geometric means (stack offsets, store bursts, loop
 *  trip counts: 1 + a geometric draw, so integers from 2) plus a
 *  grid over 1.0-64. */
std::vector<double>
geometricMeans()
{
    std::set<double> means = {1.0, 1.25, 1.5, 2.5, 3.0, 7.5, 10.0,
                              17.5, 100.0, 433.0};
    for (int m = 2; m <= 64; ++m)
        means.insert(m);
    for (const auto &spec : synth::workloadSpecs(synth::kSuiteSize))
        means.insert(std::max(spec.data.storeBurstMean, 1.0));
    return {means.begin(), means.end()};
}

/**
 * Check @p at against @p ref at k = 0, k = 2^53 - 1, every k within
 * @p margin of each guard band's two edges, and every k within
 * @p margin of each point where @p ref's value changes (found by
 * bisection, up to the table's last region).  @return mismatches.
 */
template <typename At, typename Ref>
int
mismatchesNearEdges(const DrawTable &table, At at, Ref ref,
                    std::uint64_t margin)
{
    int bad = 0;
    const auto check = [&](std::uint64_t k) {
        if (k <= kTopDraw && at(k) != ref(k) && ++bad <= 5) {
            ADD_FAILURE() << "k = " << k << ": table " << at(k)
                          << ", libm " << ref(k);
        }
    };
    const auto around = [&](std::uint64_t edge) {
        const std::uint64_t from = edge > margin ? edge - margin : 0;
        for (std::uint64_t k = from; k <= edge + margin; ++k)
            check(k);
    };
    check(0);
    check(kTopDraw);
    for (std::uint64_t b = 0; b <= table.regions(); ++b) {
        around(table.hi(b));
        around(table.hi(b) > table.width()
                   ? table.hi(b) - table.width()
                   : 0);
    }
    // The value steps up at each crossing; bisect for the first k
    // above each value reached.
    std::uint64_t lo = 0;
    for (std::uint64_t b = 0; b <= table.regions(); ++b) {
        const std::uint64_t value = ref(lo);
        if (ref(kTopDraw) <= value)
            break;
        std::uint64_t hi = kTopDraw;
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            (ref(mid) <= value ? lo : hi) = mid;
        }
        around(hi);
        lo = hi;
    }
    return bad;
}

TEST(SamplerTables, ParetoMatchesLibmAroundEveryBandAndCrossing)
{
    for (const ParetoSet &set : paretoSets()) {
        SCOPED_TRACE(testing::Message() << "alpha " << set.alpha
                                        << ", bound " << set.bound);
        const ParetoSampler sampler(set.alpha, set.bound);
        ASSERT_NE(sampler.drawTable(), nullptr);
        EXPECT_LE(sampler.drawTable()->regions(), set.bound - 1);
        EXPECT_EQ(mismatchesNearEdges(
                      *sampler.drawTable(),
                      [&](std::uint64_t k) { return sampler.at(k); },
                      [&](std::uint64_t k) {
                          return paretoAt(set.alpha, set.bound, k);
                      },
                      16),
                  0);
    }
}

TEST(SamplerTables, GeometricMatchesLibmAroundEveryBandAndCrossing)
{
    for (const double mean : geometricMeans()) {
        SCOPED_TRACE(testing::Message() << "mean " << mean);
        const GeometricSampler sampler(mean);
        if (mean <= 1.0) {
            EXPECT_EQ(sampler.drawTable(), nullptr);
            continue;
        }
        ASSERT_NE(sampler.drawTable(), nullptr);
        EXPECT_EQ(mismatchesNearEdges(
                      *sampler.drawTable(),
                      [&](std::uint64_t k) { return sampler.at(k); },
                      [&](std::uint64_t k) {
                          return geometricAt(mean, k);
                      },
                      16),
                  0);
    }
}

TEST(SamplerTables, RandomDrawsMatchRngAndLeaveTheSameState)
{
    // 10^7 draws in all, each sampler against the Rng method it
    // replaces, on twin generators: values and the state left behind
    // must agree.
    const auto pareto = paretoSets();
    const auto geometric = geometricMeans();
    const std::size_t sets = pareto.size() + geometric.size();
    const std::size_t per_set = 10'000'000 / sets + 1;
    std::uint64_t seed = 1;
    for (const ParetoSet &set : pareto) {
        const ParetoSampler sampler(set.alpha, set.bound);
        Rng a(seed), b(seed);
        ++seed;
        std::size_t bad = 0;
        for (std::size_t i = 0; i < per_set; ++i)
            bad += sampler.draw(a) != b.nextParetoIndex(set.alpha,
                                                        set.bound);
        EXPECT_EQ(bad, 0u) << "alpha " << set.alpha << ", bound "
                           << set.bound;
        EXPECT_EQ(a.next64(), b.next64());
    }
    for (const double mean : geometric) {
        const GeometricSampler sampler(mean);
        Rng a(seed), b(seed);
        ++seed;
        std::size_t bad = 0;
        for (std::size_t i = 0; i < per_set; ++i)
            bad += sampler.draw(a) != b.nextGeometric(mean);
        EXPECT_EQ(bad, 0u) << "mean " << mean;
        EXPECT_EQ(a.next64(), b.next64());
    }
}

TEST(SamplerTables, DegenerateParetoCasesMatchRng)
{
    // No table: bound 1 draws nothing, alpha <= 0 is uniform.
    for (const ParetoSet set : {ParetoSet{0.9, 1}, ParetoSet{0.0, 77},
                                ParetoSet{-1.0, 5}, ParetoSet{20.0, 9}}) {
        const ParetoSampler sampler(set.alpha, set.bound);
        Rng a(3), b(3);
        for (int i = 0; i < 1000; ++i) {
            ASSERT_EQ(sampler.draw(a),
                      b.nextParetoIndex(set.alpha, set.bound));
        }
        EXPECT_EQ(a.next64(), b.next64());
    }
}

TEST(SamplerTables, OneSharedTablePerParameterSet)
{
    // Samplers built concurrently for one parameter set share one
    // table; another parameter set gets its own.
    constexpr int kThreads = 4;
    std::vector<const DrawTable *> pareto(kThreads), geometric(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                pareto[t] = ParetoSampler(0.77, 5000).drawTable();
                geometric[t] = GeometricSampler(7.25).drawTable();
            });
        }
        for (auto &th : threads)
            th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(pareto[t], nullptr);
        EXPECT_EQ(pareto[t], pareto[0]);
        EXPECT_EQ(geometric[t], geometric[0]);
    }
    EXPECT_NE(ParetoSampler(0.77, 5001).drawTable(), pareto[0]);
    EXPECT_NE(GeometricSampler(7.5).drawTable(), geometric[0]);
    EXPECT_LE(drawTableBytes(), std::size_t{1} << 20);
}
///@}

TEST(FractionAccumulator, ZeroRate)
{
    FractionAccumulator acc(0.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(acc.tick(), 0u);
}

TEST(FractionAccumulator, IntegerRate)
{
    FractionAccumulator acc(3.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(acc.tick(), 3u);
}

TEST(FractionAccumulator, FractionalRateAveragesExactly)
{
    FractionAccumulator acc(0.238);
    std::uint64_t total = 0;
    const int n = 1000000;
    for (int i = 0; i < n; ++i) {
        const auto t = acc.tick();
        EXPECT_LE(t, 1u);
        total += t;
    }
    EXPECT_NEAR(static_cast<double>(total) / n, 0.238, 1e-4);
}

TEST(FractionAccumulator, MixedRate)
{
    FractionAccumulator acc(2.75);
    std::uint64_t total = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto t = acc.tick();
        EXPECT_GE(t, 2u);
        EXPECT_LE(t, 3u);
        total += t;
    }
    EXPECT_NEAR(static_cast<double>(total) / n, 2.75, 1e-4);
}

TEST(FractionAccumulator, DeterministicSequence)
{
    FractionAccumulator a(0.5), b(0.5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.tick(), b.tick());
}

TEST(Env, ParseU64AcceptsOnlyWholeDecimals)
{
    EXPECT_EQ(parseU64("0"), std::optional<std::uint64_t>{0});
    EXPECT_EQ(parseU64("42"), std::optional<std::uint64_t>{42});
    EXPECT_EQ(parseU64("18446744073709551615"),
              std::optional<std::uint64_t>{
                  std::numeric_limits<std::uint64_t>::max()});

    EXPECT_FALSE(parseU64(""));
    EXPECT_FALSE(parseU64("4x"));
    EXPECT_FALSE(parseU64("x4"));
    EXPECT_FALSE(parseU64("+4"));
    EXPECT_FALSE(parseU64("-4"));
    EXPECT_FALSE(parseU64(" 4"));
    EXPECT_FALSE(parseU64("4 "));
    EXPECT_FALSE(parseU64("0x10"));
    EXPECT_FALSE(parseU64("1e6"));
    EXPECT_FALSE(parseU64("18446744073709551616")); // overflow
}

TEST(Env, EnvU64FallsBackOnBadValues)
{
    const char *name = "GAAS_TEST_ENV_U64";
    ::unsetenv(name);
    EXPECT_EQ(envU64(name, 17), 17u);
    ::setenv(name, "", 1);
    EXPECT_EQ(envU64(name, 17), 17u);
    ::setenv(name, "23", 1);
    EXPECT_EQ(envU64(name, 17), 23u);
    ::setenv(name, "23x", 1);
    EXPECT_EQ(envU64(name, 17), 17u);
    ::setenv(name, "0", 1); // zero is rejected: knobs are positive
    EXPECT_EQ(envU64(name, 17), 17u);
    ::unsetenv(name);
}

TEST(Error, CodeNamesRoundTripAndAreStable)
{
    // The wire names are part of the public contract (journal
    // records, CSV "failed:<code>" cells); pin them literally.
    EXPECT_STREQ(errorCodeName(ErrorCode::Config), "config");
    EXPECT_STREQ(errorCodeName(ErrorCode::TraceIO), "trace-io");
    EXPECT_STREQ(errorCodeName(ErrorCode::StatsIO), "stats-io");
    EXPECT_STREQ(errorCodeName(ErrorCode::Watchdog), "watchdog");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");

    for (ErrorCode code :
         {ErrorCode::Config, ErrorCode::TraceIO, ErrorCode::StatsIO,
          ErrorCode::Watchdog, ErrorCode::Internal}) {
        ErrorCode parsed;
        ASSERT_TRUE(parseErrorCode(errorCodeName(code), parsed));
        EXPECT_EQ(parsed, code);
    }
    ErrorCode ignored;
    EXPECT_FALSE(parseErrorCode("no-such-code", ignored));
    EXPECT_FALSE(parseErrorCode("", ignored));
}

TEST(Error, GaasErrorFormatsLikeGaasFatal)
{
    try {
        gaas_error(ErrorCode::TraceIO, "went ", 42, " wrong");
        FAIL() << "gaas_error did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO);
        EXPECT_STREQ(e.codeName(), "trace-io");
        const std::string what = e.what();
        EXPECT_NE(what.find("fatal: went 42 wrong"),
                  std::string::npos);
        EXPECT_NE(what.find("test_util.cc"), std::string::npos);
    }
    // SimError is a FatalError: existing handlers keep working.
    EXPECT_THROW(gaas_error(ErrorCode::Internal, "x"), FatalError);
}

/** Disarm on scope exit so a failing test cannot leak a fault. */
struct FaultGuard
{
    FaultGuard() = default;
    ~FaultGuard() { fault::reset(); }
};

TEST(Fault, DisarmedByDefaultAndAfterReset)
{
    FaultGuard guard;
    fault::reset();
    EXPECT_FALSE(fault::enabled());
    EXPECT_FALSE(fault::shouldFail("file-write"));

    fault::configure("file-write:1");
    EXPECT_TRUE(fault::enabled());
    fault::reset();
    EXPECT_FALSE(fault::enabled());
    EXPECT_FALSE(fault::shouldFail("file-write"));
}

TEST(Fault, NthHitSemantics)
{
    FaultGuard guard;
    fault::configure("pt:2,pt:4");
    EXPECT_FALSE(fault::shouldFail("pt")); // hit 1
    EXPECT_TRUE(fault::shouldFail("pt"));  // hit 2
    EXPECT_FALSE(fault::shouldFail("pt")); // hit 3
    EXPECT_TRUE(fault::shouldFail("pt"));  // hit 4
    EXPECT_FALSE(fault::shouldFail("pt")); // hit 5
    // Another point has its own counter and no armed entries.
    EXPECT_FALSE(fault::shouldFail("other"));

    // configure() replaces the spec and zeroes the counters.
    fault::configure("pt:1");
    EXPECT_TRUE(fault::shouldFail("pt"));
    EXPECT_FALSE(fault::shouldFail("pt"));
}

TEST(Fault, StarFailsEveryHit)
{
    FaultGuard guard;
    fault::configure("pt:*");
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(fault::shouldFail("pt"));
    EXPECT_FALSE(fault::shouldFail("other"));
}

TEST(Fault, MalformedSpecIsAConfigError)
{
    FaultGuard guard;
    for (const char *bad :
         {"nocolon", "pt:", "pt:0", "pt:x", "pt:1x", ":3",
          "pt:-2"}) {
        SCOPED_TRACE(bad);
        try {
            fault::configure(bad);
            FAIL() << "spec accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::Config);
        }
        // A rejected spec must not leave anything half-armed.
        EXPECT_FALSE(fault::enabled());
    }
    // The empty spec simply disarms.
    fault::configure("");
    EXPECT_FALSE(fault::enabled());
}

/** A fresh scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "fileio-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(FileIo, WriteFileAtomicPublishesAllOrNothing)
{
    const std::string dir = scratchDir("atomic");
    const std::string path = dir + "/out.txt";

    std::string error;
    ASSERT_TRUE(util::writeFileAtomic(path, "first\n", &error))
        << error;
    EXPECT_EQ(slurp(path), "first\n");
    // No temp residue after success.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // A failed write leaves the previous content untouched and
    // cleans up its temp file.
    FaultGuard guard;
    fault::configure("file-write:1");
    EXPECT_FALSE(util::writeFileAtomic(path, "second\n", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(slurp(path), "first\n");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FileIo, WriteFileAtomicReportsUnreachablePaths)
{
    const std::string dir = scratchDir("noent");
    std::string error;
    EXPECT_FALSE(util::writeFileAtomic(dir + "/no/such/dir/x", "a",
                                       &error));
    EXPECT_FALSE(error.empty());
}

TEST(FileIo, RetrySucceedsAfterTransientFault)
{
    const std::string dir = scratchDir("retry");
    const std::string path = dir + "/out.txt";

    // First attempt fails (injected), second succeeds: the bounded
    // retry absorbs the transient.
    FaultGuard guard;
    fault::configure("file-write:1");
    std::string error;
    EXPECT_TRUE(util::writeFileAtomicRetry(path, "ok\n", &error));
    EXPECT_EQ(slurp(path), "ok\n");

    // Every attempt failing gives up with the error set.
    fault::configure("file-write:*");
    EXPECT_FALSE(
        util::writeFileAtomicRetry(path, "nope\n", &error, 3));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(slurp(path), "ok\n");
}

TEST(SamplerTables, BudgetCapsTheTablesAndDrawsStayExact)
{
    // Distinct means until the 1 MiB budget refuses a table: the
    // total stays capped and a table-less sampler is still exact.
    // (Last in this file: it spends the process's budget.)
    double mean = 1000.5;
    while (GeometricSampler(mean).drawTable() != nullptr)
        mean += 1.0;
    EXPECT_LE(drawTableBytes(), std::size_t{1} << 20);
    const GeometricSampler geometric(mean + 1.0);
    const ParetoSampler pareto(0.71, 123456);
    EXPECT_EQ(geometric.drawTable(), nullptr);
    EXPECT_EQ(pareto.drawTable(), nullptr);
    Rng a(9), b(9);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(geometric.draw(a), b.nextGeometric(mean + 1.0));
        ASSERT_EQ(pareto.draw(a), b.nextParetoIndex(0.71, 123456));
    }
    EXPECT_EQ(a.next64(), b.next64());
}

} // namespace
} // namespace gaas
