/**
 * @file
 * Unit tests for the trace substrate: records, composing sources,
 * and the binary trace file format.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "trace/compose.hh"
#include "trace/file.hh"
#include "trace/source.hh"
#include "util/logging.hh"

namespace gaas::trace
{
namespace
{

std::vector<MemRef>
sampleTrace()
{
    return {
        instRef(0x400000),
        loadRef(0x10000000),
        instRef(0x400004),
        instRef(0x400008, /*syscall=*/true),
        storeRef(0x7ffeff00),
        instRef(0x40000c),
        storeRef(0x7ffeff04, /*partial_word=*/true),
    };
}

TEST(MemRef, Predicates)
{
    EXPECT_TRUE(instRef(0).isInst());
    EXPECT_FALSE(instRef(0).isData());
    EXPECT_TRUE(loadRef(0).isLoad());
    EXPECT_TRUE(loadRef(0).isData());
    EXPECT_TRUE(storeRef(0).isStore());
    EXPECT_TRUE(instRef(0, true).syscall);
    EXPECT_TRUE(storeRef(0, true).partialWord);
}

TEST(VectorSource, PlaysBackAndResets)
{
    VectorSource src("sample", sampleTrace());
    auto first = collect(src, 100);
    EXPECT_EQ(first, sampleTrace());
    MemRef ref;
    EXPECT_FALSE(src.next(ref));
    src.reset();
    auto second = collect(src, 100);
    EXPECT_EQ(second, sampleTrace());
}

TEST(LoopSource, WrapsAround)
{
    auto inner =
        std::make_unique<VectorSource>("sample", sampleTrace());
    LoopSource looped(std::move(inner));
    const auto n = sampleTrace().size();
    auto refs = collect(looped, 3 * n);
    ASSERT_EQ(refs.size(), 3 * n);
    EXPECT_EQ(looped.wraps(), 2u);
    // Third copy matches the first.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(refs[i], refs[2 * n + i]);
}

TEST(LoopSource, EmptyInnerTerminates)
{
    auto inner = std::make_unique<VectorSource>(
        "empty", std::vector<MemRef>{});
    LoopSource looped(std::move(inner));
    MemRef ref;
    EXPECT_FALSE(looped.next(ref));
}

TEST(LoopSource, BatchedWrapMatchesNext)
{
    // Every batch size from 1 up to past three laps must straddle the
    // wrap at some offset; the batched stream and its wrap count must
    // match the repeated-next() ground truth exactly.
    const auto sample = sampleTrace();
    const std::size_t n = sample.size();
    const std::size_t want = 3 * n + 2;
    for (std::size_t batch = 1; batch <= want; ++batch) {
        LoopSource byNext(
            std::make_unique<VectorSource>("s", sample));
        LoopSource byBatch(
            std::make_unique<VectorSource>("s", sample));

        std::vector<MemRef> a;
        MemRef ref;
        while (a.size() < want && byNext.next(ref))
            a.push_back(ref);

        std::vector<MemRef> b;
        std::vector<MemRef> buf(batch);
        while (b.size() < want) {
            const std::size_t ask =
                std::min(batch, want - b.size());
            const std::size_t got =
                byBatch.nextBatch(buf.data(), ask);
            ASSERT_GT(got, 0u) << "batch " << batch;
            b.insert(b.end(), buf.begin(), buf.begin() + got);
        }
        ASSERT_EQ(a, b) << "batch " << batch;
        EXPECT_EQ(byNext.wraps(), byBatch.wraps())
            << "batch " << batch;
    }
}

TEST(LoopSource, OneBatchSpansManyWraps)
{
    // A single call much larger than the inner trace fills completely
    // (the refill loop keeps wrapping instead of returning short).
    const auto sample = sampleTrace();
    const std::size_t n = sample.size();
    LoopSource looped(std::make_unique<VectorSource>("s", sample));
    std::vector<MemRef> out(5 * n + 3);
    ASSERT_EQ(looped.nextBatch(out.data(), out.size()), out.size());
    EXPECT_EQ(looped.wraps(), 5u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], sample[i % n]) << "index " << i;
}

TEST(LoopSource, EmptyInnerBatchTerminates)
{
    LoopSource looped(std::make_unique<VectorSource>(
        "empty", std::vector<MemRef>{}));
    MemRef buf[4];
    EXPECT_EQ(looped.nextBatch(buf, 4), 0u);
}

TEST(LoopSource, SkipMatchesDiscardedReads)
{
    // skip(n) must land exactly where n discarded reads would, for
    // skips that stay inside the pass, hit its end exactly, cross
    // it once, and cross it several times -- both before the pass
    // length is known (pre == 0 starts on a fresh source) and
    // after.
    const auto sample = sampleTrace();
    const std::size_t n = sample.size();
    for (std::size_t pre : {std::size_t{0}, std::size_t{3}}) {
        for (std::size_t skip :
             {std::size_t{0}, std::size_t{1}, n - 1, n, n + 1,
              2 * n - 1, 2 * n, 5 * n + 2}) {
            LoopSource skipped(
                std::make_unique<VectorSource>("s", sample));
            LoopSource read(
                std::make_unique<VectorSource>("s", sample));
            (void)collect(skipped, pre);
            (void)collect(read, pre);
            EXPECT_EQ(skipped.skip(skip), skip);
            (void)collect(read, skip);
            EXPECT_EQ(collect(skipped, 2 * n), collect(read, 2 * n))
                << "pre " << pre << " skip " << skip;
        }
    }
}

TEST(LoopSource, SkipCountsWholePassWraps)
{
    const auto sample = sampleTrace();
    const std::size_t n = sample.size();
    LoopSource looped(std::make_unique<VectorSource>("s", sample));
    // Read one record past the end so the pass length is learned.
    (void)collect(looped, n + 1);
    EXPECT_EQ(looped.wraps(), 1u);
    // Three whole passes from offset 1: pure modular arithmetic.
    EXPECT_EQ(looped.skip(3 * n), 3 * n);
    EXPECT_EQ(looped.wraps(), 4u);
    MemRef ref;
    ASSERT_TRUE(looped.next(ref));
    EXPECT_EQ(ref, sample[1]);
}

TEST(LoopSource, SkipOnEmptyInnerReturnsZero)
{
    LoopSource looped(std::make_unique<VectorSource>(
        "empty", std::vector<MemRef>{}));
    EXPECT_EQ(looped.skip(5), 0u);
    MemRef ref;
    EXPECT_FALSE(looped.next(ref));
}

TEST(MixSource, CountsKinds)
{
    MixSource mix(
        std::make_unique<VectorSource>("sample", sampleTrace()));
    collect(mix, 100);
    const RefMix &m = mix.mix();
    EXPECT_EQ(m.instructions, 4u);
    EXPECT_EQ(m.loads, 1u);
    EXPECT_EQ(m.stores, 2u);
    EXPECT_EQ(m.syscalls, 1u);
    EXPECT_EQ(m.partialWordStores, 1u);
    EXPECT_EQ(m.total(), 7u);
    EXPECT_DOUBLE_EQ(m.loadFraction(), 0.25);
    EXPECT_DOUBLE_EQ(m.storeFraction(), 0.5);
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case AND per process: ctest -j runs each
        // case as its own concurrent process, so a shared fixed name
        // races (one case's writer truncates another's reader).
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = (std::filesystem::temp_directory_path() /
                ("gaas_trace_test_" + std::string(info->name()) +
                 "_" + std::to_string(::getpid()) + ".gtrc"))
                   .string();
    }

    void
    TearDown() override
    {
        std::filesystem::remove(path);
    }

    std::string path;
};

TEST_F(TraceFileTest, RoundTrip)
{
    {
        TraceFileWriter writer(path);
        for (const auto &ref : sampleTrace())
            writer.write(ref);
        writer.close();
        EXPECT_EQ(writer.recordsWritten(), sampleTrace().size());
    }
    TraceFileReader reader(path);
    EXPECT_EQ(reader.recordCount(), sampleTrace().size());
    auto refs = collect(reader, 100);
    EXPECT_EQ(refs, sampleTrace());
}

TEST_F(TraceFileTest, ResetRewinds)
{
    {
        TraceFileWriter writer(path);
        VectorSource src("sample", sampleTrace());
        EXPECT_EQ(writer.writeAll(src), sampleTrace().size());
    }
    TraceFileReader reader(path);
    auto first = collect(reader, 100);
    reader.reset();
    auto second = collect(reader, 100);
    EXPECT_EQ(first, second);
}

TEST_F(TraceFileTest, LargeTraceBuffering)
{
    std::vector<MemRef> big;
    for (std::uint64_t i = 0; i < 200000; ++i)
        big.push_back(instRef(0x400000 + 4 * i, i % 977 == 0));
    {
        TraceFileWriter writer(path);
        for (const auto &ref : big)
            writer.write(ref);
    } // destructor closes
    TraceFileReader reader(path);
    EXPECT_EQ(reader.recordCount(), big.size());
    auto refs = collect(reader, big.size() + 1);
    EXPECT_EQ(refs, big);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_THROW(TraceFileReader("/nonexistent/nope.gtrc"),
                 FatalError);
}

TEST_F(TraceFileTest, BadMagicIsFatal)
{
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[32] = "not a trace file at all";
        std::fwrite(junk, 1, sizeof(junk), f);
        std::fclose(f);
    }
    EXPECT_THROW(TraceFileReader reader(path), FatalError);
}

TEST_F(TraceFileTest, WriterEmitsCurrentVersion)
{
    {
        TraceFileWriter writer(path);
        for (const auto &ref : sampleTrace())
            writer.write(ref);
    }
    TraceFileReader reader(path);
    EXPECT_EQ(reader.formatVersion(), kTraceVersion);
}

TEST_F(TraceFileTest, V1FilesRemainReadable)
{
    {
        TraceFileWriter writer(path);
        for (const auto &ref : sampleTrace())
            writer.write(ref);
    }
    // Rewrite the header's version field to 1; the payload layout is
    // identical, so a v1 file is this file with an older stamp.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const unsigned char v1[4] = {1, 0, 0, 0};
        ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(v1, 1, 4, f), 4u);
        std::fclose(f);
    }
    TraceFileReader reader(path);
    EXPECT_EQ(reader.formatVersion(), 1u);
    EXPECT_EQ(collect(reader, 100), sampleTrace());
}

TEST_F(TraceFileTest, FutureVersionIsFatal)
{
    {
        TraceFileWriter writer(path);
        writer.write(instRef(0x400000));
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const unsigned char v9[4] = {9, 0, 0, 0};
        ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(v9, 1, 4, f), 4u);
        std::fclose(f);
    }
    EXPECT_THROW(TraceFileReader reader(path), FatalError);
}

TEST_F(TraceFileTest, TruncationIsFatalAtOpen)
{
    {
        TraceFileWriter writer(path);
        for (const auto &ref : sampleTrace())
            writer.write(ref);
    }
    const auto full = std::filesystem::file_size(path);
    // Cut mid-record (drop 4 bytes) and at a record boundary (drop
    // exactly two records): both must be rejected when the file is
    // opened, not records later mid-simulation.
    for (const std::uintmax_t cut :
         {full - 4, full - 2 * kTraceRecordBytes}) {
        std::filesystem::resize_file(path, cut);
        try {
            TraceFileReader reader(path);
            FAIL() << "truncated file (size " << cut
                   << ") must fail at open";
        } catch (const FatalError &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find("truncated"), std::string::npos)
                << what;
            // Byte-accurate: the message carries the actual size.
            EXPECT_NE(what.find(std::to_string(cut)),
                      std::string::npos)
                << what;
        }
    }
}

TEST_F(TraceFileTest, TrailingGarbageIsFatalAtOpen)
{
    {
        TraceFileWriter writer(path);
        for (const auto &ref : sampleTrace())
            writer.write(ref);
    }
    const auto full = std::filesystem::file_size(path);
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const char junk[5] = {'j', 'u', 'n', 'k', '!'};
        ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f),
                  sizeof(junk));
        std::fclose(f);
    }
    try {
        TraceFileReader reader(path);
        FAIL() << "garbage-suffixed file must fail at open";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("trailing garbage"), std::string::npos)
            << what;
        // Byte-accurate: names the offset where the garbage starts.
        EXPECT_NE(what.find("offset " + std::to_string(full)),
                  std::string::npos)
            << what;
    }
}

TEST_F(TraceFileTest, HeaderCountMismatchIsFatalAtOpen)
{
    {
        TraceFileWriter writer(path);
        for (const auto &ref : sampleTrace())
            writer.write(ref);
    }
    // Forge the header to promise one extra record: the file is now
    // "truncated" relative to its own header.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const auto count =
            static_cast<std::uint64_t>(sampleTrace().size()) + 1;
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(count >> (8 * i));
        ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(bytes, 1, 8, f), 8u);
        std::fclose(f);
    }
    EXPECT_THROW(TraceFileReader reader(path), FatalError);
}

} // namespace
} // namespace gaas::trace
