#include "arena.hh"

#include "trace/packed.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::trace
{

namespace
{

/**
 * Pack @p n records into @p out for arena storage (see
 * trace/packed.hh for the layout).  Returns false if any record does
 * not fit the 4-byte format, and the words written are then
 * meaningless: one verdict for the whole run, so the loop carries no
 * per-record error path.
 */
bool
packRun(const MemRef *refs, std::size_t n, std::uint32_t *out)
{
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
        ok &= packed::packable(refs[i]);
        out[i] = packed::pack(refs[i]);
    }
    return ok;
}

/** Reject the first unpackable record of @p refs[0, n), which sits
 *  @p pos references into stream @p key. */
[[noreturn]] void
rejectUnpackable(const std::string &key, std::size_t pos,
                 const MemRef *refs, std::size_t n)
{
    const MemRef *bad =
        std::find_if_not(refs, refs + n, packed::packable);
    gaas_error(ErrorCode::Internal, "trace arena cannot pack reference ",
               pos + static_cast<std::size_t>(bad - refs),
               " of stream '", key, "' (addr 0x", std::hex, bad->addr,
               std::dec, ", kind ", refKindName(bad->kind),
               "); only word-aligned sub-2^31 streams are "
               "arena-able -- set GAAS_BENCH_ARENA=0");
}

constexpr std::size_t kUnknownPassLen =
    std::numeric_limits<std::size_t>::max();

/** Generator pull size per iteration of the growth loop. */
constexpr std::size_t kGenChunk = std::size_t{1} << 16;

/** Global + thread-local tally counters. */
struct GlobalTally
{
    std::atomic<std::uint64_t> streamsGenerated{0};
    std::atomic<std::uint64_t> streamsReused{0};
    std::atomic<std::uint64_t> refsGenerated{0};
    std::atomic<std::uint64_t> genNanos{0};
};

GlobalTally globalTally;

thread_local ArenaTally threadTallySlice;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

ArenaStream::ArenaStream(
    std::string key, std::size_t pass_ref_bound,
    std::function<std::unique_ptr<TraceSource>()> factory_)
    : streamKey(std::move(key)), passRefBound(pass_ref_bound),
      blockCount(pass_ref_bound / kBlockRefs + 1),
      blocks(blockCount), passLen(kUnknownPassLen),
      factory(std::move(factory_))
{
    if (passRefBound == 0)
        gaas_fatal("ArenaStream requires a nonzero pass bound");
    if (!factory)
        gaas_fatal("ArenaStream requires a generator factory");
}

ArenaStream::~ArenaStream()
{
    for (auto &slot : blocks)
        delete[] slot.load(std::memory_order_relaxed);
}

std::size_t
ArenaStream::passRefs() const
{
    const std::size_t len = passLen.load(std::memory_order_acquire);
    return len == kUnknownPassLen ? 0 : len;
}

std::size_t
ArenaStream::bytes() const
{
    return allocatedBytes.load(std::memory_order_relaxed);
}

std::uint32_t *
ArenaStream::slot(bool &fresh)
{
    const std::size_t block = total / kBlockRefs;
    if (block >= blockCount) {
        gaas_error(ErrorCode::Internal, "trace arena stream '",
                   streamKey, "' exceeded its pass bound of ",
                   passRefBound, " references");
    }
    std::uint32_t *data = blocks[block].load(std::memory_order_relaxed);
    fresh = !data;
    if (fresh) {
        data = new std::uint32_t[kBlockRefs];
        blocks[block].store(data, std::memory_order_relaxed);
        allocatedBytes.fetch_add(kBlockRefs * sizeof(std::uint32_t),
                                 std::memory_order_relaxed);
    }
    return data + total % kBlockRefs;
}

std::size_t
ArenaStream::generate(std::size_t n, std::vector<MemRef> &scratch)
{
    bool fresh = false;
    std::uint32_t *out = slot(fresh);
    std::size_t got = TraceSource::kNoPacked;
    if (packedGenerator) {
        // Generators with a packed path (the synthetic benchmarks)
        // write straight into the block.
        got = generator->nextBatchPacked(out, n);
        packedGenerator = got != TraceSource::kNoPacked;
    }
    if (!packedGenerator) {
        // Everything else is packed here, one verdict per run.
        if (scratch.size() < n)
            scratch.resize(n);
        got = generator->nextBatch(scratch.data(), n);
        if (!packRun(scratch.data(), got, out))
            rejectUnpackable(streamKey, total, scratch.data(), got);
    }
    if (got == 0 && fresh) {
        // The pass ended on a block boundary: drop the empty block.
        const std::size_t block = total / kBlockRefs;
        delete[] blocks[block].exchange(nullptr,
                                        std::memory_order_relaxed);
        allocatedBytes.fetch_sub(kBlockRefs * sizeof(std::uint32_t),
                                 std::memory_order_relaxed);
    }
    total += got;
    return got;
}

void
ArenaStream::ensure(std::size_t want)
{
    grow(want, true);
}

bool
ArenaStream::tryEnsure(std::size_t want)
{
    return grow(want, false);
}

bool
ArenaStream::grow(std::size_t want, bool wait)
{
    want = std::min(want, passRefBound);
    if (published.load(std::memory_order_acquire) >= want)
        return true;
    if (passLen.load(std::memory_order_acquire) != kUnknownPassLen)
        return true;

    std::unique_lock<std::mutex> lock(growMutex, std::defer_lock);
    if (wait)
        lock.lock();
    else if (!lock.try_lock())
        return false;
    if (done || total >= want)
        return true;

    const auto start = std::chrono::steady_clock::now();
    if (!generatorMade) {
        generator = factory();
        generatorMade = true;
        if (!generator)
            gaas_fatal("ArenaStream factory returned null for '",
                       streamKey, "'");
    }

    // Geometric high-water-mark growth: generate at least a doubling
    // (floored at kMinChunk) so a consumer reading batch-by-batch
    // amortizes the mutex and the generator's loop preamble.
    const std::size_t target = std::min(
        std::max({want, total * 2, kMinChunk}), passRefBound);

    const std::size_t before = total;
    std::vector<MemRef> scratch;
    while (total < target) {
        const std::size_t ask = std::min(
            {kGenChunk, target - total, kBlockRefs - total % kBlockRefs});
        if (generate(ask, scratch) < ask) {
            // The generator's pass ended: freeze the length and drop
            // the generator (replays come from the blocks).
            passLen.store(total, std::memory_order_release);
            generator.reset();
            done = true;
            break;
        }
    }
    if (!done && total >= passRefBound) {
        // Landed exactly on the bound: probe for the pass end so a
        // reader at the bound cannot spin on an unknown pass length.
        MemRef probe;
        if (generator->nextBatch(&probe, 1) != 0) {
            gaas_error(ErrorCode::Internal, "trace arena stream '",
                       streamKey, "' exceeded its pass bound of ",
                       passRefBound, " references");
        }
        passLen.store(total, std::memory_order_release);
        generator.reset();
        done = true;
    }
    published.store(total, std::memory_order_release);

    const std::uint64_t generated = total - before;
    const double seconds = secondsSince(start);
    globalTally.refsGenerated.fetch_add(generated,
                                        std::memory_order_relaxed);
    globalTally.genNanos.fetch_add(
        static_cast<std::uint64_t>(seconds * 1e9),
        std::memory_order_relaxed);
    threadTallySlice.refsGenerated += generated;
    threadTallySlice.genSeconds += seconds;
    return true;
}

std::size_t
ArenaStream::read(std::size_t pos, MemRef *out, std::size_t n)
{
    std::size_t produced = 0;
    while (produced < n) {
        const std::size_t pub =
            published.load(std::memory_order_acquire);
        if (pos < pub) {
            std::size_t take = std::min(n - produced, pub - pos);
            while (take > 0) {
                const std::size_t block = pos / kBlockRefs;
                const std::size_t off = pos % kBlockRefs;
                const std::size_t run =
                    std::min(take, kBlockRefs - off);
                const std::uint32_t *data =
                    blocks[block].load(std::memory_order_relaxed);
                for (std::size_t i = 0; i < run; ++i)
                    out[produced + i] = packed::unpack(data[off + i]);
                produced += run;
                pos += run;
                take -= run;
            }
            continue;
        }
        // pos == pub: either the pass is over or the stream must
        // grow.  ensure() guarantees progress: on return either the
        // published length or the pass length has advanced past pos.
        if (passLen.load(std::memory_order_acquire) == pub)
            break;
        ensure(pos + (n - produced));
    }
    return produced;
}

std::size_t
ArenaStream::readPacked(std::size_t pos, std::uint32_t *out,
                        std::size_t n)
{
    std::size_t produced = 0;
    while (produced < n) {
        const std::size_t pub =
            published.load(std::memory_order_acquire);
        if (pos < pub) {
            std::size_t take = std::min(n - produced, pub - pos);
            while (take > 0) {
                const std::size_t block = pos / kBlockRefs;
                const std::size_t off = pos % kBlockRefs;
                const std::size_t run =
                    std::min(take, kBlockRefs - off);
                const std::uint32_t *data =
                    blocks[block].load(std::memory_order_relaxed);
                std::copy_n(data + off, run, out + produced);
                produced += run;
                pos += run;
                take -= run;
            }
            continue;
        }
        // Same growth protocol as read() above.
        if (passLen.load(std::memory_order_acquire) == pub)
            break;
        ensure(pos + (n - produced));
    }
    return produced;
}

TraceArena &
TraceArena::global()
{
    static TraceArena arena;
    return arena;
}

bool
TraceArena::enabledByEnv()
{
    const char *env = std::getenv("GAAS_BENCH_ARENA");
    return !(env && std::string_view(env) == "0");
}

ArenaStream *
TraceArena::acquire(
    const std::string &key, std::size_t pass_ref_bound,
    std::size_t ref_hint,
    std::function<std::unique_ptr<TraceSource>()> factory)
{
    ArenaStream *stream = nullptr;
    bool created = false;
    {
        std::lock_guard<std::mutex> lock(mapMutex);
        auto it = streams.find(key);
        if (it == streams.end()) {
            it = streams
                     .emplace(key, std::make_unique<ArenaStream>(
                                       key, pass_ref_bound,
                                       std::move(factory)))
                     .first;
            created = true;
        }
        stream = it->second.get();
    }
    if (created) {
        globalTally.streamsGenerated.fetch_add(
            1, std::memory_order_relaxed);
        ++threadTallySlice.streamsGenerated;
    } else {
        globalTally.streamsReused.fetch_add(
            1, std::memory_order_relaxed);
        ++threadTallySlice.streamsReused;
    }
    if (ref_hint > 0)
        stream->tryEnsure(ref_hint);
    return stream;
}

std::size_t
TraceArena::streamCount() const
{
    std::lock_guard<std::mutex> lock(mapMutex);
    return streams.size();
}

std::size_t
TraceArena::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mapMutex);
    std::size_t bytes = 0;
    for (const auto &entry : streams)
        bytes += entry.second->bytes();
    return bytes;
}

ArenaTally
TraceArena::totals()
{
    ArenaTally t;
    t.streamsGenerated =
        globalTally.streamsGenerated.load(std::memory_order_relaxed);
    t.streamsReused =
        globalTally.streamsReused.load(std::memory_order_relaxed);
    t.refsGenerated =
        globalTally.refsGenerated.load(std::memory_order_relaxed);
    t.genSeconds = static_cast<double>(globalTally.genNanos.load(
                       std::memory_order_relaxed)) *
                   1e-9;
    return t;
}

ArenaTally
TraceArena::threadTally()
{
    return threadTallySlice;
}

void
TraceArena::resetThreadTally()
{
    threadTallySlice = ArenaTally{};
}

ArenaSource::ArenaSource(ArenaStream *stream_, std::string name_)
    : stream(stream_), label(std::move(name_))
{
    if (!stream)
        gaas_fatal("ArenaSource requires a stream");
}

bool
ArenaSource::next(MemRef &ref)
{
    return nextBatch(&ref, 1) == 1;
}

std::size_t
ArenaSource::nextBatch(MemRef *out, std::size_t n)
{
    const std::size_t got = stream->read(pos, out, n);
    pos += got;
    return got;
}

std::size_t
ArenaSource::nextBatchPacked(std::uint32_t *out, std::size_t n)
{
    const std::size_t got = stream->readPacked(pos, out, n);
    pos += got;
    return got;
}

std::size_t
ArenaSource::skip(std::size_t n)
{
    // One ensure() suffices: on return the stream is published
    // through min(target, pass length), so the clamp below is final.
    const std::size_t max = std::numeric_limits<std::size_t>::max();
    stream->ensure(n > max - pos ? max : pos + n);
    const std::size_t pub = stream->publishedRefs();
    const std::size_t take = pos < pub ? std::min(n, pub - pos) : 0;
    pos += take;
    return take;
}

} // namespace gaas::trace
