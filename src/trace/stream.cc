#include "stream.hh"

#include <algorithm>

#include "trace/packed.hh"
#include "util/env.hh"

namespace gaas::trace
{

StreamSource::StreamSource(const std::string &path,
                           StreamOptions options)
    : file(path)
{
    packed = file.packable();

    std::size_t budget = options.memoryBudgetBytes;
    if (budget == 0) {
        budget = static_cast<std::size_t>(envU64(
                     kStreamBudgetEnv, kStreamBudgetDefaultMb)) *
                 (1u << 20);
    }

    // One slot holds one compressed payload plus one decoded block.
    // The payload capacity comes from the seek table (largest block
    // in this file), the decoded side from the fixed per-block
    // record population.
    const std::size_t decodedBytes =
        static_cast<std::size_t>(file.blockRefs()) *
        (packed ? sizeof(std::uint32_t) : sizeof(MemRef));
    const std::size_t slotBytes =
        file.maxPayloadBytes() + decodedBytes;
    const std::size_t minBytes = 2 * slotBytes;
    if (budget < minBytes) {
        gaas_error(ErrorCode::TraceIO, "streaming ", path,
                   " needs at least ", (minBytes >> 20) + 1,
                   " MiB (2 slots of ", slotBytes,
                   " bytes) but the ceiling (", kStreamBudgetEnv,
                   " or the workload's per-stream share) allows "
                   "only ", budget, " bytes");
    }
    // The ring is as deep as the lookahead needs; the ceiling only
    // caps it (and a ceiling under two slots was rejected above).
    const std::size_t count = std::min<std::size_t>(
        kStreamLookaheadBlocks, slotBytes ? budget / slotBytes : 2);
    slots.resize(count);
    ringBytes = count * slotBytes;
    for (Slot &slot : slots) {
        slot.payload.reserve(file.maxPayloadBytes());
        if (packed)
            slot.packedRefs.reserve(file.blockRefs());
        else
            slot.refs.reserve(file.blockRefs());
    }

    reader = std::thread([this] { readerLoop(); });
}

StreamSource::~StreamSource()
{
    {
        std::lock_guard<std::mutex> lock(m);
        stopping = true;
    }
    cv.notify_all();
    if (reader.joinable())
        reader.join();
}

void
StreamSource::readerLoop()
{
    const std::uint64_t blockCount = file.blockCount();
    const std::size_t count = slots.size();
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
        cv.wait(lock, [&] {
            return stopping || failed ||
                   (produceBlock < blockCount &&
                    !slots[produceBlock % count].full);
        });
        if (stopping || failed)
            return;
        const std::uint64_t b = produceBlock;
        const std::uint64_t g = generation;
        Slot &slot = slots[b % count];
        lock.unlock();
        // The slot is free (full == false): the producer owns its
        // buffers until it republishes them under the lock below.
        try {
            file.readBlock(b, slot.payload);
            const std::uint32_t records = file.blockRecords(b);
            const v3::BlockContext ctx{&file.path(), b,
                                       file.payloadOffset(b)};
            if (packed) {
                slot.packedRefs.resize(records);
                v3::decodeBlockPacked(slot.payload.data(),
                                      slot.payload.size(), records,
                                      slot.packedRefs.data(), ctx);
            } else {
                slot.refs.resize(records);
                v3::decodeBlock(slot.payload.data(),
                                slot.payload.size(), records,
                                slot.refs.data(), ctx);
            }
            slot.records = records;
        } catch (const SimError &err) {
            lock.lock();
            failed = true;
            errorCode = err.code();
            errorText = err.what();
            cv.notify_all();
            continue;
        } catch (const FatalError &err) {
            lock.lock();
            failed = true;
            errorCode = ErrorCode::TraceIO;
            errorText = err.what();
            cv.notify_all();
            continue;
        }
        lock.lock();
        if (generation == g) {
            slot.block = b;
            slot.full = true;
            produceBlock = b + 1;
            ++decoded;
            cv.notify_all();
        }
        // On a generation change the decode raced a seek: drop it
        // and let the loop re-read the new production cursor.
    }
}

void
StreamSource::reseek(std::uint64_t block)
{
    {
        std::lock_guard<std::mutex> lock(m);
        ++generation;
        for (Slot &slot : slots)
            slot.full = false;
        produceBlock = block;
    }
    cv.notify_all();
    nextSeq = block;
    holding = false;
    held = nullptr;
}

StreamSource::Slot &
StreamSource::acquire(std::uint64_t block)
{
    const std::size_t count = slots.size();
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] {
        return failed || (slots[block % count].full &&
                          slots[block % count].block == block);
    });
    if (failed)
        throw SimError(errorCode, errorText);
    return slots[block % count];
}

void
StreamSource::release()
{
    if (!holding)
        return;
    {
        std::lock_guard<std::mutex> lock(m);
        held->full = false;
    }
    cv.notify_all();
    holding = false;
    held = nullptr;
    nextSeq = heldBlock + 1;
}

void
StreamSource::ensureHeld()
{
    const std::uint64_t b = pos / file.blockRefs();
    if (holding) {
        if (heldBlock == b)
            return;
        release();
    }
    if (b != nextSeq)
        reseek(b);
    held = &acquire(b);
    heldBlock = b;
    holding = true;
}

bool
StreamSource::next(MemRef &ref)
{
    return nextBatch(&ref, 1) == 1;
}

std::size_t
StreamSource::nextBatch(MemRef *out, std::size_t n)
{
    std::size_t produced = 0;
    const std::uint64_t total = file.recordCount();
    while (produced < n && pos < total) {
        ensureHeld();
        const auto offset = static_cast<std::size_t>(
            pos - file.firstRecordOf(heldBlock));
        const std::size_t take =
            std::min(n - produced, held->records - offset);
        if (packed) {
            const std::uint32_t *words =
                held->packedRefs.data() + offset;
            for (std::size_t i = 0; i < take; ++i)
                out[produced + i] = packed::unpack(words[i]);
        } else {
            std::copy_n(held->refs.begin() +
                            static_cast<std::ptrdiff_t>(offset),
                        take, out + produced);
        }
        pos += take;
        produced += take;
        if (offset + take == held->records)
            release();
    }
    return produced;
}

std::size_t
StreamSource::nextBatchPacked(std::uint32_t *out, std::size_t n)
{
    if (!packed)
        return kNoPacked;
    std::size_t produced = 0;
    const std::uint64_t total = file.recordCount();
    while (produced < n && pos < total) {
        ensureHeld();
        const auto offset = static_cast<std::size_t>(
            pos - file.firstRecordOf(heldBlock));
        const std::size_t take =
            std::min(n - produced, held->records - offset);
        std::copy_n(held->packedRefs.begin() +
                        static_cast<std::ptrdiff_t>(offset),
                    take, out + produced);
        pos += take;
        produced += take;
        if (offset + take == held->records)
            release();
    }
    return produced;
}

std::size_t
StreamSource::skip(std::size_t n)
{
    const std::uint64_t total = file.recordCount();
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, total - pos));
    pos += take;
    if (holding &&
        pos / file.blockRefs() != heldBlock)
        release();
    return take;
}

void
StreamSource::reset()
{
    pos = 0;
    if (holding && heldBlock != 0)
        release();
}

std::string
StreamSource::name() const
{
    return file.path() + "[stream]";
}

std::uint64_t
StreamSource::blocksDecoded() const
{
    std::lock_guard<std::mutex> lock(m);
    return decoded;
}

} // namespace gaas::trace
