/**
 * @file
 * StreamSource: bounded-memory streaming replay of a v3 trace file.
 *
 * A dedicated reader thread prefetches and decodes the *next* blocks
 * of the file into a small ring of slots while the simulator's hot
 * loop consumes the current one, so multi-billion-reference traces
 * -- the paper's 2.5 G-ref pixie regime -- replay without ever
 * materializing in RAM.  Decoded blocks are handed over through the
 * packed-batch interface (nextBatchPacked) when the file's records
 * all fit the packed u32 layout, which is the same fast path the
 * in-memory arena uses; otherwise the MemRef batch path serves.
 *
 * Memory model: the slot ring is sized by lookahead, like a pipe
 * buffer that keeps the producer just ahead of the consumer, not by
 * the memory on offer.  It holds kStreamLookaheadBlocks slots (one
 * compressed payload + one decoded block each): the block the
 * simulator is draining, the next one, and slack for a reader that
 * loses the host for a moment.  The hard byte ceiling --
 * StreamOptions::memoryBudgetBytes, defaulting to the
 * GAAS_TRACE_STREAM_MB environment knob (64 MiB when unset) -- only
 * caps that depth; a ceiling too small for even two slots is a
 * TraceIO error naming the minimum, never a silent overrun.  Peak
 * RSS is therefore independent of trace length, and of the ceiling
 * once the ceiling holds the lookahead.
 *
 * Ordering/consistency: production runs strictly ahead of
 * consumption in block order; skip()/reset() move the cursor in
 * O(1) (seek table) and re-aim the producer, discarding any
 * prefetched blocks the jump invalidated.  All slot handoffs are
 * mutex+condvar protected (TSan-clean); the consumer copies out of
 * a slot only while it is marked full, and the producer writes one
 * only while it is free.
 *
 * The stream is bit-identical to TraceV3Reader over the same file,
 * and -- for a file written from a synth generator -- to the arena
 * replay of that generator, which the stream-vs-arena golden tests
 * pin.
 */

#ifndef GAAS_TRACE_STREAM_HH
#define GAAS_TRACE_STREAM_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/v3.hh"
#include "util/error.hh"

namespace gaas::trace
{

/** Environment knob: streaming memory ceiling in MiB. */
inline constexpr const char *kStreamBudgetEnv =
    "GAAS_TRACE_STREAM_MB";

/** Default streaming memory ceiling when the env is unset (MiB). */
inline constexpr std::uint64_t kStreamBudgetDefaultMb = 64;

/**
 * Slots a StreamSource's ring holds when the ceiling allows: a
 * double buffer (the block being drained + the one being decoded)
 * plus one block of slack for reader-thread scheduling jitter.  A
 * reader decodes a block faster than the simulate loop consumes it,
 * so more depth buys no throughput, only memory (DESIGN.md §12 has
 * the measurements).  A design constant, not a knob.
 */
inline constexpr std::size_t kStreamLookaheadBlocks = 3;

struct StreamOptions
{
    /**
     * Hard ceiling on the stream's buffer bytes; 0 means
     * GAAS_TRACE_STREAM_MB MiB (default 64).  Workloads with
     * several streams split one ceiling across them
     * (Workload::fromTraceFiles).
     */
    std::size_t memoryBudgetBytes = 0;
};

class StreamSource : public TraceSource
{
  public:
    explicit StreamSource(const std::string &path,
                          StreamOptions options = {});

    StreamSource(const StreamSource &) = delete;
    StreamSource &operator=(const StreamSource &) = delete;

    ~StreamSource() override;

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *out, std::size_t n) override;
    std::size_t nextBatchPacked(std::uint32_t *out,
                                std::size_t n) override;
    std::size_t skip(std::size_t n) override;
    void reset() override;
    std::string name() const override;

    std::uint64_t recordCount() const { return file.recordCount(); }

    /** True if replay runs through the packed u32 fast path. */
    bool packedCapable() const { return packed; }

    /** Bytes the slot ring holds: slotCount() x one slot's bytes
     *  (<= the ceiling). */
    std::size_t bufferBytes() const { return ringBytes; }

    /** Slots in the ring: kStreamLookaheadBlocks, or fewer (never
     *  under 2) when the ceiling cannot hold that many. */
    std::size_t slotCount() const { return slots.size(); }

    /** Blocks the reader thread decoded so far (telemetry). */
    std::uint64_t blocksDecoded() const;

  private:
    struct Slot
    {
        std::vector<unsigned char> payload;
        std::vector<std::uint32_t> packedRefs;
        std::vector<MemRef> refs;
        std::uint64_t block = 0;
        std::uint32_t records = 0;
        bool full = false;
    };

    void readerLoop();

    /** Re-aim the producer at @p block, discarding prefetches. */
    void reseek(std::uint64_t block);

    /** Block until slot for @p block is full (or the reader died). */
    Slot &acquire(std::uint64_t block);

    /** Hand the held slot back to the producer. */
    void release();

    /** Make the slot holding pos's block held; false at EOF. */
    void ensureHeld();

    V3File file;
    bool packed = false;
    std::size_t ringBytes = 0;

    // Consumer-thread-only state.
    std::uint64_t pos = 0;       //!< global record cursor
    bool holding = false;        //!< a slot is held for heldBlock
    std::uint64_t heldBlock = 0;
    std::uint64_t nextSeq = 0;   //!< next block in production order
    Slot *held = nullptr;

    // Shared state, guarded by m.
    mutable std::mutex m;
    std::condition_variable cv;
    std::vector<Slot> slots;
    std::uint64_t produceBlock = 0;
    std::uint64_t generation = 0;
    std::uint64_t decoded = 0;
    bool stopping = false;
    bool failed = false;
    ErrorCode errorCode = ErrorCode::TraceIO;
    std::string errorText;

    std::thread reader;
};

} // namespace gaas::trace

#endif // GAAS_TRACE_STREAM_HH
