/**
 * @file
 * The TraceSource interface: a resettable stream of MemRef records.
 *
 * The paper's "file descriptor multiplexor" mapped each benchmark's
 * pixie output to one input descriptor of the cache simulator; here
 * each benchmark (synthetic model or trace file) is one TraceSource
 * and the workload layer multiplexes among them.
 *
 * The simulator ingests one representation: packed 4-byte words
 * (trace/packed.hh), pulled through nextBatchPacked().  Every source
 * yields them, by the one ingest rule of ingestPacked(): addresses
 * are word aligned, flags their kind gives no meaning are dropped,
 * and an address at or above 2^31 -- kernel space on the paper's
 * MIPS machine -- is a SimError(TraceIO).  None of the dropped
 * detail reaches a simulation result: tags, set indexes, subblock
 * valid bits and write-buffer matches all use address bits 2 and
 * up, and the simulator reads syscall only on Inst records and
 * partialWord only on Store records.
 */

#ifndef GAAS_TRACE_SOURCE_HH
#define GAAS_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/memref.hh"

namespace gaas::trace
{

/** An abstract, resettable stream of memory references. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     *
     * @param ref filled in on success
     * @retval true a record was produced
     * @retval false the trace is exhausted (ref is unchanged)
     */
    virtual bool next(MemRef &ref) = 0;

    /**
     * Produce up to @p n references into @p out.
     *
     * Exists so hot consumers (the Simulator's per-process refill
     * buffer) pay one virtual call per batch instead of one per
     * reference.  The records produced must be exactly the records n
     * calls to next() would have produced; overriders (the synthetic
     * generator, the compose adapters) only change the dispatch cost,
     * never the stream.
     *
     * @return the number of records produced; less than @p n only
     *         when the trace is exhausted
     */
    virtual std::size_t
    nextBatch(MemRef *out, std::size_t n)
    {
        std::size_t produced = 0;
        while (produced < n && next(out[produced]))
            ++produced;
        return produced;
    }

    /**
     * What nextBatchPacked() once returned for a source without a
     * packed path.  No in-tree source returns it any more; it stays
     * declared because the benchmark harness (perfbench/src/
     * layers.cc) still names it.
     */
    static constexpr std::size_t kNoPacked = ~std::size_t{0};

    /**
     * The simulator's ingest path: produce up to @p n records as
     * packed 4-byte words (trace/packed.hh), normalised by
     * ingestPacked() -- the records nextBatch() would produce,
     * word aligned and stripped of meaningless flags.  The default
     * pulls nextBatch() in runs and packs them; sources that hold
     * packed words already (the arena view, the v3 stream) or can
     * emit them directly (the synthetic generator) override it.
     *
     * @return the number of words produced; less than @p n only
     *         when the trace is exhausted
     */
    virtual std::size_t nextBatchPacked(std::uint32_t *out,
                                        std::size_t n);

    /**
     * Discard the next @p n records, as if next() were called @p n
     * times and the results thrown away.  Sources with random-access
     * storage (the arena view, the compose adapters over it)
     * override this to seek instead of generate, which is what makes
     * sampled simulation's fast-forward between measurement
     * intervals cheap.
     *
     * @return the number of records skipped; less than @p n only
     *         when the trace is exhausted
     */
    virtual std::size_t
    skip(std::size_t n)
    {
        MemRef scratch[64];
        std::size_t done = 0;
        while (done < n) {
            const std::size_t want = std::min(n - done, std::size_t{64});
            const std::size_t got = nextBatch(scratch, want);
            done += got;
            if (got < want)
                break;
        }
        return done;
    }

    /** Restart the stream from its beginning (deterministically). */
    virtual void reset() = 0;

    /** A short name for diagnostics and reports. */
    virtual std::string name() const = 0;
};

/** ingestPacked()'s @p first when the caller does not know where
 *  in its stream the run starts. */
inline constexpr std::uint64_t kUnknownRecord = ~std::uint64_t{0};

/**
 * The ingest rule: pack @p refs[0, n) into @p out with
 * packed::pack, which word-aligns each address and drops the flags
 * its kind gives no meaning.  An address at or above 2^31 does not
 * fit the packed word and lies outside the MIPS user space the
 * paper traces: it is a SimError(TraceIO) naming @p src and the
 * record's index in its stream, @p first + i (unnamed when @p first
 * is kUnknownRecord).  One verdict for the whole run, so the loop
 * carries no per-record error branch; the scan for the culprit runs
 * only on failure.
 */
void ingestPacked(const TraceSource &src, std::uint64_t first,
                  const MemRef *refs, std::size_t n,
                  std::uint32_t *out);

/**
 * An in-memory trace, mainly for unit tests and for capturing short
 * generator outputs for inspection.
 */
class VectorSource : public TraceSource
{
  public:
    VectorSource(std::string name, std::vector<MemRef> refs)
        : label(std::move(name)), records(std::move(refs))
    {}

    bool
    next(MemRef &ref) override
    {
        if (pos >= records.size())
            return false;
        ref = records[pos++];
        return true;
    }

    std::size_t
    nextBatch(MemRef *out, std::size_t n) override
    {
        const std::size_t take = std::min(n, records.size() - pos);
        std::copy_n(records.begin() + static_cast<std::ptrdiff_t>(pos),
                    take, out);
        pos += take;
        return take;
    }

    std::size_t
    nextBatchPacked(std::uint32_t *out, std::size_t n) override
    {
        const std::size_t take = std::min(n, records.size() - pos);
        ingestPacked(*this, pos, records.data() + pos, take, out);
        pos += take;
        return take;
    }

    std::size_t
    skip(std::size_t n) override
    {
        const std::size_t take = std::min(n, records.size() - pos);
        pos += take;
        return take;
    }

    void reset() override { pos = 0; }

    std::string name() const override { return label; }

    const std::vector<MemRef> &refs() const { return records; }

  private:
    std::string label;
    std::vector<MemRef> records;
    std::size_t pos = 0;
};

/** Drain up to @p limit records from @p src into a vector. */
std::vector<MemRef> collect(TraceSource &src, std::size_t limit);

} // namespace gaas::trace

#endif // GAAS_TRACE_SOURCE_HH
