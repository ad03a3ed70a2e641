/**
 * @file
 * The packed 4-byte reference word: the one representation the
 * simulator ingests (TraceSource::nextBatchPacked), and the storage
 * format of the trace arena (trace/arena.hh) and of the v3 stream's
 * slots (trace/stream.hh).
 *
 * Layout, 4 bytes per record:
 *
 *   bits [31:3]  word index (byte address >> 2)
 *   bits [2:1]   RefKind
 *   bit  [0]     syscall (Inst) / partialWord (Store)
 *
 * The word index holds addresses below 2^31, the MIPS user space
 * the paper traces (layout::kStackTop = 0x7fff'0000 is the synthetic
 * models' ceiling).  pack() keeps what the simulator reads: it
 * word-aligns the address and drops a flag on a kind that gives it
 * no meaning (syscall is only meaningful on Inst records and
 * partialWord only on Store records), so the one flag bit is shared.
 * packable() says whether a record survives that losslessly, which
 * is what the v3 header's packable flag records.  Addresses at or
 * above 2^31 are the ingest rule's to reject (trace/source.hh).
 *
 * The field extractors exist so the hot simulate loop can decode a
 * packed word straight into registers instead of round-tripping
 * through a 16-byte MemRef in memory.
 */

#ifndef GAAS_TRACE_PACKED_HH
#define GAAS_TRACE_PACKED_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "trace/memref.hh"

namespace gaas::trace::packed
{

/** @return true if @p ref fits the packed layout losslessly. */
inline bool
packable(const MemRef &ref)
{
    return (ref.addr & 3) == 0 && (ref.addr >> 31) == 0 &&
           (!ref.syscall || ref.isInst()) &&
           (!ref.partialWord || ref.isStore());
}

/** Pack @p ref, whose address lies below 2^31: bits [1:0] and a
 *  flag its kind gives no meaning are dropped. */
inline std::uint32_t
pack(const MemRef &ref)
{
    const bool flag = (ref.syscall && ref.isInst()) ||
                      (ref.partialWord && ref.isStore());
    return static_cast<std::uint32_t>(ref.addr >> 2) << 3 |
           static_cast<std::uint32_t>(ref.kind) << 1 |
           static_cast<std::uint32_t>(flag);
}

/** @name Field extractors */
///@{
inline Addr
addrOf(std::uint32_t word)
{
    return static_cast<Addr>(word >> 3) << 2;
}

inline RefKind
kindOf(std::uint32_t word)
{
    return static_cast<RefKind>((word >> 1) & 3u);
}

inline bool flagOf(std::uint32_t word) { return (word & 1u) != 0; }

inline bool isInst(std::uint32_t word)
{
    return kindOf(word) == RefKind::Inst;
}

inline bool isLoad(std::uint32_t word)
{
    return kindOf(word) == RefKind::Load;
}
///@}

/** Unpack @p word into a full MemRef. */
inline MemRef
unpack(std::uint32_t word)
{
    MemRef ref;
    ref.addr = addrOf(word);
    ref.kind = kindOf(word);
    const bool flag = flagOf(word);
    ref.syscall = flag && ref.kind == RefKind::Inst;
    ref.partialWord = flag && ref.kind == RefKind::Store;
    return ref;
}

/** @name Copy out of packed storage, as words or as records */
///@{
inline void
copyOut(const std::uint32_t *words, std::size_t n, std::uint32_t *out)
{
    std::copy_n(words, n, out);
}

inline void
copyOut(const std::uint32_t *words, std::size_t n, MemRef *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = unpack(words[i]);
}
///@}

} // namespace gaas::trace::packed

#endif // GAAS_TRACE_PACKED_HH
