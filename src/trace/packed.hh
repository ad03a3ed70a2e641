/**
 * @file
 * The packed 4-byte reference word: the storage format of the trace
 * arena (trace/arena.hh) and the wire format of the packed replay
 * fast path (TraceSource::nextBatchPacked).
 *
 * Layout, 4 bytes per record:
 *
 *   bits [31:3]  word index (byte address >> 2)
 *   bits [2:1]   RefKind
 *   bit  [0]     syscall (Inst) / partialWord (Store)
 *
 * Every address the synthetic models emit is word aligned and below
 * 2^31 (layout::kStackTop = 0x7fff'0000 is the ceiling), so the
 * word index fits the 29 bits exactly.  The flag bit is shared:
 * syscall is only meaningful on Inst records and partialWord only on
 * Store records, which packable() checks.
 *
 * The field extractors exist so the hot simulate loop can decode a
 * packed word straight into registers instead of round-tripping
 * through a 16-byte MemRef in memory.
 */

#ifndef GAAS_TRACE_PACKED_HH
#define GAAS_TRACE_PACKED_HH

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

/** Pack @p ref (the caller has checked packable()). */
inline std::uint32_t
pack(const MemRef &ref)
{
    const bool flag = ref.syscall || ref.partialWord;
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

} // namespace gaas::trace::packed

#endif // GAAS_TRACE_PACKED_HH
