#include "source.hh"

#include <algorithm>
#include <iterator>
#include <string>

#include "trace/packed.hh"
#include "util/error.hh"

namespace gaas::trace
{

std::size_t
TraceSource::nextBatchPacked(std::uint32_t *out, std::size_t n)
{
    MemRef run[256];
    std::size_t produced = 0;
    while (produced < n) {
        const std::size_t want = std::min(n - produced, std::size(run));
        const std::size_t got = nextBatch(run, want);
        ingestPacked(*this, kUnknownRecord, run, got, out + produced);
        produced += got;
        if (got < want)
            break;
    }
    return produced;
}

void
ingestPacked(const TraceSource &src, std::uint64_t first,
             const MemRef *refs, std::size_t n, std::uint32_t *out)
{
    Addr seen = 0;
    for (std::size_t i = 0; i < n; ++i) {
        seen |= refs[i].addr;
        out[i] = packed::pack(refs[i]);
    }
    if ((seen >> 31) == 0) [[likely]]
        return;
    const MemRef *bad = std::find_if(refs, refs + n, [](const MemRef &r) {
        return (r.addr >> 31) != 0;
    });
    std::string where = "trace source '" + src.name() + "'";
    if (first != kUnknownRecord)
        where += " record " +
                 std::to_string(first + static_cast<std::uint64_t>(bad - refs));
    gaas_error(ErrorCode::TraceIO, where, ": ", refKindName(bad->kind),
               " address 0x", std::hex, bad->addr, std::dec,
               " lies at or above 2^31, outside the user address "
               "space the simulator models");
}

} // namespace gaas::trace
