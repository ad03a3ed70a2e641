#include "benchmark.hh"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "trace/packed.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::synth
{

const char *
arithClassTag(ArithClass c)
{
    switch (c) {
      case ArithClass::Integer:
        return "(I)";
      case ArithClass::SingleFloat:
        return "(S)";
      case ArithClass::DoubleFloat:
        return "(D)";
    }
    return "(?)";
}

SyntheticBenchmark::SyntheticBenchmark(BenchmarkSpec spec_)
    : benchSpec(std::move(spec_)),
      code(benchSpec.code, benchSpec.seed),
      data(benchSpec.data, benchSpec.seed),
      mixRng(benchSpec.seed ^ 0x5eed)
{
    if (benchSpec.loadFrac + benchSpec.storeFrac > 1.0) {
        gaas_fatal("benchmark ", benchSpec.name,
                   ": loadFrac + storeFrac exceeds 1");
    }
    if (benchSpec.simInstructions == 0)
        gaas_fatal("benchmark ", benchSpec.name,
                   ": simInstructions must be nonzero");

    syscallProb = benchSpec.syscallsPerMInstr * 1e-6;
    burstMean = std::max(benchSpec.data.storeBurstMean, 1.0);
    storeTrigger = benchSpec.storeFrac / burstMean;
    burstLen = GeometricSampler(burstMean);
    syscallThresh = bernoulliThreshold(syscallProb);
    loadThresh = bernoulliThreshold(benchSpec.loadFrac);
    dataThresh = bernoulliThreshold(benchSpec.loadFrac + storeTrigger);
    packable = code.packable() && data.packable();
}

bool
SyntheticBenchmark::next(trace::MemRef &ref)
{
    // Degenerate single-reference batch.  One implementation defines
    // the stream, so the per-call and batched paths cannot drift; the
    // price is that every next() call re-pays the loop preamble the
    // batch path amortises, which is exactly why the Simulator
    // consumes this source through nextBatch.
    return nextBatch(&ref, 1) == 1;
}

namespace
{

/** @name Output sinks of SyntheticBenchmark::generate */
///@{
inline void
put(trace::MemRef *out, const trace::MemRef &ref)
{
    *out = ref;
}

inline void
put(std::uint32_t *out, const trace::MemRef &ref)
{
    *out = trace::packed::pack(ref);
}
///@}

} // namespace

std::size_t
SyntheticBenchmark::nextBatch(trace::MemRef *out, std::size_t n)
{
    return generate(out, n);
}

std::size_t
SyntheticBenchmark::nextBatchPacked(std::uint32_t *out, std::size_t n)
{
    if (!packable)
        return kNoPacked;
    const Count first = instructionsEmitted;
    Addr addrs = 0;
    const std::size_t produced = generate(out, n, &addrs);
    // Store bursts run on past the regions packable checked, so
    // the batch's addresses are checked once, OR-ed together.
    if ((addrs & (kWordBytes - 1)) != 0 || (addrs >> 31) != 0) {
        gaas_error(ErrorCode::Internal, "benchmark ", benchSpec.name,
                   ": a reference of instructions ", first, "..",
                   instructionsEmitted,
                   " does not fit the packed 4-byte layout (only "
                   "word-aligned sub-2^31 streams are packable)");
    }
    return produced;
}

template <typename Out>
std::size_t
SyntheticBenchmark::generate(Out *out, std::size_t n, Addr *addrs)
{
    // The generator hot loop, shared by the MemRef and packed
    // outputs.  Per-instruction invariants (the burst-trigger
    // division, the syscall probability) are hoisted into members at
    // construction, the bernoulli tests use their exact
    // integer-threshold forms (see bernoulliThreshold), and data
    // references are written straight into the output buffer --
    // only a reference that would overflow the batch goes through
    // the pendingData hand-off.
    std::size_t produced = 0;
    if (n == 0)
        return 0;
    Addr seen = 0;
    if (havePending) {
        seen |= pendingData.addr;
        put(out + produced++, pendingData);
        havePending = false;
    }

    // Mutable generator state lives in locals for the loop: the
    // opaque model calls (code.nextPc's slow path, data.nextLoad)
    // could alias *this, so member accesses would otherwise be
    // reloaded around every one of them.
    const Count budget = benchSpec.simInstructions;
    Count emitted = instructionsEmitted;
    Count burstLeft = storeBurstLeft;
    Addr burstAddr = storeBurstAddr;
    Rng rng = mixRng;

    while (produced < n && emitted < budget) {
        ++emitted;
        const Addr pc = code.nextPc();
        seen |= pc;
        put(out + produced++,
            trace::instRef(pc, (rng.next64() >> 11) < syscallThresh));

        // At most one data reference per instruction (load/store
        // architecture); stores come in word-sequential bursts whose
        // trigger probability is scaled so the overall fraction
        // stays at storeFrac.
        trace::MemRef data_ref;
        if (burstLeft > 0) {
            --burstLeft;
            burstAddr += kWordBytes;
            data_ref = trace::storeRef(burstAddr, false);
        } else {
            const std::uint64_t r = rng.next64() >> 11;
            if (r < loadThresh) {
                data_ref = trace::loadRef(data.nextLoad());
            } else if (r < dataThresh) {
                const Addr addr = data.nextStore();
                data_ref =
                    trace::storeRef(addr, data.nextStoreIsPartial());
                burstAddr = addr;
                burstLeft = burstLen.draw(rng) - 1;
            } else {
                continue; // no data reference this instruction
            }
        }
        seen |= data_ref.addr;
        if (produced < n) {
            put(out + produced++, data_ref);
        } else {
            // Batch full mid-instruction: hand the data reference
            // over to the next call.
            pendingData = data_ref;
            havePending = true;
        }
    }

    instructionsEmitted = emitted;
    storeBurstLeft = burstLeft;
    storeBurstAddr = burstAddr;
    mixRng = rng;
    if (addrs)
        *addrs = seen;
    return produced;
}

void
SyntheticBenchmark::reset()
{
    code.reset();
    data.reset();
    mixRng = Rng(benchSpec.seed ^ 0x5eed);
    instructionsEmitted = 0;
    havePending = false;
    storeBurstLeft = 0;
    storeBurstAddr = 0;
}

std::string
SyntheticBenchmark::name() const
{
    return benchSpec.name;
}

std::unique_ptr<trace::TraceSource>
makeBenchmark(const BenchmarkSpec &spec)
{
    return std::make_unique<SyntheticBenchmark>(spec);
}

namespace
{

/** FNV-1a over every spec field (same idiom as core/journal). */
class SpecHash
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 0x0000'0100'0000'01b3ull;
        }
    }

    void str(const std::string &s)
    {
        const std::uint64_t len = s.size();
        bytes(&len, sizeof(len));
        bytes(s.data(), s.size());
    }

    template <typename T> void pod(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof(v));
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf2'9ce4'8422'2325ull;
};

} // namespace

std::string
specDigest(const BenchmarkSpec &spec)
{
    SpecHash h;
    h.str(spec.name);
    h.str(spec.description);
    h.pod(static_cast<std::uint8_t>(spec.lang));
    h.pod(static_cast<std::uint8_t>(spec.arith));
    h.pod(spec.paperInstructionsM);
    h.pod(spec.simInstructions);
    h.pod(spec.loadFrac);
    h.pod(spec.storeFrac);
    h.pod(spec.syscallsPerMInstr);
    h.pod(spec.baseCpi);

    const CodeParams &c = spec.code;
    h.pod(c.codeWords);
    h.pod(c.procCount);
    h.pod(c.meanRunLen);
    h.pod(c.maxLoopDepth);
    h.pod(c.meanLoopIters);
    h.pod(c.loopProb);
    h.pod(c.callProb);
    h.pod(c.callZipfAlpha);
    h.pod(c.jumpProb);
    h.pod(c.jumpZipfAlpha);

    const DataParams &d = spec.data;
    h.pod(d.stackWords);
    h.pod(d.globalWords);
    h.pod(d.heapWords);
    h.pod(d.arrayWords);
    h.pod(d.arrayCount);
    h.pod(d.loadStackFrac);
    h.pod(d.loadGlobalFrac);
    h.pod(d.loadArrayFrac);
    h.pod(d.storeStackFrac);
    h.pod(d.storeGlobalFrac);
    h.pod(d.storeArrayFrac);
    h.pod(d.globalAlpha);
    h.pod(d.heapAlpha);
    h.pod(d.arrayStrideWords);
    h.pod(d.arraySegWords);
    h.pod(d.arraySegRepeats);
    h.pod(d.heapLineWords);
    h.pod(d.partialWordStoreFrac);
    h.pod(d.storeBurstMean);
    h.pod(d.sameLineBurstProb);

    h.pod(spec.seed);

    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h.value()));
    return buf;
}

} // namespace gaas::synth
