/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself.
 *
 * The paper quotes its simulator at 240,000 references/second on a
 * 15-20 MIPS MIPS RC3240 (Section 3); these benchmarks report this
 * implementation's throughput for the trace generator alone and for
 * full two-level simulations of the base and optimized
 * architectures.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/tag_store.hh"
#include "core/config.hh"
#include "core/simulator.hh"
#include "core/workload.hh"
#include "mmu/mmu.hh"
#include "synth/benchmark.hh"
#include "synth/suite.hh"
#include "trace/compose.hh"
#include "trace/packed.hh"
#include "trace/v3.hh"
#include "util/random.hh"

namespace
{

using namespace gaas;

/** Pseudo-random word-aligned addresses covering @p span bytes. */
std::vector<Addr>
addressStream(std::size_t count, Addr span)
{
    Rng rng(0x5eed);
    std::vector<Addr> addrs(count);
    for (auto &a : addrs)
        a = (rng.next64() % span) & ~Addr{3};
    return addrs;
}

/**
 * Raw tag-probe kernel: the inner operation of every simulated
 * reference.  @p span sized at 4x the cache so roughly 3/4 of the
 * probes miss and the branch pattern is adversarial.
 */
void
findKernel(benchmark::State &state, const cache::CacheConfig &cfg)
{
    cache::TagStore store(cfg, "bench");
    const auto addrs =
        addressStream(1 << 16, Addr{4} * cfg.sizeBytes());
    cache::Eviction ev;
    for (const Addr a : addrs)
        store.allocate(a, ev);

    std::size_t i = 0;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const auto idx = store.lookup(addrs[i]);
        hits += idx != cache::TagStore::npos;
        if (++i == addrs.size())
            i = 0;
    }
    benchmark::DoNotOptimize(hits);
    state.counters["probes/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

/** find-or-allocate kernel: adds the replacement path. */
void
allocateKernel(benchmark::State &state,
               const cache::CacheConfig &cfg)
{
    cache::TagStore store(cfg, "bench");
    const auto addrs =
        addressStream(1 << 16, Addr{4} * cfg.sizeBytes());

    std::size_t i = 0;
    cache::Eviction ev;
    for (auto _ : state) {
        const Addr a = addrs[i];
        const auto idx = store.lookup(a);
        if (idx == cache::TagStore::npos)
            store.allocateIdx(a, ev);
        else
            store.touchIdx(idx);
        if (++i == addrs.size())
            i = 0;
    }
    benchmark::DoNotOptimize(ev.lineAddr);
    state.counters["ops/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_TagStoreFindDm(benchmark::State &state)
{
    findKernel(state, cache::directMapped(4 * 1024));
}
BENCHMARK(BM_TagStoreFindDm);

void
BM_TagStoreFindAssoc4(benchmark::State &state)
{
    findKernel(state, cache::setAssoc(4 * 1024, 4, 4));
}
BENCHMARK(BM_TagStoreFindAssoc4);

void
BM_TagStoreAllocateDm(benchmark::State &state)
{
    allocateKernel(state, cache::directMapped(4 * 1024));
}
BENCHMARK(BM_TagStoreAllocateDm);

void
BM_TagStoreAllocateAssoc4(benchmark::State &state)
{
    allocateKernel(state, cache::setAssoc(4 * 1024, 4, 4));
}
BENCHMARK(BM_TagStoreAllocateAssoc4);

void
BM_MmuTranslate(benchmark::State &state)
{
    mmu::Mmu unit{mmu::MmuConfig{}};
    // 8 processes x 1MB working sets, like the standard workload.
    const auto addrs = addressStream(1 << 16, Addr{1} << 20);
    std::size_t i = 0;
    Addr sum = 0;
    for (auto _ : state) {
        const auto pid = static_cast<Pid>(i & 7);
        sum += unit.translateData(pid, addrs[i]).paddr;
        if (++i == addrs.size())
            i = 0;
    }
    benchmark::DoNotOptimize(sum);
    state.counters["xlates/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MmuTranslate);

/**
 * A TraceSource wrapper that logs, in pull order, every record the
 * Simulator takes from one process's source, as (pid, packed word).
 * The Simulator refills per process in small batches and switches
 * processes once per time slice, so the log is its reference
 * schedule to within one batch per switch.
 */
class RecordingSource : public trace::TraceSource
{
  public:
    RecordingSource(std::unique_ptr<trace::TraceSource> inner_, Pid pid_,
                    std::vector<std::pair<Pid, std::uint32_t>> &log_)
        : inner(std::move(inner_)), pid(pid_), log(log_)
    {}

    bool
    next(trace::MemRef &ref) override
    {
        return nextBatch(&ref, 1) == 1;
    }

    std::size_t
    nextBatch(trace::MemRef *out, std::size_t n) override
    {
        const std::size_t got = inner->nextBatch(out, n);
        for (std::size_t i = 0; i < got; ++i)
            log.emplace_back(pid, trace::packed::pack(out[i]));
        return got;
    }

    std::size_t
    nextBatchPacked(std::uint32_t *out, std::size_t n) override
    {
        const std::size_t got = inner->nextBatchPacked(out, n);
        if (got != kNoPacked) {
            for (std::size_t i = 0; i < got; ++i)
                log.emplace_back(pid, out[i]);
        }
        return got;
    }

    void reset() override { inner->reset(); }
    std::string name() const override { return inner->name(); }

  private:
    std::unique_ptr<trace::TraceSource> inner;
    Pid pid;
    std::vector<std::pair<Pid, std::uint32_t>> &log;
};

/**
 * The reference schedule of the ladder's 256KW unified direct-mapped
 * point (the traced `ladder` point of the benchmark), recorded from a
 * short Simulator run over the level-8 workload.
 */
const std::vector<std::pair<Pid, std::uint32_t>> &
ladderSchedule()
{
    static const auto schedule = [] {
        std::vector<std::pair<Pid, std::uint32_t>> log;
        core::SystemConfig cfg = core::afterWritePolicy();
        cfg.l2.cache.sizeWords = 256 * 1024;
        cfg.l2.cache.assoc = 1;
        cfg.l2.accessTime = 6;
        core::Workload wl;
        const auto specs = synth::workloadSpecs(8);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            wl.add(std::make_unique<RecordingSource>(
                       std::make_unique<trace::LoopSource>(
                           synth::makeBenchmark(specs[i])),
                       static_cast<Pid>(i), log),
                   specs[i].baseCpi, specs[i].name);
        }
        core::Simulator sim(cfg, std::move(wl));
        sim.run(2'000'000);
        return log;
    }();
    return schedule;
}

/**
 * Translation as the step loop meets it: the recorded schedule
 * replayed one instruction per iteration -- the instruction record,
 * then the next record if it is a data record -- with the I/D kind
 * branch of Simulator::stepInstruction.  With @p Translate false
 * the same dispatch runs with no translation (the control), so the
 * difference is the translation's own cost.  One warming pass fills
 * the TLBs first, so nearly every translation hits.
 */
template <bool Translate>
void
mmuDispatchKernel(benchmark::State &state)
{
    const auto &schedule = ladderSchedule();
    mmu::Mmu unit{core::afterWritePolicy().mmu};
    for (const auto &[pid, word] : schedule) {
        const Addr vaddr = trace::packed::addrOf(word);
        benchmark::DoNotOptimize(
            trace::packed::isInst(word) ? unit.translateInst(pid, vaddr)
                                        : unit.translateData(pid, vaddr));
    }
    const auto fetch = [&](Pid pid, Addr vaddr) {
        if constexpr (Translate)
            return unit.translateInst(pid, vaddr).paddr;
        return vaddr;
    };
    const auto data = [&](Pid pid, Addr vaddr) {
        if constexpr (Translate)
            return unit.translateData(pid, vaddr).paddr;
        return vaddr;
    };

    // A data record is logged right after its instruction record
    // (the Simulator refills at once to look for it), so every
    // iteration starts on an instruction record.
    const std::size_t end = schedule.size() - 1;
    std::size_t at = 0;
    Count refs = 0;
    for (auto _ : state) {
        const auto [pid, word] = schedule[at];
        benchmark::DoNotOptimize(fetch(pid, trace::packed::addrOf(word)));
        ++at;
        ++refs;
        const auto [dpid, next] = schedule[at];
        if (!trace::packed::isInst(next)) {
            benchmark::DoNotOptimize(
                data(dpid, trace::packed::addrOf(next)));
            ++at;
            ++refs;
        }
        if (at >= end)
            at = 0;
    }
    state.counters["s/ref"] = benchmark::Counter(
        static_cast<double>(refs),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    if constexpr (Translate) {
        const mmu::TlbStats &i = unit.itlbStats();
        const mmu::TlbStats &d = unit.dtlbStats();
        state.counters["tlb_miss_frac"] =
            static_cast<double>(i.misses + d.misses) /
            static_cast<double>(i.accesses + d.accesses);
    }
}

void
BM_MmuTranslateHits(benchmark::State &state)
{
    mmuDispatchKernel<true>(state);
}
BENCHMARK(BM_MmuTranslateHits);

void
BM_MmuDispatchControl(benchmark::State &state)
{
    mmuDispatchKernel<false>(state);
}
BENCHMARK(BM_MmuDispatchControl);

/**
 * The dispatch control's floor: the same recorded schedule walked
 * one record per iteration with no I/D kind branch, so the gap to
 * BM_MmuDispatchControl is the branch itself.  Data records follow
 * about a quarter of the instructions in no pattern the host can
 * learn, so the branch mispredicts often; any exact step loop still
 * makes that per-instruction decision.
 */
void
BM_MmuLinearControl(benchmark::State &state)
{
    const auto &schedule = ladderSchedule();
    const std::size_t end = schedule.size();
    std::size_t at = 0;
    Count refs = 0;
    for (auto _ : state) {
        const auto [pid, word] = schedule[at];
        benchmark::DoNotOptimize(pid);
        benchmark::DoNotOptimize(trace::packed::addrOf(word));
        ++refs;
        if (++at == end)
            at = 0;
    }
    state.counters["s/ref"] = benchmark::Counter(
        static_cast<double>(refs),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    const auto data = std::count_if(
        schedule.begin(), schedule.end(), [](const auto &rec) {
            return !trace::packed::isInst(rec.second);
        });
    state.counters["data_frac"] =
        static_cast<double>(data) / static_cast<double>(end);
}
BENCHMARK(BM_MmuLinearControl);

/**
 * The exact source composition Workload::standard hands the
 * Simulator: a looped synthetic benchmark consumed through the
 * TraceSource interface.  Benchmarking a bare SyntheticBenchmark
 * would let the compiler devirtualize and understate the real
 * per-reference cost the batch interface exists to amortise.
 */
std::unique_ptr<trace::TraceSource>
workloadSource()
{
    auto spec = synth::defaultSuite()[0];
    spec.simInstructions = 1ull << 40; // never exhausts mid-run
    return std::make_unique<trace::LoopSource>(
        synth::makeBenchmark(spec));
}

void
BM_TraceGeneration(benchmark::State &state)
{
    const std::unique_ptr<trace::TraceSource> src = workloadSource();
    trace::MemRef ref;
    for (auto _ : state) {
        src->next(ref);
        benchmark::DoNotOptimize(ref.addr);
    }
    // One next() per iteration: iterations() is the reference count.
    state.counters["refs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceGeneration);

void
BM_TraceGenerationBatched(benchmark::State &state)
{
    const std::unique_ptr<trace::TraceSource> src = workloadSource();
    std::array<trace::MemRef, 64> buffer; // the Simulator's kRefBatch
    for (auto _ : state) {
        const std::size_t got =
            src->nextBatch(buffer.data(), buffer.size());
        benchmark::DoNotOptimize(buffer.data());
        benchmark::DoNotOptimize(got);
    }
    state.counters["refs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * buffer.size(),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceGenerationBatched);

/**
 * One block of synthetic-workload records, the v3 codec's unit of
 * work.  Generated once per benchmark: the kernels below measure
 * encode/decode cost alone, not trace generation.
 */
std::vector<trace::MemRef>
v3BenchBlock(std::size_t records)
{
    auto spec = synth::defaultSuite()[0];
    spec.simInstructions = 1ull << 40;
    auto src = synth::makeBenchmark(spec);
    std::vector<trace::MemRef> refs(records);
    src->nextBatch(refs.data(), records);
    return refs;
}

void
BM_V3EncodeBlock(benchmark::State &state)
{
    const auto records = static_cast<std::size_t>(state.range(0));
    const auto refs = v3BenchBlock(records);
    std::vector<unsigned char> payload(records *
                                       trace::kV3MaxRecordBytes);
    std::size_t bytes = 0;
    for (auto _ : state) {
        bytes = trace::v3::encodeBlock(refs.data(), records,
                                       payload.data());
        benchmark::DoNotOptimize(payload.data());
    }
    benchmark::DoNotOptimize(bytes);
    state.counters["refs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(records),
        benchmark::Counter::kIsRate);
    state.counters["B/record"] =
        static_cast<double>(bytes) / static_cast<double>(records);
}
BENCHMARK(BM_V3EncodeBlock)->Arg(1 << 16);

void
BM_V3DecodeBlock(benchmark::State &state)
{
    const auto records = static_cast<std::size_t>(state.range(0));
    const auto refs = v3BenchBlock(records);
    std::vector<unsigned char> payload(records *
                                       trace::kV3MaxRecordBytes);
    const std::size_t bytes = trace::v3::encodeBlock(
        refs.data(), records, payload.data());
    std::vector<trace::MemRef> out(records);
    const trace::v3::BlockContext ctx{nullptr, 0, 0};
    for (auto _ : state) {
        trace::v3::decodeBlock(payload.data(), bytes, records,
                               out.data(), ctx);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["refs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(records),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_V3DecodeBlock)->Arg(1 << 16);

void
BM_V3DecodeBlockPacked(benchmark::State &state)
{
    // The streaming hot path: varint straight to packed u32 words,
    // no 16-byte MemRef round trip.
    const auto records = static_cast<std::size_t>(state.range(0));
    const auto refs = v3BenchBlock(records);
    std::vector<unsigned char> payload(records *
                                       trace::kV3MaxRecordBytes);
    const std::size_t bytes = trace::v3::encodeBlock(
        refs.data(), records, payload.data());
    std::vector<std::uint32_t> out(records);
    const trace::v3::BlockContext ctx{nullptr, 0, 0};
    for (auto _ : state) {
        trace::v3::decodeBlockPacked(payload.data(), bytes,
                                     records, out.data(), ctx);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["refs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(records),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_V3DecodeBlockPacked)->Arg(1 << 16);

void
simulateConfig(benchmark::State &state,
               const core::SystemConfig &cfg)
{
    const auto instructions =
        static_cast<Count>(state.range(0));
    Count refs_per_run = 0;
    for (auto _ : state) {
        core::Simulator sim(cfg, core::Workload::standard(8));
        const auto res = sim.run(instructions);
        refs_per_run = res.references();
        benchmark::DoNotOptimize(res.cycles);
    }
    // Reference count per run is deterministic, so total refs is
    // iterations() * refs_per_run (the old hand-summed counter was
    // reset between benchmark's estimation passes and undercounted).
    const double refs = static_cast<double>(state.iterations()) *
                        static_cast<double>(refs_per_run);
    state.counters["refs/s"] =
        benchmark::Counter(refs, benchmark::Counter::kIsRate);
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}

void
BM_SimulateBaseline(benchmark::State &state)
{
    simulateConfig(state, core::baseline());
}
BENCHMARK(BM_SimulateBaseline)->Arg(200000)->Unit(
    benchmark::kMillisecond);

void
BM_SimulateOptimized(benchmark::State &state)
{
    simulateConfig(state, core::optimized());
}
BENCHMARK(BM_SimulateOptimized)->Arg(200000)->Unit(
    benchmark::kMillisecond);

void
BM_SimulateWriteOnly(benchmark::State &state)
{
    simulateConfig(state, core::afterWritePolicy());
}
BENCHMARK(BM_SimulateWriteOnly)->Arg(200000)->Unit(
    benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
