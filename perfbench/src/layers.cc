#include "layers.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "cache/tag_store.hh"
#include "core/cache_system.hh"
#include "core/simulator.hh"
#include "mmu/mmu.hh"
#include "trace/arena.hh"
#include "trace/packed.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/env.hh"

namespace perfbench
{

using namespace gaas;
using Clock = std::chrono::steady_clock;

namespace
{

const Clock::time_point kEpoch = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
           : n % 2 ? v[n / 2]
                   : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Timing decorator; see layers.hh. */
class TimedSource : public trace::TraceSource
{
  public:
    TimedSource(std::unique_ptr<trace::TraceSource> inner,
                PointTrace &trace, std::size_t pid)
        : inner(std::move(inner)), trace(trace), pid(pid)
    {}

    bool
    next(trace::MemRef &ref) override
    {
        return nextBatch(&ref, 1) == 1;
    }

    std::size_t
    nextBatch(trace::MemRef *out, std::size_t n) override
    {
        const Clock::time_point t0 = Clock::now();
        const std::size_t got = inner->nextBatch(out, n);
        note(t0, got, true);
        return got;
    }

    std::size_t
    nextBatchPacked(std::uint32_t *out, std::size_t n) override
    {
        const Clock::time_point t0 = Clock::now();
        const std::size_t got = inner->nextBatchPacked(out, n);
        if (got != kNoPacked)
            note(t0, got, true);
        return got;
    }

    std::size_t
    skip(std::size_t n) override
    {
        const Clock::time_point t0 = Clock::now();
        const std::size_t got = inner->skip(n);
        note(t0, got, false);
        return got;
    }

    void reset() override { inner->reset(); }
    std::string name() const override { return inner->name(); }

  private:
    void
    note(Clock::time_point t0, std::size_t got, bool batch)
    {
        const Clock::time_point t1 = Clock::now();
        trace.seconds[pid] +=
            std::chrono::duration<double>(t1 - t0).count();
        trace.refs[pid] += got;
        if (batch && trace.record && got > 0) {
            trace.schedule.emplace_back(
                static_cast<std::uint8_t>(pid),
                static_cast<std::uint32_t>(got));
        }
        if (trace.spans.size() < PointTrace::kMaxSpans) {
            trace.spans.push_back(
                {std::chrono::duration<double>(t0 - kEpoch).count(),
                 std::chrono::duration<double>(t1 - kEpoch).count(),
                 static_cast<std::uint8_t>(pid)});
        }
    }

    std::unique_ptr<trace::TraceSource> inner;
    PointTrace &trace;
    std::size_t pid;
};

/** The processes' sources of a freshly built workload. */
std::vector<std::unique_ptr<trace::TraceSource>>
takeSources(core::Workload wl)
{
    std::vector<std::unique_ptr<trace::TraceSource>> srcs;
    for (core::Process &p : wl.take())
        srcs.push_back(std::move(p.source));
    return srcs;
}

/** Pull @p n records of @p src as packed words (packing MemRefs
 *  for a source without a packed path). */
std::size_t
pullPacked(trace::TraceSource &src, std::uint32_t *out, std::size_t n)
{
    const std::size_t got = src.nextBatchPacked(out, n);
    if (got != trace::TraceSource::kNoPacked)
        return got;
    std::array<trace::MemRef, 256> refs;
    std::size_t done = 0;
    while (done < n) {
        const std::size_t want = std::min(n - done, refs.size());
        const std::size_t had = src.nextBatch(refs.data(), want);
        for (std::size_t i = 0; i < had; ++i) {
            if (!trace::packed::packable(refs[i]))
                throw std::runtime_error("replay: unpackable record");
            out[done + i] = trace::packed::pack(refs[i]);
        }
        done += had;
        if (had < want)
            break;
    }
    return done;
}

/**
 * Replay @p schedule over fresh sources, handing each record to
 * @p per_ref(pid, word); @return seconds.
 */
template <class PerRef>
double
replaySchedule(const PointTrace &rec, const WorkloadFactory &factory,
               PerRef &&per_ref)
{
    auto srcs = takeSources(factory({}));
    std::array<std::uint32_t, 1024> buf;
    const Clock::time_point t0 = Clock::now();
    for (const auto &[pid, n] : rec.schedule) {
        const std::size_t got = pullPacked(*srcs[pid], buf.data(), n);
        for (std::size_t i = 0; i < got; ++i)
            per_ref(static_cast<Pid>(pid), buf[i]);
    }
    return secondsSince(t0);
}

/** Call @p f with the FastAccessSpec the Simulator would pick for
 *  @p cfg (GenericAccessSpec for mixed L1 geometries). */
template <class F>
void
withAccessSpec(const core::SystemConfig &cfg, F &&f)
{
    using core::FastAccessSpec;
    using core::WritePolicy;
    const bool dm = cfg.l1i.assoc == 1 && cfg.l1d.assoc == 1;
    const bool sa = cfg.l1i.assoc > 1 && cfg.l1d.assoc > 1;
    if (!dm && !sa) {
        f(core::GenericAccessSpec{});
        return;
    }
    auto pick = [&](auto dmTag) {
        constexpr bool kDm = decltype(dmTag)::value;
        switch (cfg.writePolicy) {
          case WritePolicy::WriteBack:
            return f(FastAccessSpec<kDm, WritePolicy::WriteBack>{});
          case WritePolicy::WriteMissInvalidate:
            return f(FastAccessSpec<kDm,
                                    WritePolicy::WriteMissInvalidate>{});
          case WritePolicy::WriteOnly:
            return f(FastAccessSpec<kDm, WritePolicy::WriteOnly>{});
          case WritePolicy::SubblockPlacement:
            return f(FastAccessSpec<kDm,
                                    WritePolicy::SubblockPlacement>{});
        }
    };
    if (dm)
        pick(std::true_type{});
    else
        pick(std::false_type{});
}

/** Keeps replay results observable so no step is optimised away. */
volatile std::uint64_t replaySink = 0;

} // namespace

double
sinceEpoch()
{
    return secondsSince(kEpoch);
}

double
PointTrace::totalSeconds() const
{
    double s = 0.0;
    for (double x : seconds)
        s += x;
    return s;
}

Count
PointTrace::totalRefs() const
{
    Count n = 0;
    for (Count x : refs)
        n += x;
    return n;
}

SourceWrap
timedWrap(PointTrace &trace)
{
    return [&trace](std::unique_ptr<trace::TraceSource> src,
                    std::size_t pid) -> std::unique_ptr<trace::TraceSource> {
        if (trace.seconds.size() <= pid) {
            trace.seconds.resize(pid + 1, 0.0);
            trace.refs.resize(pid + 1, 0);
        }
        return std::make_unique<TimedSource>(std::move(src), trace, pid);
    };
}

void
SpanLog::add(const std::string &name, const std::string &cat,
             unsigned tid, double start, double end,
             obs::JsonValue args)
{
    obs::JsonValue ev = obs::JsonValue::object();
    ev.members.emplace_back("name", obs::JsonValue::string(name));
    ev.members.emplace_back("cat", obs::JsonValue::string(cat));
    ev.members.emplace_back("ph", obs::JsonValue::string("X"));
    ev.members.emplace_back("ts", obs::JsonValue::number(start * 1e6));
    ev.members.emplace_back(
        "dur", obs::JsonValue::number(std::max(0.0, end - start) * 1e6));
    ev.members.emplace_back("pid", obs::JsonValue::number(Count{1}));
    ev.members.emplace_back("tid",
                            obs::JsonValue::number(Count{tid}));
    ev.members.emplace_back("args", std::move(args));
    events.items.push_back(std::move(ev));
}

void
SpanLog::write(const std::string &path) const
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back("traceEvents", events);
    doc.members.emplace_back("displayTimeUnit",
                             obs::JsonValue::string("ms"));
    std::ofstream out(path);
    out << obs::writeJsonCompact(doc) << "\n";
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
}

ReplayResult
replayPoint(const core::SystemConfig &config,
            const WorkloadFactory &factory, Count instructions,
            unsigned repeats, SpanLog &log, unsigned tid)
{
    ReplayResult res;
    res.config = config.name;

    // The recording run fixes the reference schedule every step
    // replays: which process the simulator pulled, and how much.
    PointTrace rec;
    rec.record = true;
    {
        core::Simulator sim(config, factory(timedWrap(rec)));
        sim.run(instructions, 0);
    }
    for (const auto &[pid, n] : rec.schedule)
        res.refs += n;

    auto span = [&](const char *name, double start) {
        obs::JsonValue args = obs::JsonValue::object();
        args.members.emplace_back("point",
                                  obs::JsonValue::string(config.name));
        log.add(name, "replay", tid, start, sinceEpoch(),
                std::move(args));
    };

    std::vector<double> src, mmuT, l1T, hier, sim, warm;
    for (unsigned r = 0; r < repeats; ++r) {
        double t = sinceEpoch();
        std::uint64_t sink = 0;
        src.push_back(replaySchedule(
            rec, factory,
            [&](Pid, std::uint32_t w) { sink += w; }));
        span("replay.source", t);

        t = sinceEpoch();
        {
            mmu::Mmu unit(config.mmu);
            mmuT.push_back(replaySchedule(
                rec, factory, [&](Pid pid, std::uint32_t w) {
                    const Addr a = trace::packed::addrOf(w);
                    sink += trace::packed::isInst(w)
                                ? unit.translateInst(pid, a).paddr
                                : unit.translateData(pid, a).paddr;
                }));
        }
        span("replay.mmu", t);

        t = sinceEpoch();
        {
            mmu::Mmu unit(config.mmu);
            cache::TagStore l1i(config.l1i, "l1i");
            cache::TagStore l1d(config.l1d, "l1d");
            l1T.push_back(replaySchedule(
                rec, factory, [&](Pid pid, std::uint32_t w) {
                    const Addr a = trace::packed::addrOf(w);
                    const bool inst = trace::packed::isInst(w);
                    const Addr pa =
                        inst ? unit.translateInst(pid, a).paddr
                             : unit.translateData(pid, a).paddr;
                    cache::TagStore &store = inst ? l1i : l1d;
                    const auto idx = store.lookup(pa);
                    if (idx == cache::TagStore::npos) {
                        cache::Eviction ev;
                        sink += store.allocateIdx(pa, ev);
                    } else {
                        store.touchIdx(idx);
                    }
                }));
        }
        span("replay.l1", t);

        t = sinceEpoch();
        {
            core::CacheSystem cs(config);
            withAccessSpec(config, [&](auto spec) {
                using Spec = decltype(spec);
                Cycles now = 0;
                hier.push_back(replaySchedule(
                    rec, factory, [&](Pid pid, std::uint32_t w) {
                        const Addr a = trace::packed::addrOf(w);
                        Cycles stall;
                        if (trace::packed::isInst(w))
                            stall = cs.ifetchT<Spec>(now, pid, a);
                        else if (trace::packed::isLoad(w))
                            stall = cs.loadT<Spec>(now, pid, a);
                        else
                            stall = cs.storeT<Spec>(
                                now, pid, a, trace::packed::flagOf(w));
                        now += 1 + stall;
                    }));
                sink += now;
            });
        }
        span("replay.cache_system", t);

        t = sinceEpoch();
        {
            core::Simulator s(config, factory({}));
            const Clock::time_point t0 = Clock::now();
            sink += s.run(instructions, 0).cycles;
            sim.push_back(secondsSince(t0));
        }
        span("replay.simulator.run", t);

        t = sinceEpoch();
        {
            core::Simulator s(config, factory({}));
            const Clock::time_point t0 = Clock::now();
            s.runWarm(instructions);
            warm.push_back(secondsSince(t0));
        }
        span("replay.simulator.run_warm", t);
        replaySink = replaySink + sink;
    }
    res.sourceS = median(src);
    res.mmuS = median(mmuT);
    res.l1S = median(l1T);
    res.hierarchyS = median(hier);
    res.simS = median(sim);
    res.warmS = median(warm);
    return res;
}

ProbeResult
probeSources(const std::vector<ProbeSource> &sources,
             const std::vector<synth::BenchmarkSpec> &gen_specs,
             std::size_t slice_refs, const std::string &stream_dir)
{
    ProbeResult pr;
    constexpr std::size_t kBatch = 256;
    constexpr unsigned kRepeats = 3;
    std::uint64_t sink = 0;

    // Generator: drain slice_refs of every spec.
    {
        std::vector<trace::MemRef> buf(1u << 14);
        Count n = 0;
        const Clock::time_point t0 = Clock::now();
        for (const auto &spec : gen_specs) {
            auto gen = synth::makeBenchmark(spec);
            std::size_t left = slice_refs;
            while (left > 0) {
                const std::size_t want = std::min(left, buf.size());
                const std::size_t got = gen->nextBatch(buf.data(), want);
                n += got;
                left -= got;
                if (got < want)
                    break;
            }
            sink += buf[0].addr;
        }
        const double s = secondsSince(t0);
        pr.genRefsPerS = s > 0.0 ? static_cast<double>(n) / s : 0.0;
    }

    // Private arena: materialise the slices, then read and skip.
    trace::TraceArena arena;
    std::vector<trace::ArenaStream *> streams;
    {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < sources.size(); ++i) {
            streams.push_back(arena.acquire(
                "probe:" + std::to_string(i), sources[i].passBound,
                slice_refs, sources[i].make));
        }
        pr.arenaGenS = secondsSince(t0);
        pr.arenaBytesMb =
            static_cast<double>(arena.totalBytes()) / (1u << 20);
    }
    std::vector<std::vector<std::uint32_t>> slices(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
        trace::ArenaSource src(streams[i], "probe");
        slices[i].resize(slice_refs);
        slices[i].resize(
            src.nextBatchPacked(slices[i].data(), slice_refs));
    }
    std::vector<double> read, skip, decode;
    std::array<std::uint32_t, kBatch> buf;
    Count sliceTotal = 0;
    for (const auto &s : slices)
        sliceTotal += s.size();
    for (unsigned r = 0; r < kRepeats; ++r) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < streams.size(); ++i) {
            trace::ArenaSource src(streams[i], "probe");
            for (std::size_t left = slices[i].size(); left > 0;) {
                const std::size_t got = src.nextBatchPacked(
                    buf.data(), std::min(left, kBatch));
                sink += buf[0];
                left -= got;
            }
        }
        read.push_back(secondsSince(t0));
    }
    // Skips of one v3 block's worth, the gap scale of a sampled
    // fast-forward chunk.
    constexpr std::size_t kSkipGap = trace::kV3DefaultBlockRefs;
    for (unsigned r = 0; r < kRepeats; ++r) {
        Count skipped = 0;
        const Clock::time_point t0 = Clock::now();
        for (int pass = 0; pass < 64; ++pass) {
            for (std::size_t i = 0; i < streams.size(); ++i) {
                trace::ArenaSource src(streams[i], "probe");
                for (std::size_t left = slices[i].size();
                     left >= kSkipGap; left -= kSkipGap)
                    skipped += src.skip(kSkipGap);
            }
        }
        const double s = secondsSince(t0);
        skip.push_back(skipped ? s * 1e9 / static_cast<double>(skipped)
                               : 0.0);
    }
    pr.arenaReadNsPerRef =
        sliceTotal ? median(read) * 1e9 / static_cast<double>(sliceTotal)
                   : 0.0;
    pr.arenaSkipNsPerRef = median(skip);

    // v3: encode each slice into blocks, then time the packed decode.
    {
        struct Block
        {
            std::vector<unsigned char> payload;
            std::size_t records;
        };
        std::vector<Block> blocks;
        std::vector<trace::MemRef> refs;
        for (const auto &s : slices) {
            for (std::size_t at = 0; at < s.size();
                 at += trace::kV3DefaultBlockRefs) {
                const std::size_t n = std::min<std::size_t>(
                    trace::kV3DefaultBlockRefs, s.size() - at);
                refs.resize(n);
                for (std::size_t k = 0; k < n; ++k)
                    refs[k] = trace::packed::unpack(s[at + k]);
                Block b;
                b.payload.resize(n * trace::kV3MaxRecordBytes);
                b.payload.resize(trace::v3::encodeBlock(
                    refs.data(), n, b.payload.data()));
                b.records = n;
                blocks.push_back(std::move(b));
            }
        }
        std::vector<std::uint32_t> out(trace::kV3DefaultBlockRefs);
        const trace::v3::BlockContext ctx;
        for (unsigned r = 0; r < kRepeats; ++r) {
            const Clock::time_point t0 = Clock::now();
            for (const Block &b : blocks) {
                trace::v3::decodeBlockPacked(b.payload.data(),
                                             b.payload.size(),
                                             b.records, out.data(), ctx);
                sink += out[0];
            }
            decode.push_back(secondsSince(t0));
        }
        pr.v3DecodeNsPerRef =
            sliceTotal
                ? median(decode) * 1e9 / static_cast<double>(sliceTotal)
                : 0.0;
    }

    // StreamSource: the slices as v3 files, drained by the consumer
    // thread; the time it spends inside nextBatchPacked is its wait.
    if (!stream_dir.empty()) {
        std::vector<std::string> paths;
        for (std::size_t i = 0; i < slices.size(); ++i) {
            std::vector<trace::MemRef> refs(slices[i].size());
            for (std::size_t k = 0; k < refs.size(); ++k)
                refs[k] = trace::packed::unpack(slices[i][k]);
            trace::VectorSource vs("probe", std::move(refs));
            paths.push_back(stream_dir + "/probe-" + std::to_string(i) +
                            ".v3");
            trace::TraceV3Writer writer(paths.back());
            writer.writeAll(vs);
            writer.close();
        }
        pr.streamBufferMb = streamBufferMb(paths);
        trace::StreamOptions options;
        options.memoryBudgetBytes =
            static_cast<std::size_t>(envU64(trace::kStreamBudgetEnv,
                                            trace::kStreamBudgetDefaultMb)) *
            (std::size_t{1} << 20) / paths.size();
        for (const std::string &path : paths) {
            trace::StreamSource src(path, options);
            for (;;) {
                const Clock::time_point t0 = Clock::now();
                const std::size_t got =
                    src.nextBatchPacked(buf.data(), kBatch);
                pr.streamWaitS += secondsSince(t0);
                if (got == 0 || got == trace::TraceSource::kNoPacked)
                    break;
                sink += buf[0];
            }
        }
        for (const std::string &path : paths)
            std::remove(path.c_str());
    }
    replaySink = replaySink + sink;
    return pr;
}

double
cacheSystemCtorSeconds(const core::SystemConfig &config,
                       unsigned repeats)
{
    std::vector<double> t;
    for (unsigned r = 0; r < repeats; ++r) {
        const Clock::time_point t0 = Clock::now();
        core::CacheSystem cs(config);
        t.push_back(secondsSince(t0));
        replaySink = replaySink + cs.stats().ifetches;
    }
    return median(t);
}

double
streamBufferMb(const std::vector<std::string> &paths)
{
    trace::StreamOptions options;
    options.memoryBudgetBytes =
        static_cast<std::size_t>(envU64(trace::kStreamBudgetEnv,
                                        trace::kStreamBudgetDefaultMb)) *
        (std::size_t{1} << 20) / paths.size();
    std::size_t bytes = 0;
    for (const std::string &path : paths)
        bytes += trace::StreamSource(path, options).bufferBytes();
    return static_cast<double>(bytes) / (1u << 20);
}

} // namespace perfbench
