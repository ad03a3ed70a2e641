#include "workload.hh"

#include <algorithm>
#include <future>
#include <string>
#include <thread>

#include "synth/benchmark.hh"
#include "trace/arena.hh"
#include "trace/compose.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/env.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::core
{

namespace
{

/**
 * Acquire the level-@p mp_level standard workload's arena streams,
 * once each, and materialize each through its share of @p total_instr
 * (round-robin cycles give process i a 1/baseCpi share; it issues
 * 1 + loadFrac + storeFrac references per instruction; 30% slack
 * covers scheduling skew, and an underestimate only costs a second
 * growth step).  Concurrent callers split the generation, longest
 * stream first (acquire skips a stream another thread is growing);
 * a blocking pass then waits on the streams others grew.  A thread
 * holds one growth mutex at a time, so waits cannot form a cycle.
 */
std::vector<trace::ArenaStream *>
fillStandardStreams(const std::vector<synth::BenchmarkSpec> &specs,
                    unsigned mp_level, Count total_instr)
{
    double invSum = 0.0;
    for (const auto &s : specs)
        invSum += 1.0 / s.baseCpi;
    std::vector<std::pair<std::size_t, std::size_t>> fills; // hint, i
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const synth::BenchmarkSpec &spec = specs[i];
        const double refs = (1.0 / spec.baseCpi) / invSum *
                            static_cast<double>(total_instr) *
                            (1.0 + spec.loadFrac + spec.storeFrac) * 1.3;
        fills.emplace_back(static_cast<std::size_t>(refs), i);
    }
    std::sort(fills.rbegin(), fills.rend());
    auto &arena = trace::TraceArena::global();
    std::vector<trace::ArenaStream *> streams(specs.size());
    for (const auto &[hint, i] : fills) {
        // Stream = "process i of the level-N workload"; its pass
        // holds at most one Inst and one data record per instruction.
        const synth::BenchmarkSpec &spec = specs[i];
        const std::string key = synth::specDigest(spec) + ":" +
                                std::to_string(mp_level) + ":" +
                                std::to_string(i);
        streams[i] = arena.acquire(
            key, 2 * static_cast<std::size_t>(spec.simInstructions),
            hint, [spec] { return synth::makeBenchmark(spec); });
    }
    for (const auto &[hint, i] : fills)
        streams[i]->ensure(hint);
    return streams;
}

} // namespace

Workload
Workload::fromSpecs(const std::vector<synth::BenchmarkSpec> &specs,
                    bool loop)
{
    Workload wl;
    for (const auto &spec : specs) {
        std::unique_ptr<trace::TraceSource> src =
            synth::makeBenchmark(spec);
        if (loop) {
            src = std::make_unique<trace::LoopSource>(std::move(src));
        }
        wl.add(std::move(src), spec.baseCpi, spec.name);
    }
    return wl;
}

Workload
Workload::fromTraceFiles(const std::vector<std::string> &paths,
                         bool streaming, double base_cpi)
{
    if (paths.empty())
        gaas_error(ErrorCode::Config,
                   "trace-file workload names no files");

    auto shortName = [](const std::string &path) {
        const std::size_t slash = path.find_last_of("/\\");
        return slash == std::string::npos
                   ? path
                   : path.substr(slash + 1);
    };

    Workload wl;
    if (streaming) {
        // One ceiling for the whole workload: each stream gets an
        // even share as its cap, so naming more traces never buys
        // more memory.  A stream whose share holds its lookahead
        // (trace/stream.hh) uses only that much.
        const std::size_t total =
            static_cast<std::size_t>(envU64(
                trace::kStreamBudgetEnv,
                trace::kStreamBudgetDefaultMb)) *
            (std::size_t{1} << 20);
        trace::StreamOptions options;
        options.memoryBudgetBytes = total / paths.size();
        for (const std::string &path : paths) {
            auto src = std::make_unique<trace::StreamSource>(
                path, options);
            wl.add(std::make_unique<trace::LoopSource>(
                       std::move(src)),
                   base_cpi, shortName(path));
        }
        return wl;
    }

    if (!trace::TraceArena::enabledByEnv()) {
        for (const std::string &path : paths) {
            auto src = std::make_unique<trace::TraceV3Reader>(path);
            wl.add(std::make_unique<trace::LoopSource>(
                       std::move(src)),
                   base_cpi, shortName(path));
        }
        return wl;
    }

    // Arena path: decode each file once into the shared arena and
    // replay it zero-copy, keyed by content digest + record count
    // (v3FileInfo validates the header up front, so a bad path
    // fails here, not inside a lazily-invoked factory).
    auto &arena = trace::TraceArena::global();
    for (const std::string &path : paths) {
        const trace::V3FileInfo info = trace::v3FileInfo(path);
        if (!info.packable()) {
            // The arena stores packed u32 words only; a file with
            // unaligned or >2^31-word addresses replays through its
            // own block-at-a-time reader instead.
            wl.add(std::make_unique<trace::LoopSource>(
                       std::make_unique<trace::TraceV3Reader>(path)),
                   base_cpi, shortName(path));
            continue;
        }
        const std::string key =
            "file:" + std::to_string(info.digest) + ":" +
            std::to_string(info.records);
        const auto bound =
            static_cast<std::size_t>(info.records);
        trace::ArenaStream *stream = arena.acquire(
            key, bound, bound,
            [path] {
                return std::make_unique<trace::TraceV3Reader>(path);
            });
        auto view = std::make_unique<trace::ArenaSource>(
            stream, shortName(path) + "[arena]");
        wl.add(std::make_unique<trace::LoopSource>(std::move(view)),
               base_cpi, shortName(path));
    }
    return wl;
}

Workload
Workload::standard(unsigned mp_level, Count instr_hint)
{
    const std::vector<synth::BenchmarkSpec> specs =
        synth::workloadSpecs(mp_level);
    if (!trace::TraceArena::enabledByEnv())
        return fromSpecs(specs);

    // Arena path: each process replays a shared materialized stream,
    // wrapped in LoopSource exactly like a per-process generator.
    const auto streams = fillStandardStreams(specs, mp_level, instr_hint);
    Workload wl;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto view = std::make_unique<trace::ArenaSource>(
            streams[i], specs[i].name + "[arena]");
        wl.add(std::make_unique<trace::LoopSource>(std::move(view)),
               specs[i].baseCpi, specs[i].name);
    }
    return wl;
}

trace::ArenaTally
Workload::prewarmStandardStreams(unsigned mp_level,
                                 Count instr_hint)
{
    if (!trace::TraceArena::enabledByEnv() || instr_hint == 0)
        return {};
    const auto specs = synth::workloadSpecs(mp_level);
    const std::size_t nthreads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, specs.size());
    // A future rethrows its filler's exception and joins its thread.
    std::vector<std::future<trace::ArenaTally>> fillers;
    for (std::size_t t = 0; t < nthreads; ++t) {
        fillers.push_back(std::async(std::launch::async, [&] {
            trace::TraceArena::resetThreadTally();
            fillStandardStreams(specs, mp_level, instr_hint);
            return trace::TraceArena::threadTally();
        }));
    }
    trace::ArenaTally total;
    for (auto &filler : fillers)
        total += filler.get();
    return total;
}

void
Workload::add(std::unique_ptr<trace::TraceSource> source,
              double base_cpi, const std::string &name)
{
    if (!source)
        gaas_fatal("Workload::add requires a source");
    if (base_cpi < 1.0)
        gaas_fatal("base CPI must be at least 1.0, got ", base_cpi);
    if (processes.size() >= 256)
        gaas_fatal("PID space exhausted (max 256 processes)");
    Process p;
    p.pid = static_cast<Pid>(processes.size());
    p.name = name;
    p.baseCpi = base_cpi;
    p.source = std::move(source);
    processes.push_back(std::move(p));
}

} // namespace gaas::core
