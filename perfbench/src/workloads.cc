#include "workloads.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "core/config.hh"
#include "synth/suite.hh"
#include "trace/arena.hh"
#include "trace/compose.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/env.hh"

namespace perfbench
{

using namespace gaas;

bool
parseKind(const std::string &name, Kind &out)
{
    for (Kind k : {Kind::Ladder, Kind::Sampled, Kind::Stream}) {
        if (name == kindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Ladder:
        return "ladder";
      case Kind::Sampled:
        return "sampled";
      case Kind::Stream:
        return "stream";
    }
    return "?";
}

namespace
{

/** splitmix64 finalizer: a full-avalanche 64-bit mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Workload::standard's arena size hint for process @p i (same
 *  formula: scheduler share x refs per instruction x 1.3 slack). */
std::size_t
refHint(const std::vector<synth::BenchmarkSpec> &specs, std::size_t i,
        Count total_instr)
{
    if (total_instr == 0)
        return 0;
    double invSum = 0.0;
    for (const auto &s : specs)
        invSum += 1.0 / s.baseCpi;
    const auto &spec = specs[i];
    const double share = (1.0 / spec.baseCpi) / invSum;
    const double refs = share * static_cast<double>(total_instr) *
                        (1.0 + spec.loadFrac + spec.storeFrac) * 1.3;
    return static_cast<std::size_t>(refs);
}

std::unique_ptr<trace::TraceSource>
wrapped(std::unique_ptr<trace::TraceSource> src, std::size_t pid,
        const SourceWrap &wrap)
{
    return wrap ? wrap(std::move(src), pid) : std::move(src);
}

/** Instructions the streamed run simulates: kStreamTargetRefs even
 *  if every instruction landed in the process with the fewest
 *  references per instruction (2% margin), as BENCH_9 sized it. */
Count
streamInstructions()
{
    double minRpi = 10.0;
    for (const auto &s : synth::workloadSpecs(kStreamFiles))
        minRpi = std::min(minRpi, 1.0 + s.loadFrac + s.storeFrac);
    return static_cast<Count>(kStreamTargetRefs / minRpi * 1.02);
}

} // namespace

std::vector<synth::BenchmarkSpec>
seededSpecs(unsigned mp, std::uint64_t seed)
{
    std::vector<synth::BenchmarkSpec> specs = synth::workloadSpecs(mp);
    if (seed != kDefaultSeed) {
        for (auto &spec : specs)
            spec.seed = mix64(spec.seed ^ mix64(seed));
    }
    return specs;
}

core::Workload
seededStandard(unsigned mp, Count instr_hint, std::uint64_t seed,
               const SourceWrap &wrap)
{
    const std::vector<synth::BenchmarkSpec> specs =
        seededSpecs(mp, seed);
    auto &arena = trace::TraceArena::global();
    core::Workload wl;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const synth::BenchmarkSpec &spec = specs[i];
        const std::string key = synth::specDigest(spec) + ":" +
                                std::to_string(mp) + ":" +
                                std::to_string(i);
        const std::size_t bound =
            2 * static_cast<std::size_t>(spec.simInstructions);
        trace::ArenaStream *stream = arena.acquire(
            key, bound, refHint(specs, i, instr_hint),
            [spec] { return synth::makeBenchmark(spec); });
        std::unique_ptr<trace::TraceSource> src =
            std::make_unique<trace::LoopSource>(
                std::make_unique<trace::ArenaSource>(
                    stream, spec.name + "[arena]"));
        wl.add(wrapped(std::move(src), i, wrap), spec.baseCpi,
               spec.name);
    }
    return wl;
}

std::vector<core::SweepJob>
ladderJobs(bool sampled, std::uint64_t seed)
{
    struct Org
    {
        const char *name;
        core::L2Org org;
        unsigned assoc;
        Cycles accessTime;
    };
    const Org orgs[] = {
        {"unified-1w", core::L2Org::Unified, 1, 6},
        {"unified-2w", core::L2Org::Unified, 2, 7},
        {"split-1w", core::L2Org::LogicalSplit, 1, 6},
        {"split-2w", core::L2Org::LogicalSplit, 2, 7},
    };
    std::vector<core::SweepJob> jobs;
    for (std::uint64_t size = 16 * 1024; size <= 1024 * 1024;
         size *= 2) {
        for (const Org &o : orgs) {
            core::SweepJob job;
            job.config = core::afterWritePolicy();
            job.config.name =
                "l2-" + std::to_string(size / 1024) + "k-" + o.name;
            job.config.l2Org = o.org;
            job.config.l2.cache.sizeWords = size;
            job.config.l2.cache.assoc = o.assoc;
            job.config.l2.accessTime = o.accessTime;
            job.mpLevel = kLadderMp;
            job.instructions = kLadderInstructions;
            job.warmup = kLadderWarmup;
            job.sampling.enabled = sampled;
            if (!sampled && seed != kDefaultSeed) {
                job.workload = [seed] {
                    return seededStandard(
                        kLadderMp, kLadderWarmup + kLadderInstructions,
                        seed);
                };
            }
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<std::string>
streamPaths(const std::string &dir)
{
    std::vector<std::string> paths;
    for (unsigned i = 0; i < kStreamFiles; ++i)
        paths.push_back(dir + "/stream-" + std::to_string(i) + ".v3");
    return paths;
}

std::vector<synth::BenchmarkSpec>
streamFixtureSpecs(std::uint64_t seed)
{
    // File sizes follow the scheduler's instruction shares with 10%
    // slack, so the run consumes each file in about one pass.
    std::vector<synth::BenchmarkSpec> specs =
        seededSpecs(kStreamFiles, seed);
    double invSum = 0.0;
    for (const auto &s : specs)
        invSum += 1.0 / s.baseCpi;
    const double total = static_cast<double>(streamInstructions());
    for (auto &spec : specs) {
        const double share = (1.0 / spec.baseCpi) / invSum;
        spec.simInstructions =
            static_cast<Count>(share * total * 1.1);
    }
    return specs;
}

std::uint64_t
writeStreamFixture(const std::string &dir, std::uint64_t seed)
{
    const auto specs = streamFixtureSpecs(seed);
    const auto paths = streamPaths(dir);
    std::vector<std::uint64_t> written(specs.size(), 0);
    const unsigned lanes =
        std::max(1u, std::min(kStreamFiles,
                              std::thread::hardware_concurrency()));
    // A writer's failure (disk full, bad directory) is carried out of
    // its thread and rethrown here, after every writer has joined.
    std::vector<std::exception_ptr> errors(lanes);
    {
        std::vector<std::jthread> writers;
        for (unsigned lane = 0; lane < lanes; ++lane) {
            writers.emplace_back([&, lane] {
                try {
                    for (std::size_t i = lane; i < specs.size();
                         i += lanes) {
                        auto src = synth::makeBenchmark(specs[i]);
                        trace::TraceV3Writer writer(paths[i]);
                        written[i] = writer.writeAll(*src);
                        writer.close();
                    }
                } catch (...) {
                    errors[lane] = std::current_exception();
                }
            });
        }
    }
    for (const auto &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    std::uint64_t total = 0;
    for (auto n : written)
        total += n;
    return total;
}

core::Workload
streamWorkload(const std::vector<std::string> &paths,
               const SourceWrap &wrap)
{
    // Workload::fromTraceFiles' streaming branch: one ceiling split
    // evenly across the files.
    trace::StreamOptions options;
    options.memoryBudgetBytes =
        static_cast<std::size_t>(envU64(trace::kStreamBudgetEnv,
                                        trace::kStreamBudgetDefaultMb)) *
        (std::size_t{1} << 20) / paths.size();
    core::Workload wl;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::unique_ptr<trace::TraceSource> src =
            std::make_unique<trace::LoopSource>(
                std::make_unique<trace::StreamSource>(paths[i],
                                                      options));
        wl.add(wrapped(std::move(src), i, wrap), 1.238,
               "stream-" + std::to_string(i) + ".v3");
    }
    return wl;
}

core::SweepJob
streamJob(const std::vector<std::string> &paths, const SourceWrap &wrap)
{
    core::SweepJob job;
    job.config = core::afterWritePolicy();
    job.config.name = "l2-256k-unified-1w";
    job.config.l2Org = core::L2Org::Unified;
    job.config.l2.cache.sizeWords = 256 * 1024;
    job.config.l2.cache.assoc = 1;
    job.config.l2.accessTime = 6;
    job.instructions = streamInstructions();
    job.warmup = 0;
    job.traceFiles = paths;
    job.traceStreaming = true;
    if (wrap) {
        job.workload = [paths, wrap] {
            return streamWorkload(paths, wrap);
        };
    }
    return job;
}

} // namespace perfbench
