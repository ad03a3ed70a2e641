/**
 * @file
 * The benchmark's workloads, built through gaascache's public API:
 * the pinned Fig. 6 ladder (full detail and sampled) and the v3
 * streaming run, plus the seed plumbing that derives every input
 * from the workload seed.
 *
 * Seed 0 is the default seed: it leaves the suite's own generator
 * seeds untouched, so its inputs are exactly Workload::standard's
 * (checked against the pinned digests).  Any other seed remixes
 * every benchmark's generator seed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "synth/benchmark.hh"
#include "trace/source.hh"

namespace perfbench
{

using gaas::Count;

enum class Kind
{
    Ladder,
    Sampled,
    Stream
};

/** Parse "ladder"/"sampled"/"stream"; false on anything else. */
bool parseKind(const std::string &name, Kind &out);
const char *kindName(Kind kind);

/** @name The ladder budget fig6_l2_orgs runs per point */
///@{
inline constexpr Count kLadderInstructions = 16'000'000;
inline constexpr Count kLadderWarmup = 8'000'000;
inline constexpr unsigned kLadderMp = 8;
///@}

/** The default seed: the suite's own generator seeds. */
inline constexpr std::uint64_t kDefaultSeed = 0;

/**
 * The suite specs of a level-@p mp workload with every generator
 * seed remixed by @p seed (unchanged for kDefaultSeed).
 */
std::vector<gaas::synth::BenchmarkSpec>
seededSpecs(unsigned mp, std::uint64_t seed);

/**
 * Optional per-process source wrapper a workload builder applies
 * outermost (the traced run's timing decorator).
 */
using SourceWrap = std::function<std::unique_ptr<gaas::trace::TraceSource>(
    std::unique_ptr<gaas::trace::TraceSource>, std::size_t pid)>;

/**
 * Workload::standard(mp, instr_hint) for seeded specs: every process
 * replays its stream from TraceArena::global() under the same key
 * scheme and size hint, wrapped by @p wrap when set.
 */
gaas::core::Workload seededStandard(unsigned mp, Count instr_hint,
                                    std::uint64_t seed,
                                    const SourceWrap &wrap = {});

/**
 * The 28 pinned points: L2 16KW..1024KW x {unified, split} x
 * {1, 2}-way over the write-only L1-D machine, at the ladder budget.
 * A non-default @p seed attaches a seededStandard builder; the
 * default seed leaves the program's own Workload::standard path in
 * place.  @p sampled turns on the SMARTS
 * controller with its default plan (suite seeds only: runSampled
 * builds its own workload).
 */
std::vector<gaas::core::SweepJob> ladderJobs(bool sampled,
                                             std::uint64_t seed);

/** @name The streaming workload */
///@{
/** Files (= processes) of the v3 fixture. */
inline constexpr unsigned kStreamFiles = 8;
/** References the streamed run simulates. */
inline constexpr double kStreamTargetRefs = 64e6;

/** The fixture's file paths under @p dir. */
std::vector<std::string> streamPaths(const std::string &dir);

/**
 * Encode the seeded fixture into @p dir: one v3 file per process of
 * the level-8 workload, each sized to its scheduler share of the
 * streamed run (BENCH_9's recipe at kStreamTargetRefs).  Files are
 * written by parallel threads; @return records written.
 */
std::uint64_t writeStreamFixture(const std::string &dir,
                                 std::uint64_t seed);

/** The seeded fixture's generator specs, sized as written. */
std::vector<gaas::synth::BenchmarkSpec>
streamFixtureSpecs(std::uint64_t seed);

/** Workload::fromTraceFiles(@p paths, streaming = true), with
 *  @p wrap applied outermost to every process. */
gaas::core::Workload streamWorkload(const std::vector<std::string> &paths,
                                    const SourceWrap &wrap = {});

/**
 * BENCH_9's point (l2-256k-unified-1w) over the fixture files,
 * streamed through StreamSource.  With a @p wrap the job carries a
 * streamWorkload builder instead of the program's own path.
 */
gaas::core::SweepJob streamJob(const std::vector<std::string> &paths,
                               const SourceWrap &wrap = {});
///@}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
