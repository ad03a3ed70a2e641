/**
 * @file
 * The traced run's instruments, all outside the program:
 *
 *  - TimedSource, a TraceSource decorator that times every
 *    nextBatch / nextBatchPacked / skip call of one process and can
 *    record the order in which the simulator pulled its batches;
 *  - the subtraction ladder, which replays a recorded reference
 *    schedule through ever more of the hierarchy (source alone,
 *    + Mmu::translate*, + L1 TagStore probes, the full CacheSystem
 *    path, Simulator::run / runWarm) and differences the times;
 *  - source probes over the first references of every process
 *    (generator, arena materialise / read / skip, v3 block decode,
 *    StreamSource drain);
 *  - a span log written as trace-event JSON (opens in Perfetto).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "obs/json.hh"
#include "synth/benchmark.hh"
#include "workloads.hh"

namespace perfbench
{

/** Seconds since the benchmark process's span epoch. */
double sinceEpoch();

/** Everything the decorators of one sweep point collected. */
struct PointTrace
{
    /** Per-process host seconds inside the source and references
     *  it produced (batches and skips). */
    std::vector<double> seconds;
    std::vector<Count> refs;

    /** Record the (pid, batch length) pull order for a replay. */
    bool record = false;
    std::vector<std::pair<std::uint8_t, std::uint32_t>> schedule;

    /** The first kMaxSpans batch calls, as [start, end) seconds
     *  since the epoch, with their pid. */
    static constexpr std::size_t kMaxSpans = 256;
    struct Span
    {
        double start;
        double end;
        std::uint8_t pid;
    };
    std::vector<Span> spans;

    double totalSeconds() const;
    Count totalRefs() const;
};

/** A SourceWrap that decorates each process with a TimedSource
 *  reporting into @p trace (which must outlive the workload). */
SourceWrap timedWrap(PointTrace &trace);

/** Trace-event ("X" complete events) span log. */
class SpanLog
{
  public:
    /** Add a span on thread @p tid, times in seconds since epoch. */
    void add(const std::string &name, const std::string &cat,
             unsigned tid, double start, double end,
             gaas::obs::JsonValue args = gaas::obs::JsonValue::object());

    /** Write {"traceEvents": [...]} to @p path. */
    void write(const std::string &path) const;

  private:
    gaas::obs::JsonValue events = gaas::obs::JsonValue::array();
};

/** Builds a fresh workload for a replay, wrapped by the argument. */
using WorkloadFactory =
    std::function<gaas::core::Workload(const SourceWrap &)>;

/**
 * Cumulative replay times of one point (median of the repeats) over
 * the same recorded reference schedule.
 */
struct ReplayResult
{
    std::string config;
    Count refs = 0;          //!< references in the schedule
    double sourceS = 0.0;    //!< 1. source alone
    double mmuS = 0.0;       //!< 2. + Mmu::translate*
    double l1S = 0.0;        //!< 3. + L1 TagStore probes
    double hierarchyS = 0.0; //!< 4. source + full CacheSystem path
    double simS = 0.0;       //!< 5. Simulator::run
    double warmS = 0.0;      //!<    Simulator::runWarm
};

/**
 * Run the subtraction ladder for @p config: a recording run of
 * @p instructions through a decorated workload fixes the schedule,
 * then each step replays it @p repeats times on fresh sources.
 * Spans go to @p log on thread @p tid.
 */
ReplayResult replayPoint(const gaas::core::SystemConfig &config,
                         const WorkloadFactory &factory,
                         Count instructions, unsigned repeats,
                         SpanLog &log, unsigned tid);

/** Source-layer probe results (see file comment). */
struct ProbeResult
{
    double genRefsPerS = 0.0;
    double arenaGenS = 0.0;
    double arenaBytesMb = 0.0;
    double arenaReadNsPerRef = 0.0;
    double arenaSkipNsPerRef = 0.0;
    double v3DecodeNsPerRef = 0.0;
    double streamWaitS = 0.0;
    double streamBufferMb = 0.0;
};

/** One process's reference source for the probes: a factory and
 *  the exact bound on the records one pass produces. */
struct ProbeSource
{
    std::function<std::unique_ptr<gaas::trace::TraceSource>()> make;
    std::size_t passBound = 0;
};

/**
 * Probe the source layers on the first @p slice_refs references of
 * every process: generator drain rate over @p gen_specs, a private
 * arena materialised from @p sources (gen seconds, bytes, read and
 * skip cost), v3 encode-then-decodeBlockPacked cost, and -- when
 * @p stream_dir is non-empty -- a StreamSource drain of the slices
 * written as v3 files there (removed afterwards).
 */
ProbeResult probeSources(
    const std::vector<ProbeSource> &sources,
    const std::vector<gaas::synth::BenchmarkSpec> &gen_specs,
    std::size_t slice_refs, const std::string &stream_dir);

/** Median seconds of @p repeats CacheSystem constructions. */
double cacheSystemCtorSeconds(const gaas::core::SystemConfig &config,
                              unsigned repeats);

/** Sum of StreamSource::bufferBytes over @p paths, each opened with
 *  the per-file share Workload::fromTraceFiles gives it, in MiB. */
double streamBufferMb(const std::vector<std::string> &paths);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
