/**
 * @file
 * The parallel design-space sweep engine.
 *
 * Every point of the paper's evaluation -- a (configuration,
 * multiprogramming level, instruction budget) triple -- is an
 * independent simulation, so a figure's whole ladder can run across
 * hardware threads: each job builds its own Workload (own trace
 * generators, own RNG state) and its own Simulator, touching no
 * shared mutable state.  Results come back in submission order and
 * are bit-identical to a serial run of the same jobs.
 *
 * Worker count: the @p workers argument, else GAAS_BENCH_JOBS, else
 * hardware_concurrency.
 */

#ifndef GAAS_CORE_SWEEP_HH
#define GAAS_CORE_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/sampling.hh"
#include "core/simulator.hh"
#include "core/workload.hh"
#include "util/error.hh"
#include "util/types.hh"

namespace gaas::core
{

class RunJournal;

/** One independent simulation of a design-space sweep. */
struct SweepJob
{
    SystemConfig config;

    /** Multiprogramming level for the standard workload. */
    unsigned mpLevel = 8;

    /** Measured instruction budget (Simulator::run's first arg). */
    Count instructions = 0;

    /** Warmup instructions before measurement starts. */
    Count warmup = 0;

    /** Per-instruction cycle budget for the zero-progress watchdog
     *  (Simulator::setWatchdogCycles); 0 = off. */
    Cycles watchdogCycles = 0;

    /**
     * Sampled-simulation plan (core/sampling.hh).  Disabled by
     * default; when enabled the point runs through runSampled
     * instead of a full-detail Simulator::run, and the sampling
     * knobs become part of the job's journal key.  Mutually
     * exclusive with traceFiles and with a custom workload
     * builder (Config error): the controller models occupancies
     * from the suite specs' rates, which neither can vouch for.
     */
    SamplingConfig sampling;

    /**
     * Trace-file workload: when non-empty, each named v3 trace file
     * becomes one process (Workload::fromTraceFiles) instead of the
     * standard synthetic workload, and mpLevel is ignored.  The
     * resume journal keys these points on the files' content
     * digests, so a renamed copy of the same trace still resumes.
     * Mutually exclusive with sampling (Config error) and
     * overridden by a custom workload builder.
     */
    std::vector<std::string> traceFiles;

    /**
     * Replay mode for traceFiles: false materializes each trace
     * in the shared arena (fastest when it fits in RAM), true
     * streams it under the GAAS_TRACE_STREAM_MB ceiling
     * (trace/stream.hh).  Both modes are bit-identical, so the
     * flag is not part of the journal key.
     */
    bool traceStreaming = false;

    /**
     * Optional workload builder, called on the worker that runs the
     * job.  When empty the standard looping workload at mpLevel is
     * built.  Tests use this to inject finite (exhaustible) traces.
     * Mutually exclusive with sampling (Config error).  Jobs with
     * a custom builder are opaque to the resume journal (their key
     * cannot capture the workload), so they are always re-simulated
     * and never journaled.
     */
    std::function<Workload()> workload;
};

/** How one sweep point ended. */
enum class PointStatus
{
    Ok,       //!< simulated (or reused from a journal) successfully
    Failed,   //!< the job threw; result is zeroed, error/code set
    Degraded, //!< result is valid but a side effect (stats dump,
              //!< journal append) was lost; marked by the caller
};

/** Stable wire name of @p status ("ok"/"failed"/"degraded"). */
const char *pointStatusName(PointStatus status);

/** Parse a wire name back; true and set @p out on a known name. */
bool parsePointStatus(const std::string &name, PointStatus &out);

/** Host-time telemetry for one executed sweep job. */
struct SweepJobStats
{
    /** Seconds between submission and a worker picking the job up. */
    double queueWaitSeconds = 0.0;

    /** Workload construction (trace generators, simulator setup). */
    double buildSeconds = 0.0;

    /** The simulation run itself (Simulator::run). */
    double simSeconds = 0.0;

    /** End-to-end on the worker (build + sim + result handoff). */
    double totalSeconds = 0.0;

    /** Which pool worker (or worker-process slot) ran the job (0 on
     *  the serial path).  Worker indices are dense, assigned in
     *  first-job order. */
    unsigned worker = 0;

    /** Times the job was requeued after a worker-process death
     *  before this (successful) run -- always 0 in-process. */
    unsigned requeues = 0;

    /** @name Trace-arena activity attributed to this job
     *  Streams this job materialized first vs. found already cached,
     *  references it generated into the arena (grow-on-demand during
     *  the run included), and the host seconds that generation took.
     *  All zero with GAAS_BENCH_ARENA=0. */
    ///@{
    std::uint64_t arenaStreamsGenerated = 0;
    std::uint64_t arenaStreamsReused = 0;
    std::uint64_t arenaRefsGenerated = 0;
    double arenaGenSeconds = 0.0;
    ///@}
};

/**
 * Everything one sweep point produced: the result (zeroed on
 * failure), the job telemetry, and -- for failed points -- the
 * structured error that killed it.
 */
struct SweepOutcome
{
    PointStatus status = PointStatus::Ok;

    /** Valid for Ok/Degraded; zero-initialized for Failed (every
     *  derived SimResult ratio guards division by zero). */
    SimResult result;

    SweepJobStats stats;

    /** Classification of the failure (Failed points only). */
    ErrorCode errorCode = ErrorCode::Internal;

    /** The failure's what() text (Failed points only). */
    std::string error;

    /** True if the result was reused from a journal, not simulated. */
    bool reused = false;

    bool ok() const { return status != PointStatus::Failed; }
};

/** Aggregate wall-clock accounting of one runSweep() call. */
struct SweepStats
{
    std::size_t jobs = 0;
    unsigned workers = 0;
    double wallSeconds = 0.0;

    /** @name Multi-process executor telemetry (proc/executor.hh)
     *  All zero when the sweep ran in-process.  `workerRespawns`
     *  counts replacement worker processes forked after a death;
     *  `requeuedJobs` counts job redispatches after a worker was
     *  lost mid-job (one job killed twice counts twice). */
    ///@{
    bool mproc = false;
    std::uint64_t workerRespawns = 0;
    std::uint64_t requeuedJobs = 0;
    ///@}

    /** Sum of SimResult::references() over the whole sweep. */
    Count references = 0;

    /** @name Point dispositions (ok + failed == jobs) */
    ///@{
    std::size_t okPoints = 0;
    std::size_t failedPoints = 0;
    std::size_t degradedPoints = 0; //!< subset of okPoints
    std::size_t reusedPoints = 0;   //!< subset of okPoints
    ///@}

    /** @name Trace-arena totals for this sweep
     *  Sums of the per-job arena counters, plus the arena's packed
     *  byte footprint at sweep end (a process-wide snapshot, not a
     *  per-sweep delta).  A healthy sweep shows streamsGenerated ==
     *  the distinct (spec, mp) streams and streamsReused for every
     *  other point. */
    ///@{
    std::uint64_t arenaStreamsGenerated = 0;
    std::uint64_t arenaStreamsReused = 0;
    std::uint64_t arenaRefsGenerated = 0;
    double arenaGenSeconds = 0.0;
    std::size_t arenaBytes = 0;
    ///@}

    /** Per-job telemetry, in submission order. */
    std::vector<SweepJobStats> perJob;

    /** End-to-end sweep throughput (all workers combined). */
    double refsPerSecond() const;
};

/**
 * Per-point completion callback: (submission index, outcome).
 * Always invoked on the calling thread, in submission order, as
 * results are gathered -- so it may write to shared state (progress
 * lines, JSON dumps) without locking.  The outcome is mutable so the
 * callback can downgrade a point to Degraded (e.g. its stats dump
 * could not be written) before the sweep journals it and counts
 * dispositions.
 */
using SweepProgress =
    std::function<void(std::size_t, SweepOutcome &)>;

/**
 * Worker count used when runSweep is called with workers == 0:
 * GAAS_BENCH_JOBS if it parses strictly as a positive integer that
 * fits an unsigned (anything else -- trailing garbage, overflow,
 * zero -- warns and is ignored), else hardware_concurrency (floor 1).
 */
unsigned sweepWorkers();

/**
 * Run one job (build its workload, simulate, return the result).
 * This is the exact function the pool workers execute, exposed so
 * tests can compare serial against pooled execution.
 *
 * @param stats if non-null, filled with the job's build/sim phase
 *        seconds (queueWaitSeconds and worker are left untouched;
 *        the pool owns those)
 */
SimResult runSweepJob(const SweepJob &job,
                      SweepJobStats *stats = nullptr);

/**
 * runSweepJob with the fault fence around it: any throw becomes a
 * Failed outcome (code + message) instead of escaping.  This is the
 * unit of work both the in-process pool and the multi-process
 * worker children (proc/executor.hh) execute.
 */
SweepOutcome runSweepJobIsolated(const SweepJob &job,
                                 SweepJobStats *stats = nullptr);

/**
 * @name Cooperative sweep cancellation
 *
 * requestSweepCancel() is async-signal-safe (a single relaxed
 * atomic store): the bench harness calls it from its SIGTERM/SIGINT
 * handlers.  Once set, every sweep executor -- serial, pooled and
 * multi-process -- stops *starting* jobs: in-flight simulations
 * drain normally, and each not-yet-started point becomes a Failed
 * outcome with ErrorCode::Cancelled (never journaled, so a resumed
 * run re-simulates it).  clearSweepCancel() re-arms; tests use it.
 */
///@{
void requestSweepCancel();
void clearSweepCancel();
bool sweepCancelRequested();
/** The Failed/Cancelled outcome a drained job reports. */
SweepOutcome cancelledOutcome(const SweepJob &job);
///@}

/**
 * Run @p jobs across @p workers threads (0 = sweepWorkers()) with
 * per-job fault isolation: a job that throws becomes a Failed
 * outcome carrying the error's code and message, and every other
 * point still runs to completion.
 *
 * With a @p journal (opened by the caller), points whose key is
 * already journaled as Ok/Degraded are reused without simulating
 * (reused = true, zero sim seconds); Failed and missing points are
 * re-simulated.  Every freshly simulated point is appended to the
 * journal -- after @p progress ran, so a Degraded downgrade is
 * recorded -- and an append failure downgrades the point instead of
 * aborting the sweep.
 *
 * @param stats filled with wall-clock/throughput totals, disposition
 *        counts and per-job telemetry if non-null
 * @param progress invoked once per job, in submission order, on the
 *        calling thread
 * @return one SweepOutcome per job, in submission order;
 *         bit-identical to running the jobs serially (host timing
 *         fields excepted)
 */
std::vector<SweepOutcome>
runSweepOutcomes(const std::vector<SweepJob> &jobs,
                 unsigned workers = 0, SweepStats *stats = nullptr,
                 const SweepProgress &progress = {},
                 RunJournal *journal = nullptr);

/**
 * Compatibility wrapper over runSweepOutcomes: returns the bare
 * results and rethrows the first failure (as SimError) after the
 * whole sweep drained.
 */
std::vector<SimResult> runSweep(const std::vector<SweepJob> &jobs,
                                unsigned workers = 0,
                                SweepStats *stats = nullptr,
                                const SweepProgress &progress = {});

} // namespace gaas::core

#endif // GAAS_CORE_SWEEP_HH
