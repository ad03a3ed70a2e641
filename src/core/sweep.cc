#include "sweep.hh"

#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/journal.hh"
#include "obs/metrics.hh"
#include "trace/arena.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace gaas::core
{

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok:
        return "ok";
      case PointStatus::Failed:
        return "failed";
      case PointStatus::Degraded:
        return "degraded";
    }
    return "unknown";
}

bool
parsePointStatus(const std::string &name, PointStatus &out)
{
    for (const PointStatus s :
         {PointStatus::Ok, PointStatus::Failed,
          PointStatus::Degraded}) {
        if (name == pointStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

double
SweepStats::refsPerSecond() const
{
    return wallSeconds > 0.0
               ? static_cast<double>(references) / wallSeconds
               : 0.0;
}

unsigned
sweepWorkers()
{
    const std::uint64_t parsed = envU64("GAAS_BENCH_JOBS", 0);
    if (parsed > std::numeric_limits<unsigned>::max()) {
        warn("ignoring GAAS_BENCH_JOBS=", parsed,
             " (more workers than fit an unsigned)");
    } else if (parsed > 0) {
        return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SimResult
runSweepJob(const SweepJob &job, SweepJobStats *stats)
{
    SweepJobStats local;
    const obs::Stopwatch total;
    // The arena attributes its work to threads; zeroing this thread's
    // slice here scopes the tally to exactly this job (workload build
    // plus any grow-on-demand during the run).
    trace::TraceArena::resetThreadTally();
    SimResult result;
    if (job.sampling.enabled && !job.traceFiles.empty()) {
        // The sampling controller models occupancies from the suite
        // specs' rates, which a trace file does not carry; wiring
        // trace files through it is future work.
        gaas_error(ErrorCode::Config,
                   "sampled simulation over trace-file workloads "
                   "is not supported yet (config '",
                   job.config.name, "')");
    }
    if (job.sampling.enabled && job.workload) {
        // Same reason: the controller cannot check that a custom
        // workload has the suite specs' rates, so it would sample
        // it under the wrong occupancy model.
        gaas_error(ErrorCode::Config,
                   "sampled simulation over a custom workload "
                   "builder is not supported yet (config '",
                   job.config.name, "')");
    }
    if (job.sampling.enabled) {
        // Sampled point: the controller owns workload construction
        // (one per sizing pass), so the whole thing is sim time.
        obs::ScopedTimer timer(local.simSeconds);
        result = runSampled(job.config, job.sampling,
                            job.instructions, job.mpLevel,
                            job.warmup, job.watchdogCycles);
    } else {
        // The simulator is built inside the build phase and run in
        // the sim phase; std::optional lets the two RAII timers
        // bracket construction and execution separately.
        std::optional<Simulator> sim;
        {
            obs::ScopedTimer timer(local.buildSeconds);
            Workload workload =
                job.workload ? job.workload()
                : !job.traceFiles.empty()
                    ? Workload::fromTraceFiles(job.traceFiles,
                                               job.traceStreaming)
                    : Workload::standard(
                          job.mpLevel,
                          job.warmup + job.instructions);
            sim.emplace(job.config, std::move(workload));
            sim->setWatchdogCycles(job.watchdogCycles);
        }
        {
            obs::ScopedTimer timer(local.simSeconds);
            result = sim->run(job.instructions, job.warmup);
        }
    }
    const trace::ArenaTally tally = trace::TraceArena::threadTally();
    if (stats) {
        stats->buildSeconds = local.buildSeconds;
        stats->simSeconds = local.simSeconds;
        stats->totalSeconds = total.seconds();
        stats->arenaStreamsGenerated = tally.streamsGenerated;
        stats->arenaStreamsReused = tally.streamsReused;
        stats->arenaRefsGenerated = tally.refsGenerated;
        stats->arenaGenSeconds = tally.genSeconds;
    }
    return result;
}

namespace
{

/** Cooperative cancel flag; see sweep.hh.  Written from signal
 *  handlers, so it must stay a lone lock-free atomic store. */
std::atomic<bool> cancel_requested{false};

} // namespace

void
requestSweepCancel()
{
    cancel_requested.store(true, std::memory_order_relaxed);
}

void
clearSweepCancel()
{
    cancel_requested.store(false, std::memory_order_relaxed);
}

bool
sweepCancelRequested()
{
    return cancel_requested.load(std::memory_order_relaxed);
}

SweepOutcome
cancelledOutcome(const SweepJob &job)
{
    SweepOutcome out;
    out.status = PointStatus::Failed;
    out.errorCode = ErrorCode::Cancelled;
    out.error = "sweep cancelled before this point started (config '" +
                job.config.name + "')";
    out.result = SimResult{};
    out.result.configName = job.config.name;
    return out;
}

SweepOutcome
runSweepJobIsolated(const SweepJob &job, SweepJobStats *stats)
{
    SweepOutcome out;
    try {
        if (fault::shouldFail("sweep-job")) {
            gaas_error(ErrorCode::Internal,
                       "injected fault: sweep-job (config '",
                       job.config.name, "')");
        }
        out.result = runSweepJob(job, stats);
    } catch (const SimError &e) {
        out.status = PointStatus::Failed;
        out.errorCode = e.code();
        out.error = e.what();
        out.result = SimResult{};
        out.result.configName = job.config.name;
    } catch (const std::exception &e) {
        out.status = PointStatus::Failed;
        out.errorCode = ErrorCode::Internal;
        out.error = e.what();
        out.result = SimResult{};
        out.result.configName = job.config.name;
    }
    return out;
}

std::vector<SweepOutcome>
runSweepOutcomes(const std::vector<SweepJob> &jobs, unsigned workers,
                 SweepStats *stats, const SweepProgress &progress,
                 RunJournal *journal)
{
    if (workers == 0)
        workers = sweepWorkers();

    const obs::Stopwatch wall;
    const std::size_t n = jobs.size();

    // Resolve journal reuse up front so the pool only ever sees the
    // points that actually need simulating.
    std::vector<std::string> keys(n);
    std::vector<const JournalRecord *> reuse(n, nullptr);
    std::size_t to_run = n;
    if (journal) {
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = sweepJobKey(jobs[i]);
            if (keys[i].empty())
                continue;
            const JournalRecord *rec = journal->find(keys[i]);
            if (rec && rec->status != PointStatus::Failed) {
                reuse[i] = rec;
                --to_run;
            }
        }
    }

    std::vector<SweepOutcome> outcomes(n);
    std::vector<SweepJobStats> job_stats(n);

    auto reusedOutcome = [&reuse](std::size_t i) {
        SweepOutcome out;
        out.status = reuse[i]->status;
        out.result = reuse[i]->result;
        out.reused = true;
        return out;
    };

    // Runs on the gathering thread, in submission order: hand the
    // telemetry over, let the caller see (and possibly downgrade)
    // the point, then make it durable.
    auto finalize = [&](std::size_t i, SweepOutcome &out) {
        out.stats = job_stats[i];
        if (progress)
            progress(i, out);
        // Cancelled points are never journaled: they carry no
        // result, and a resumed run must re-simulate them.
        if (journal && !out.reused && !keys[i].empty() &&
            out.errorCode != ErrorCode::Cancelled) {
            JournalRecord rec;
            rec.status = out.status;
            rec.result = out.result;
            rec.errorCode = out.errorCode;
            rec.error = out.error;
            if (!journal->append(keys[i], rec) &&
                out.status == PointStatus::Ok) {
                // The point itself is fine; only its durability is
                // lost.  Never abort a sweep over journal I/O.
                out.status = PointStatus::Degraded;
            }
        }
    };

    if (workers <= 1 || to_run <= 1) {
        // Serial reference path: also the pooled path's ground truth.
        for (std::size_t i = 0; i < n; ++i) {
            outcomes[i] =
                reuse[i] ? reusedOutcome(i)
                : sweepCancelRequested()
                    ? cancelledOutcome(jobs[i])
                    : runSweepJobIsolated(jobs[i], &job_stats[i]);
            finalize(i, outcomes[i]);
        }
    } else {
        ThreadPool pool(workers);
        std::mutex id_mutex;
        std::map<std::thread::id, unsigned> worker_ids;
        std::vector<std::future<SweepOutcome>> futures;
        futures.reserve(to_run);
        for (std::size_t i = 0; i < n; ++i) {
            if (reuse[i])
                continue;
            const SweepJob &job = jobs[i];
            SweepJobStats &slot = job_stats[i];
            const obs::Stopwatch submitted;
            futures.push_back(pool.submit([&job, &slot, &id_mutex,
                                           &worker_ids, submitted] {
                slot.queueWaitSeconds = submitted.seconds();
                {
                    // Dense worker indices, assigned in first-job
                    // order -- stable enough to spot an idle or
                    // overloaded worker in the telemetry.
                    std::lock_guard<std::mutex> lock(id_mutex);
                    slot.worker = static_cast<unsigned>(
                        worker_ids
                            .emplace(std::this_thread::get_id(),
                                     worker_ids.size())
                            .first->second);
                }
                // A cancel drains the queue: jobs already running
                // finish, queued ones return immediately.
                if (sweepCancelRequested())
                    return cancelledOutcome(job);
                return runSweepJobIsolated(job, &slot);
            }));
        }
        // Futures are held in submission order, so gathering them in
        // order restores determinism no matter how the workers
        // interleaved.
        std::size_t next_future = 0;
        for (std::size_t i = 0; i < n; ++i) {
            outcomes[i] = reuse[i] ? reusedOutcome(i)
                                   : futures[next_future++].get();
            finalize(i, outcomes[i]);
        }
    }

    if (stats) {
        stats->jobs = n;
        stats->workers = workers;
        stats->wallSeconds = wall.seconds();
        stats->mproc = false;
        stats->workerRespawns = 0;
        stats->requeuedJobs = 0;
        stats->references = 0;
        stats->okPoints = 0;
        stats->failedPoints = 0;
        stats->degradedPoints = 0;
        stats->reusedPoints = 0;
        for (const auto &out : outcomes) {
            stats->references += out.result.references();
            if (out.status == PointStatus::Failed)
                ++stats->failedPoints;
            else
                ++stats->okPoints;
            if (out.status == PointStatus::Degraded)
                ++stats->degradedPoints;
            if (out.reused)
                ++stats->reusedPoints;
        }
        stats->arenaStreamsGenerated = 0;
        stats->arenaStreamsReused = 0;
        stats->arenaRefsGenerated = 0;
        stats->arenaGenSeconds = 0.0;
        for (const auto &js : job_stats) {
            stats->arenaStreamsGenerated += js.arenaStreamsGenerated;
            stats->arenaStreamsReused += js.arenaStreamsReused;
            stats->arenaRefsGenerated += js.arenaRefsGenerated;
            stats->arenaGenSeconds += js.arenaGenSeconds;
        }
        stats->arenaBytes = trace::TraceArena::global().totalBytes();
        stats->perJob = std::move(job_stats);
    }
    return outcomes;
}

std::vector<SimResult>
runSweep(const std::vector<SweepJob> &jobs, unsigned workers,
         SweepStats *stats, const SweepProgress &progress)
{
    std::vector<SweepOutcome> outcomes =
        runSweepOutcomes(jobs, workers, stats, progress);

    std::vector<SimResult> results;
    results.reserve(outcomes.size());
    const SweepOutcome *first_failed = nullptr;
    for (auto &out : outcomes) {
        if (!first_failed && out.status == PointStatus::Failed)
            first_failed = &out;
        results.push_back(std::move(out.result));
    }
    if (first_failed)
        throw SimError(first_failed->errorCode, first_failed->error);
    return results;
}

} // namespace gaas::core
