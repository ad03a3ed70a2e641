/**
 * @file
 * benchspeed: the perf-trajectory instrument.
 *
 * Times one pinned Fig. 6-shaped ladder (7 L2 sizes x 4
 * organisations, the paper's heaviest sweep) twice in one process --
 * first with the trace arena disabled (per-job generators, the
 * pre-arena behaviour), then with it enabled -- and writes the
 * comparison to a JSON file (`BENCH_6.json` by default) so the
 * repository's performance can be tracked run over run:
 *
 *   wall seconds and refs/s for both modes, a per-phase breakdown
 *   (refs/s per L2 organisation of the ladder, from the sweep's
 *   per-job telemetry), the arena's stream hit rate / generation
 *   seconds / byte footprint, and the end-to-end speedup.
 *
 * The two modes must also be *correct* relative to each other: every
 * point's full stats dump is byte-compared across modes and any
 * difference is a hard failure.  `--smoke` shrinks the budgets to CI
 * scale and asserts only the invariants (arena reuse happened, modes
 * byte-identical) -- never absolute times.  `--floor REFS` turns the
 * arena-on refs/s into a hard assertion: below the floor the exit
 * status is nonzero, so the ctest `perfsmoke` label catches a silent
 * hot-path regression (the floor is generous -- a fraction of the
 * recorded rate -- so host noise does not flake the suite).
 *
 * `--sample` switches to the sampled-simulation benchmark instead:
 * the same ladder runs once at full detail and once under the
 * SMARTS-style sampling controller (core/sampling.hh), every sampled
 * point's CPI is checked against its own 95% confidence interval
 * around the full-detail value (a hard failure outside it, except in
 * --smoke whose intervals are too few to promise coverage), and the
 * wall-clock/speedup comparison goes to `BENCH_7.json` -- the
 * sampled ladder's refs/s recorded next to the full-detail floor.
 *
 * `--mproc` benchmarks the multi-process sweep executor instead:
 * the same ladder runs on the in-process thread pool and across
 * forked worker processes (proc/executor.hh, same worker count),
 * as seven back-to-back pairs, every point's stats dump is
 * byte-compared within each pair (the executor's bit-identity
 * contract), and the pair with the median overhead -- worker
 * count, respawns, requeues, and the process mode's overhead
 * percentage -- goes to `BENCH_8.json`.
 * `--overhead PCT` makes that overhead a hard assertion, the
 * perfsmoke guard that cross-process sharding stays cheap.
 *
 * `--stream` benchmarks trace-file ingestion instead: it encodes a
 * multi-gigareference workload into v3 trace files (tracepack's
 * format, one file per process), measures the raw streaming decode
 * rate, then simulates one pinned configuration twice -- replaying
 * the files from the in-memory arena and through the bounded-memory
 * StreamSource -- byte-compares the two stats dumps, and writes
 * encode/drain/simulate throughput to `BENCH_9.json`.  `--grefs G`
 * sizes the workload in billions of references (default 2.5, the
 * paper's regime); `--ratio R` makes the streaming-vs-arena
 * simulation throughput ratio a hard assertion (the
 * perfsmoke.stream-floor guard).
 *
 * Every document also records `calibration_refs_per_second` -- the
 * rate of one pinned single-thread synthetic-generator drain -- and
 * each mode's `machine_relative` rate (mode refs/s divided by the
 * calibration), so numbers from different hosts compare directly
 * (cf. BENCH_5 vs BENCH_6, recorded on different machines).
 * `floor_refs_per_second` only appears when --floor was actually
 * enforced.
 *
 * Usage: benchspeed [--smoke] [--sample | --mproc | --stream]
 *                   [--out FILE] [--floor REFS] [--overhead PCT]
 *                   [--grefs G] [--ratio R]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/sampling.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "proc/executor.hh"
#include "synth/suite.hh"
#include "trace/arena.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/file_io.hh"

namespace
{

using namespace gaas;

/** The ladder's organisation axis, in emission order: point i
 *  belongs to organisation i % kOrgCount.  These are the "phases" of
 *  the per-phase breakdown. */
constexpr const char *kOrgNames[] = {"unified-1w", "unified-2w",
                                     "split-1w", "split-2w"};
constexpr std::size_t kOrgCount =
    sizeof(kOrgNames) / sizeof(kOrgNames[0]);

/** The pinned ladder: Fig. 6's 28 configurations. */
std::vector<core::SweepJob>
ladder(Count instructions, Count warmup, unsigned mp_level)
{
    struct Org
    {
        core::L2Org org;
        unsigned assoc;
        Cycles accessTime;
    };
    const Org orgs[kOrgCount] = {
        {core::L2Org::Unified, 1, 6},
        {core::L2Org::Unified, 2, 7},
        {core::L2Org::LogicalSplit, 1, 6},
        {core::L2Org::LogicalSplit, 2, 7},
    };
    std::vector<core::SweepJob> jobs;
    for (std::uint64_t size = 16 * 1024; size <= 1024 * 1024;
         size *= 2) {
        for (std::size_t o = 0; o < kOrgCount; ++o) {
            core::SweepJob job;
            job.config = core::afterWritePolicy();
            job.config.name = "l2-" +
                              std::to_string(size / 1024) + "k-" +
                              kOrgNames[o];
            job.config.l2Org = orgs[o].org;
            job.config.l2.cache.sizeWords = size;
            job.config.l2.cache.assoc = orgs[o].assoc;
            job.config.l2.accessTime = orgs[o].accessTime;
            job.mpLevel = mp_level;
            job.instructions = instructions;
            job.warmup = warmup;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** One organisation's slice of a mode run. */
struct PhaseStat
{
    Count refs = 0;          //!< measured references simulated
    double simSeconds = 0.0; //!< sum of per-job sim seconds

    double refsPerSecond() const
    {
        return simSeconds > 0.0
                   ? static_cast<double>(refs) / simSeconds
                   : 0.0;
    }
};

struct ModeRun
{
    double wallSeconds = 0.0;
    double refsPerSecond = 0.0;
    core::SweepStats stats;
    std::vector<std::string> dumps; //!< per-point stats text
    std::vector<core::SimResult> results; //!< per-point results
    std::array<PhaseStat, kOrgCount> phases{};
};

ModeRun
runMode(const std::vector<core::SweepJob> &jobs, bool arena_on,
        unsigned mproc_workers = 0)
{
    if (arena_on)
        ::unsetenv("GAAS_BENCH_ARENA");
    else
        ::setenv("GAAS_BENCH_ARENA", "0", 1);

    ModeRun run;
    std::vector<core::SweepOutcome> outcomes;
    if (mproc_workers > 0) {
        proc::MprocOptions opts;
        opts.workers = mproc_workers;
        outcomes = proc::runSweepMproc(jobs, opts, &run.stats);
    } else {
        outcomes = core::runSweepOutcomes(jobs, 0, &run.stats);
    }
    run.wallSeconds = run.stats.wallSeconds;
    run.refsPerSecond = run.stats.refsPerSecond();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto &out = outcomes[i];
        if (out.status == core::PointStatus::Failed) {
            std::cerr << "benchspeed: point '"
                      << out.result.configName << "' failed: "
                      << out.error << "\n";
            std::exit(1);
        }
        PhaseStat &phase = run.phases[i % kOrgCount];
        phase.refs += out.result.references();
        if (i < run.stats.perJob.size())
            phase.simSeconds += run.stats.perJob[i].simSeconds;
        std::ostringstream os;
        core::dumpStats(out.result, os);
        run.dumps.push_back(os.str());
        run.results.push_back(out.result);
    }
    return run;
}

obs::JsonValue
num(double v)
{
    return obs::JsonValue::number(v);
}

/**
 * The machine yardstick: drain one pinned single-thread synthetic
 * benchmark (suite entry 0, 2M instructions) and return its refs/s.
 * The workload is deterministic and identical on every host, so
 * `mode rate / calibration rate` compares across machines where the
 * absolute rates do not.
 */
double
calibrationRefsPerSecond()
{
    synth::BenchmarkSpec spec = synth::defaultSuite()[0];
    spec.simInstructions = 2'000'000;
    auto src = synth::makeBenchmark(spec);
    constexpr std::size_t kBatch = 1u << 14;
    std::vector<trace::MemRef> buf(kBatch);
    std::uint64_t n = 0;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        const std::size_t got = src->nextBatch(buf.data(), kBatch);
        n += got;
        if (got < kBatch)
            break;
    }
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return secs > 0.0 ? static_cast<double>(n) / secs : 0.0;
}

/**
 * Common rate-context members of every document: the enforced floor
 * (only when one was actually enforced -- an unset floor used to be
 * recorded as a misleading 0) and the calibration rate.
 */
void
emitRateContext(obs::JsonValue &doc, double floor_refs,
                double calibration)
{
    if (floor_refs > 0.0)
        doc.members.emplace_back("floor_refs_per_second",
                                 num(floor_refs));
    doc.members.emplace_back("calibration_refs_per_second",
                             num(calibration));
}

/** @return refs/s scaled by the calibration yardstick (0-safe). */
double
machineRelative(double refs_per_second, double calibration)
{
    return calibration > 0.0 ? refs_per_second / calibration : 0.0;
}

/** Peak resident set size (VmHWM) in KiB, or 0 if unavailable. */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/** The per-phase breakdown of one mode, as a JSON array. */
obs::JsonValue
phasesJson(const ModeRun &run, std::size_t points_per_phase)
{
    obs::JsonValue arr = obs::JsonValue::array();
    for (std::size_t o = 0; o < kOrgCount; ++o) {
        const PhaseStat &p = run.phases[o];
        obs::JsonValue one = obs::JsonValue::object();
        one.members.emplace_back(
            "organisation", obs::JsonValue::string(kOrgNames[o]));
        one.members.emplace_back(
            "points", num(static_cast<double>(points_per_phase)));
        one.members.emplace_back(
            "references", num(static_cast<double>(p.refs)));
        one.members.emplace_back("sim_seconds",
                                 num(p.simSeconds));
        one.members.emplace_back("refs_per_second",
                                 num(p.refsPerSecond()));
        arr.items.push_back(std::move(one));
    }
    return arr;
}

/**
 * The --sample benchmark: full-detail vs sampled ladder, CPI-vs-CI
 * cross-check, BENCH_7.json.  Returns the process exit code.
 */
int
runSampleBench(bool smoke, std::string outPath, double floorRefs,
               double calibration)
{
    if (outPath.empty())
        outPath = "BENCH_7.json";

    // The real fig6 budget (Sweep::addScaled factor 4 over the
    // 4M-instruction default): the speedup claim is about the
    // figure the paper reproduction actually runs.
    const Count instructions = smoke ? 200'000 : 16'000'000;
    const Count warmup = smoke ? 20'000 : 8'000'000;
    const unsigned mp = smoke ? 4 : 8;
    auto jobs = ladder(instructions, warmup, mp);

    core::SamplingConfig plan;
    plan.enabled = true;
    if (smoke) {
        plan.measureInstructions = 2'000;
        plan.headInstructions = 4'000;
        plan.warmInstructions = 6'000;
        plan.minIntervals = 4;
        plan.maxIntervals = 8;
    }

    std::cout << "benchspeed --sample: " << jobs.size()
              << "-point fig6 ladder, " << instructions
              << " instructions + " << warmup << " warmup, mp "
              << mp << ", " << core::sweepWorkers()
              << " worker(s)\n";

    const ModeRun full = runMode(jobs, true);
    std::cout << "  full detail: " << full.wallSeconds
              << " s wall, " << full.refsPerSecond << " refs/s\n";

    for (auto &job : jobs)
        job.sampling = plan;
    const ModeRun sampled = runMode(jobs, true);
    std::cout << "  sampled:     " << sampled.wallSeconds
              << " s wall, " << sampled.refsPerSecond
              << " measured refs/s\n";

    int rc = 0;
    std::size_t inside = 0, fallbacks = 0;
    obs::JsonValue pointsJson = obs::JsonValue::array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const core::SimResult &f = full.results[i];
        const core::SimResult &s = sampled.results[i];
        const double err = s.sampling.cpiMean - f.cpi();
        const bool within =
            std::abs(err) <= s.sampling.cpiHalfWidth;
        if (!s.sampling.enabled()) {
            std::cerr << "benchspeed: FAIL: point '" << f.configName
                      << "' did not run sampled\n";
            rc = 1;
        } else if (s.sampling.intervals == 0) {
            ++fallbacks; // exact full-detail fallback: trivially ok
            ++inside;
        } else if (within) {
            ++inside;
        } else if (!smoke) {
            std::cerr << "benchspeed: FAIL: point '" << f.configName
                      << "' full-detail cpi " << f.cpi()
                      << " outside sampled " << s.sampling.cpiMean
                      << " +/- " << s.sampling.cpiHalfWidth << "\n";
            rc = 1;
        }
        obs::JsonValue one = obs::JsonValue::object();
        one.members.emplace_back(
            "config", obs::JsonValue::string(f.configName));
        one.members.emplace_back("full_cpi", num(f.cpi()));
        one.members.emplace_back("sampled_cpi",
                                 num(s.sampling.cpiMean));
        one.members.emplace_back("half_width",
                                 num(s.sampling.cpiHalfWidth));
        one.members.emplace_back(
            "intervals",
            num(static_cast<double>(s.sampling.intervals)));
        one.members.emplace_back("within_ci", num(within ? 1 : 0));
        pointsJson.items.push_back(std::move(one));
    }
    std::cout << "  within CI: " << inside << "/" << jobs.size()
              << " (" << fallbacks << " full-detail fallback(s))\n";

    if (floorRefs > 0.0 && full.refsPerSecond < floorRefs) {
        std::cerr << "benchspeed: FAIL: full-detail rate "
                  << full.refsPerSecond
                  << " refs/s is below the floor " << floorRefs
                  << " refs/s\n";
        rc = 1;
    }

    const double speedup =
        sampled.wallSeconds > 0.0
            ? full.wallSeconds / sampled.wallSeconds
            : 0.0;
    if (!smoke && speedup < 10.0) {
        std::cerr << "benchspeed: FAIL: sampled ladder speedup "
                  << speedup << "x is below the 10x target\n";
        rc = 1;
    }

    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back(
        "benchmark",
        obs::JsonValue::string("fig6-ladder-sampled"));
    doc.members.emplace_back("smoke", num(smoke ? 1 : 0));
    doc.members.emplace_back(
        "points", num(static_cast<double>(jobs.size())));
    doc.members.emplace_back(
        "instructions_per_point",
        num(static_cast<double>(instructions)));
    doc.members.emplace_back(
        "warmup_per_point", num(static_cast<double>(warmup)));
    doc.members.emplace_back("mp_level",
                             num(static_cast<double>(mp)));
    doc.members.emplace_back(
        "workers", num(static_cast<double>(full.stats.workers)));
    emitRateContext(doc, floorRefs, calibration);

    obs::JsonValue fullJson = obs::JsonValue::object();
    fullJson.members.emplace_back("wall_seconds",
                                  num(full.wallSeconds));
    fullJson.members.emplace_back("refs_per_second",
                                  num(full.refsPerSecond));
    fullJson.members.emplace_back(
        "machine_relative",
        num(machineRelative(full.refsPerSecond, calibration)));
    doc.members.emplace_back("full_detail", std::move(fullJson));

    obs::JsonValue sampJson = obs::JsonValue::object();
    sampJson.members.emplace_back("wall_seconds",
                                  num(sampled.wallSeconds));
    sampJson.members.emplace_back("measured_refs_per_second",
                                  num(sampled.refsPerSecond));
    sampJson.members.emplace_back(
        "measure_instructions",
        num(static_cast<double>(plan.measureInstructions)));
    sampJson.members.emplace_back(
        "warm_instructions",
        num(static_cast<double>(plan.warmInstructions)));
    sampJson.members.emplace_back("target_rel_half_width",
                                  num(plan.targetRelHalfWidth));
    sampJson.members.emplace_back(
        "points_within_ci", num(static_cast<double>(inside)));
    sampJson.members.emplace_back(
        "fallback_points", num(static_cast<double>(fallbacks)));
    doc.members.emplace_back("sampled", std::move(sampJson));

    doc.members.emplace_back("per_point", std::move(pointsJson));
    doc.members.emplace_back("speedup", num(speedup));

    std::string error;
    if (!util::writeFileAtomicRetry(
            outPath, obs::writeJsonString(doc) + "\n", &error)) {
        std::cerr << "benchspeed: cannot write " << outPath << ": "
                  << error << "\n";
        rc = 1;
    } else {
        std::cout << "  speedup " << speedup << "x -> " << outPath
                  << "\n";
    }
    return rc;
}

/**
 * The --mproc benchmark: thread pool vs forked worker processes on
 * the pinned ladder, byte-identity cross-check, BENCH_8.json.
 * Returns the process exit code.
 */
int
runMprocBench(bool smoke, std::string outPath, double floorRefs,
              double maxOverheadPct, double calibration)
{
    if (outPath.empty())
        outPath = "BENCH_8.json";

    const Count instructions = smoke ? 20'000 : 1'000'000;
    const Count warmup = smoke ? 5'000 : 500'000;
    const unsigned mp = smoke ? 4 : 8;
    const auto jobs = ladder(instructions, warmup, mp);
    const unsigned workers = core::sweepWorkers();

    std::cout << "benchspeed --mproc: " << jobs.size()
              << "-point fig6 ladder, " << instructions
              << " instructions + " << warmup << " warmup, mp "
              << mp << ", " << workers << " worker(s)\n";

    // An untimed warmup pass materializes every arena stream (and
    // faults in the code paths), so both timed modes below replay
    // the same warm streams and the overhead number isolates the
    // process machinery (fork, pipes, result re-encoding) -- which
    // is exactly what the overhead assertion is about.
    (void)runMode(jobs, true);
    // One sub-second threads-vs-processes comparison swings by tens
    // of percent either way on a shared host, so the modes are timed
    // kRepeats times as back-to-back pairs and the pair with the
    // median overhead is reported.  Every process run is checked
    // against the thread run it was paired with.
    constexpr std::size_t kRepeats = 7;
    std::vector<std::pair<ModeRun, ModeRun>> pairs;
    int rc = 0;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        ModeRun thr = runMode(jobs, true);
        ModeRun prc = runMode(jobs, true, workers);
        if (!prc.stats.mproc) {
            std::cerr << "benchspeed: FAIL: the process run did not "
                         "use the multi-process executor\n";
            rc = 1;
        }
        if (thr.dumps != prc.dumps) {
            for (std::size_t i = 0; i < thr.dumps.size(); ++i) {
                if (thr.dumps[i] != prc.dumps[i])
                    std::cerr << "benchspeed: FAIL: point " << i
                              << " ('" << jobs[i].config.name
                              << "') differs between threads and "
                                 "processes\n";
            }
            rc = 1;
        }
        if (prc.stats.workerRespawns != 0 ||
            prc.stats.requeuedJobs != 0) {
            std::cerr << "benchspeed: FAIL: fault-free ladder "
                         "respawned "
                      << prc.stats.workerRespawns
                      << " worker(s) / requeued "
                      << prc.stats.requeuedJobs << " job(s)\n";
            rc = 1;
        }
        pairs.emplace_back(std::move(thr), std::move(prc));
    }
    const auto ratio = [](const std::pair<ModeRun, ModeRun> &pr) {
        return pr.first.wallSeconds > 0.0
                   ? pr.second.wallSeconds / pr.first.wallSeconds
                   : 1.0;
    };
    std::sort(pairs.begin(), pairs.end(),
              [&](const auto &x, const auto &y) {
                  return ratio(x) < ratio(y);
              });
    const ModeRun &threads = pairs[kRepeats / 2].first;
    const ModeRun &procs = pairs[kRepeats / 2].second;
    std::cout << "  threads:   " << threads.wallSeconds
              << " s wall, " << threads.refsPerSecond
              << " refs/s (median of " << kRepeats << " pairs)\n";
    std::cout << "  processes: " << procs.wallSeconds
              << " s wall, " << procs.refsPerSecond << " refs/s, "
              << procs.stats.workerRespawns << " respawn(s), "
              << procs.stats.requeuedJobs << " requeue(s)\n";

    if (floorRefs > 0.0 && procs.refsPerSecond < floorRefs) {
        std::cerr << "benchspeed: FAIL: process-mode rate "
                  << procs.refsPerSecond
                  << " refs/s is below the floor " << floorRefs
                  << " refs/s\n";
        rc = 1;
    }

    const double overheadPct =
        threads.wallSeconds > 0.0
            ? (procs.wallSeconds - threads.wallSeconds) /
                  threads.wallSeconds * 100.0
            : 0.0;
    std::cout << "  overhead: " << overheadPct << " %\n";
    if (maxOverheadPct > 0.0 && overheadPct > maxOverheadPct) {
        std::cerr << "benchspeed: FAIL: multi-process overhead "
                  << overheadPct << " % exceeds the "
                  << maxOverheadPct << " % budget\n";
        rc = 1;
    }

    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back(
        "benchmark", obs::JsonValue::string("fig6-ladder-mproc"));
    doc.members.emplace_back("smoke", num(smoke ? 1 : 0));
    doc.members.emplace_back(
        "points", num(static_cast<double>(jobs.size())));
    doc.members.emplace_back(
        "instructions_per_point",
        num(static_cast<double>(instructions)));
    doc.members.emplace_back(
        "warmup_per_point", num(static_cast<double>(warmup)));
    doc.members.emplace_back("mp_level",
                             num(static_cast<double>(mp)));
    doc.members.emplace_back("workers",
                             num(static_cast<double>(workers)));
    doc.members.emplace_back("max_overhead_pct",
                             num(maxOverheadPct));
    emitRateContext(doc, floorRefs, calibration);

    obs::JsonValue thr = obs::JsonValue::object();
    thr.members.emplace_back("wall_seconds",
                             num(threads.wallSeconds));
    thr.members.emplace_back("refs_per_second",
                             num(threads.refsPerSecond));
    thr.members.emplace_back(
        "machine_relative",
        num(machineRelative(threads.refsPerSecond, calibration)));
    doc.members.emplace_back("threads", std::move(thr));

    obs::JsonValue prc = obs::JsonValue::object();
    prc.members.emplace_back("wall_seconds",
                             num(procs.wallSeconds));
    prc.members.emplace_back("refs_per_second",
                             num(procs.refsPerSecond));
    prc.members.emplace_back(
        "machine_relative",
        num(machineRelative(procs.refsPerSecond, calibration)));
    prc.members.emplace_back(
        "worker_processes",
        num(static_cast<double>(procs.stats.workers)));
    prc.members.emplace_back(
        "worker_respawns",
        num(static_cast<double>(procs.stats.workerRespawns)));
    prc.members.emplace_back(
        "requeued_jobs",
        num(static_cast<double>(procs.stats.requeuedJobs)));
    doc.members.emplace_back("mproc", std::move(prc));

    doc.members.emplace_back("overhead_pct", num(overheadPct));

    std::string error;
    if (!util::writeFileAtomicRetry(
            outPath, obs::writeJsonString(doc) + "\n", &error)) {
        std::cerr << "benchspeed: cannot write " << outPath << ": "
                  << error << "\n";
        rc = 1;
    } else {
        std::cout << "  overhead " << overheadPct << " % -> "
                  << outPath << "\n";
    }
    return rc;
}

/**
 * The --stream benchmark: encode a multi-gigareference workload
 * into v3 trace files, measure raw streaming decode, then simulate
 * one pinned configuration from the arena and through StreamSource,
 * byte-compare, and write BENCH_9.json.  Returns the process exit
 * code.
 */
int
runStreamBench(bool smoke, std::string outPath, double grefs,
               double ratioFloor, double calibration)
{
    if (outPath.empty())
        outPath = "BENCH_9.json";

    // One file per process of the multiprogramming workload.  File
    // sizes follow the scheduler's instruction shares (speed-
    // proportional, like Workload::standard's refHint) with 10%
    // slack, so most files last the whole run without wrapping --
    // though wrapping would be bit-identical too (LoopSource).
    const unsigned files = smoke ? 2 : 8;
    const double targetRefs = smoke ? 4.0e6 : grefs * 1e9;
    auto specs = synth::workloadSpecs(files);

    double invSum = 0.0;
    double minRpi = 10.0;
    for (const auto &s : specs) {
        invSum += 1.0 / s.baseCpi;
        minRpi =
            std::min(minRpi, 1.0 + s.loadFrac + s.storeFrac);
    }
    // Simulation budget sized so the measured run consumes at least
    // targetRefs references even if every instruction landed in the
    // lowest-refs-per-instruction process (2% margin on top).
    const Count totalInstr =
        static_cast<Count>(targetRefs / minRpi * 1.02);

    std::cout << "benchspeed --stream: " << files
              << " trace file(s), target "
              << static_cast<std::uint64_t>(targetRefs)
              << " references, " << totalInstr
              << " simulated instructions\n";

    // Encode phase: synth generator -> v3, one file per process.
    std::vector<std::string> paths;
    std::uint64_t encRecords = 0;
    std::uint64_t encBytes = 0;
    const auto encStart = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < files; ++i) {
        synth::BenchmarkSpec spec = specs[i];
        const double share = (1.0 / spec.baseCpi) / invSum;
        spec.simInstructions = static_cast<Count>(
            share * static_cast<double>(totalInstr) * 1.1);
        const std::string path = "benchspeed-stream-" +
                                 std::to_string(i) + ".v3";
        auto src = synth::makeBenchmark(spec);
        trace::TraceV3Writer writer(path);
        encRecords += writer.writeAll(*src);
        writer.close();
        if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
            const std::int64_t sz = util::fileSizeBytes(f);
            encBytes += sz > 0 ? static_cast<std::uint64_t>(sz) : 0;
            std::fclose(f);
        }
        paths.push_back(path);
    }
    const double encSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - encStart)
            .count();
    const double encRate =
        encSeconds > 0.0
            ? static_cast<double>(encRecords) / encSeconds
            : 0.0;
    std::cout << "  encode: " << encRecords << " records, "
              << encBytes << " bytes ("
              << (encRecords
                      ? static_cast<double>(encBytes) /
                            static_cast<double>(encRecords)
                      : 0.0)
              << " B/record) in " << encSeconds << " s = "
              << encRate << " refs/s\n";

    // Drain phase: raw streaming decode rate of the first file
    // (packed batches, default memory ceiling), no simulator.
    double drainRate = 0.0;
    std::size_t drainSlots = 0;
    std::size_t drainBytes = 0;
    {
        trace::StreamSource drain(paths[0]);
        drainSlots = drain.slotCount();
        drainBytes = drain.bufferBytes();
        constexpr std::size_t kBatch = 1u << 14;
        std::vector<std::uint32_t> buf(kBatch);
        std::uint64_t n = 0;
        const auto start = std::chrono::steady_clock::now();
        for (;;) {
            const std::size_t got =
                drain.nextBatchPacked(buf.data(), kBatch);
            n += got;
            if (got < kBatch)
                break;
        }
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        drainRate = secs > 0.0
                        ? static_cast<double>(n) / secs
                        : 0.0;
        std::cout << "  drain:  " << n << " records at "
                  << drainRate << " refs/s (" << drainSlots
                  << " slots, " << drainBytes
                  << " buffer bytes)\n";
    }

    // Simulate phase: one pinned fig6 configuration over the trace
    // files, streamed first (so the RSS high-water mark below is
    // the bounded-memory pipeline's, not the arena's), then from
    // the in-memory arena.
    core::SweepJob job;
    job.config = core::afterWritePolicy();
    job.config.name = "l2-256k-unified-1w";
    job.config.l2Org = core::L2Org::Unified;
    job.config.l2.cache.sizeWords = 256 * 1024;
    job.config.l2.cache.assoc = 1;
    job.config.l2.accessTime = 6;
    job.instructions = totalInstr;
    job.warmup = 0;
    job.traceFiles = paths;

    job.traceStreaming = true;
    const ModeRun stream = runMode({job}, true);
    const std::uint64_t streamRssKb = peakRssKb();
    std::cout << "  stream: " << stream.wallSeconds << " s wall, "
              << stream.refsPerSecond << " refs/s (peak RSS "
              << streamRssKb << " KiB)\n";

    job.traceStreaming = false;
    const ModeRun arena = runMode({job}, true);
    std::cout << "  arena:  " << arena.wallSeconds << " s wall, "
              << arena.refsPerSecond << " refs/s\n";

    int rc = 0;
    if (stream.dumps != arena.dumps) {
        std::cerr << "benchspeed: FAIL: streamed and in-memory "
                     "replay produced different stats dumps\n";
        rc = 1;
    }
    const auto streamRefs =
        static_cast<double>(stream.results[0].references());
    if (!smoke && streamRefs < targetRefs) {
        std::cerr << "benchspeed: FAIL: streamed run consumed "
                  << streamRefs << " references, below the "
                  << targetRefs << " target\n";
        rc = 1;
    }
    const double ratio =
        arena.refsPerSecond > 0.0
            ? stream.refsPerSecond / arena.refsPerSecond
            : 0.0;
    std::cout << "  streaming sustains " << ratio * 100.0
              << " % of arena replay\n";
    if (ratioFloor > 0.0 && ratio < ratioFloor) {
        std::cerr << "benchspeed: FAIL: streaming/arena ratio "
                  << ratio << " is below the floor " << ratioFloor
                  << "\n";
        rc = 1;
    }

    for (const std::string &path : paths)
        std::remove(path.c_str());

    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back(
        "benchmark", obs::JsonValue::string("trace-stream"));
    doc.members.emplace_back("smoke", num(smoke ? 1 : 0));
    doc.members.emplace_back("files",
                             num(static_cast<double>(files)));
    doc.members.emplace_back("target_references",
                             num(targetRefs));
    doc.members.emplace_back(
        "instructions", num(static_cast<double>(totalInstr)));
    if (ratioFloor > 0.0)
        doc.members.emplace_back("ratio_floor", num(ratioFloor));
    emitRateContext(doc, 0.0, calibration);

    obs::JsonValue enc = obs::JsonValue::object();
    enc.members.emplace_back(
        "records", num(static_cast<double>(encRecords)));
    enc.members.emplace_back("bytes",
                             num(static_cast<double>(encBytes)));
    enc.members.emplace_back(
        "bytes_per_record",
        num(encRecords ? static_cast<double>(encBytes) /
                             static_cast<double>(encRecords)
                       : 0.0));
    enc.members.emplace_back("seconds", num(encSeconds));
    enc.members.emplace_back("refs_per_second", num(encRate));
    doc.members.emplace_back("encode", std::move(enc));

    obs::JsonValue drn = obs::JsonValue::object();
    drn.members.emplace_back("refs_per_second", num(drainRate));
    drn.members.emplace_back(
        "machine_relative",
        num(machineRelative(drainRate, calibration)));
    drn.members.emplace_back(
        "slots", num(static_cast<double>(drainSlots)));
    drn.members.emplace_back(
        "buffer_bytes", num(static_cast<double>(drainBytes)));
    doc.members.emplace_back("drain", std::move(drn));

    obs::JsonValue sim = obs::JsonValue::object();
    sim.members.emplace_back(
        "config", obs::JsonValue::string(job.config.name));
    sim.members.emplace_back("references", num(streamRefs));

    obs::JsonValue str = obs::JsonValue::object();
    str.members.emplace_back("wall_seconds",
                             num(stream.wallSeconds));
    str.members.emplace_back("refs_per_second",
                             num(stream.refsPerSecond));
    str.members.emplace_back(
        "machine_relative",
        num(machineRelative(stream.refsPerSecond, calibration)));
    str.members.emplace_back(
        "peak_rss_kb", num(static_cast<double>(streamRssKb)));
    sim.members.emplace_back("stream", std::move(str));

    obs::JsonValue arn = obs::JsonValue::object();
    arn.members.emplace_back("wall_seconds",
                             num(arena.wallSeconds));
    arn.members.emplace_back("refs_per_second",
                             num(arena.refsPerSecond));
    arn.members.emplace_back(
        "machine_relative",
        num(machineRelative(arena.refsPerSecond, calibration)));
    sim.members.emplace_back("arena", std::move(arn));

    sim.members.emplace_back("stream_to_arena_ratio", num(ratio));
    doc.members.emplace_back("simulate", std::move(sim));

    std::string error;
    if (!util::writeFileAtomicRetry(
            outPath, obs::writeJsonString(doc) + "\n", &error)) {
        std::cerr << "benchspeed: cannot write " << outPath << ": "
                  << error << "\n";
        rc = 1;
    } else {
        std::cout << "  ratio " << ratio << " -> " << outPath
                  << "\n";
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool sample = false;
    bool mproc = false;
    bool stream = false;
    std::string outPath;
    double floorRefs = 0.0;
    double overheadPct = 0.0;
    double grefs = 2.5;
    double ratioFloor = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--sample") == 0) {
            sample = true;
        } else if (std::strcmp(argv[i], "--mproc") == 0) {
            mproc = true;
        } else if (std::strcmp(argv[i], "--stream") == 0) {
            stream = true;
        } else if (std::strcmp(argv[i], "--grefs") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            grefs = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || grefs <= 0.0) {
                std::cerr << "benchspeed: --grefs needs a positive "
                             "billions-of-references value, got '"
                          << argv[i] << "'\n";
                return 2;
            }
        } else if (std::strcmp(argv[i], "--ratio") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            ratioFloor = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' ||
                ratioFloor <= 0.0 || ratioFloor > 1.0) {
                std::cerr << "benchspeed: --ratio needs a value in "
                             "(0, 1], got '"
                          << argv[i] << "'\n";
                return 2;
            }
        } else if (std::strcmp(argv[i], "--overhead") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            overheadPct = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' ||
                overheadPct <= 0.0) {
                std::cerr << "benchspeed: --overhead needs a "
                             "positive percentage, got '"
                          << argv[i] << "'\n";
                return 2;
            }
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--floor") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            floorRefs = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' ||
                floorRefs <= 0.0) {
                std::cerr << "benchspeed: --floor needs a positive "
                             "refs/s value, got '"
                          << argv[i] << "'\n";
                return 2;
            }
        } else {
            std::cerr << "usage: benchspeed [--smoke] "
                         "[--sample | --mproc | --stream] "
                         "[--out FILE] [--floor REFS] "
                         "[--overhead PCT] [--grefs G] "
                         "[--ratio R]\n";
            return 2;
        }
    }
    const double calibration = calibrationRefsPerSecond();
    if (sample)
        return runSampleBench(smoke, outPath, floorRefs,
                              calibration);
    if (mproc)
        return runMprocBench(smoke, outPath, floorRefs, overheadPct,
                             calibration);
    if (stream)
        return runStreamBench(smoke, outPath, grefs, ratioFloor,
                              calibration);
    if (outPath.empty())
        outPath = "BENCH_6.json";

    // Pinned budgets: independent of the GAAS_BENCH_* knobs so the
    // numbers are comparable across runs and machines.
    const Count instructions = smoke ? 20'000 : 1'000'000;
    const Count warmup = smoke ? 5'000 : 500'000;
    const unsigned mp = smoke ? 4 : 8;
    const auto jobs = ladder(instructions, warmup, mp);
    const std::size_t pointsPerPhase = jobs.size() / kOrgCount;

    std::cout << "benchspeed: " << jobs.size()
              << "-point fig6 ladder, " << instructions
              << " instructions + " << warmup << " warmup, mp "
              << mp << ", " << core::sweepWorkers()
              << " worker(s)\n";

    // Off first: the arena map is process-global and never evicted,
    // so the on-mode run that follows starts cold and pays its own
    // generation -- the fair comparison.
    const ModeRun off = runMode(jobs, false);
    std::cout << "  arena off: " << off.wallSeconds << " s wall, "
              << off.refsPerSecond << " refs/s\n";
    const ModeRun on = runMode(jobs, true);
    std::cout << "  arena on:  " << on.wallSeconds << " s wall, "
              << on.refsPerSecond << " refs/s, "
              << on.stats.arenaStreamsGenerated << " streams gen / "
              << on.stats.arenaStreamsReused << " reused\n";
    for (std::size_t o = 0; o < kOrgCount; ++o)
        std::cout << "    " << kOrgNames[o] << ": "
                  << on.phases[o].refsPerSecond()
                  << " refs/s over " << pointsPerPhase
                  << " point(s)\n";

    int rc = 0;
    if (off.dumps != on.dumps) {
        for (std::size_t i = 0; i < off.dumps.size(); ++i) {
            if (off.dumps[i] != on.dumps[i])
                std::cerr << "benchspeed: FAIL: point " << i << " ('"
                          << jobs[i].config.name
                          << "') differs between arena on and off\n";
        }
        rc = 1;
    }
    if (on.stats.arenaStreamsReused == 0) {
        std::cerr << "benchspeed: FAIL: arena-on run reused no "
                     "streams (arena path not exercised)\n";
        rc = 1;
    }
    if (floorRefs > 0.0 && on.refsPerSecond < floorRefs) {
        std::cerr << "benchspeed: FAIL: arena-on rate "
                  << on.refsPerSecond << " refs/s is below the floor "
                  << floorRefs << " refs/s\n";
        rc = 1;
    }

    const double speedup = on.wallSeconds > 0.0
                               ? off.wallSeconds / on.wallSeconds
                               : 0.0;
    const double acquisitions =
        static_cast<double>(on.stats.arenaStreamsGenerated +
                            on.stats.arenaStreamsReused);
    const double hitRate =
        acquisitions > 0.0
            ? static_cast<double>(on.stats.arenaStreamsReused) /
                  acquisitions
            : 0.0;

    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back("benchmark",
                             obs::JsonValue::string("fig6-ladder"));
    doc.members.emplace_back("smoke",
                             num(smoke ? 1 : 0));
    doc.members.emplace_back(
        "points", num(static_cast<double>(jobs.size())));
    doc.members.emplace_back(
        "instructions_per_point",
        num(static_cast<double>(instructions)));
    doc.members.emplace_back(
        "warmup_per_point", num(static_cast<double>(warmup)));
    doc.members.emplace_back("mp_level",
                             num(static_cast<double>(mp)));
    doc.members.emplace_back(
        "workers", num(static_cast<double>(off.stats.workers)));
    emitRateContext(doc, floorRefs, calibration);

    obs::JsonValue offJson = obs::JsonValue::object();
    offJson.members.emplace_back("wall_seconds",
                                 num(off.wallSeconds));
    offJson.members.emplace_back("refs_per_second",
                                 num(off.refsPerSecond));
    offJson.members.emplace_back(
        "machine_relative",
        num(machineRelative(off.refsPerSecond, calibration)));
    offJson.members.emplace_back("phases",
                                 phasesJson(off, pointsPerPhase));
    doc.members.emplace_back("arena_off", std::move(offJson));

    obs::JsonValue onJson = obs::JsonValue::object();
    onJson.members.emplace_back("wall_seconds",
                                num(on.wallSeconds));
    onJson.members.emplace_back("refs_per_second",
                                num(on.refsPerSecond));
    onJson.members.emplace_back(
        "machine_relative",
        num(machineRelative(on.refsPerSecond, calibration)));
    onJson.members.emplace_back("phases",
                                phasesJson(on, pointsPerPhase));
    onJson.members.emplace_back(
        "streams_generated",
        num(static_cast<double>(on.stats.arenaStreamsGenerated)));
    onJson.members.emplace_back(
        "streams_reused",
        num(static_cast<double>(on.stats.arenaStreamsReused)));
    onJson.members.emplace_back("stream_hit_rate", num(hitRate));
    onJson.members.emplace_back("gen_seconds",
                                num(on.stats.arenaGenSeconds));
    onJson.members.emplace_back(
        "arena_bytes",
        num(static_cast<double>(on.stats.arenaBytes)));
    doc.members.emplace_back("arena_on", std::move(onJson));

    doc.members.emplace_back("speedup", num(speedup));

    std::string error;
    if (!util::writeFileAtomicRetry(
            outPath, obs::writeJsonString(doc) + "\n", &error)) {
        std::cerr << "benchspeed: cannot write " << outPath << ": "
                  << error << "\n";
        rc = 1;
    } else {
        std::cout << "  speedup " << speedup << "x, hit rate "
                  << hitRate << " -> " << outPath << "\n";
    }
    return rc;
}
