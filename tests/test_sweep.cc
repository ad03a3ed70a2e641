/**
 * @file
 * Tests for the parallel sweep engine: results come back in
 * submission order and are bit-identical to serial execution,
 * whatever the worker count; exhaustible (non-looping) workloads and
 * degenerate job lists behave; GAAS_BENCH_JOBS resolves the worker
 * count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/sweep.hh"
#include "core/workload.hh"
#include "trace/source.hh"
#include "util/fault.hh"

namespace gaas::core
{
namespace
{

/**
 * Field-by-field equality of two SimResults, excluding hostSeconds
 * (the one field documented as non-deterministic wall-clock timing).
 */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cpuStallCycles, b.cpuStallCycles);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.syscallSwitches, b.syscallSwitches);

    EXPECT_EQ(a.comp.l1iMiss, b.comp.l1iMiss);
    EXPECT_EQ(a.comp.l1dMiss, b.comp.l1dMiss);
    EXPECT_EQ(a.comp.l1Writes, b.comp.l1Writes);
    EXPECT_EQ(a.comp.wbWait, b.comp.wbWait);
    EXPECT_EQ(a.comp.l2iMiss, b.comp.l2iMiss);
    EXPECT_EQ(a.comp.l2dMiss, b.comp.l2dMiss);
    EXPECT_EQ(a.comp.tlb, b.comp.tlb);

    EXPECT_EQ(a.sys.ifetches, b.sys.ifetches);
    EXPECT_EQ(a.sys.l1iMisses, b.sys.l1iMisses);
    EXPECT_EQ(a.sys.loads, b.sys.loads);
    EXPECT_EQ(a.sys.l1dReadMisses, b.sys.l1dReadMisses);
    EXPECT_EQ(a.sys.stores, b.sys.stores);
    EXPECT_EQ(a.sys.l1dWriteMisses, b.sys.l1dWriteMisses);
    EXPECT_EQ(a.sys.writeOnlyReadMisses, b.sys.writeOnlyReadMisses);
    EXPECT_EQ(a.sys.l2iAccesses, b.sys.l2iAccesses);
    EXPECT_EQ(a.sys.l2iMisses, b.sys.l2iMisses);
    EXPECT_EQ(a.sys.l2dAccesses, b.sys.l2dAccesses);
    EXPECT_EQ(a.sys.l2dMisses, b.sys.l2dMisses);
    EXPECT_EQ(a.sys.l2DirtyMisses, b.sys.l2DirtyMisses);
    EXPECT_EQ(a.sys.l2WriteAllocates, b.sys.l2WriteAllocates);

    EXPECT_EQ(a.sys.wb.pushes, b.sys.wb.pushes);
    EXPECT_EQ(a.sys.wb.fullStalls, b.sys.wb.fullStalls);
    EXPECT_EQ(a.sys.wb.fullStallCycles, b.sys.wb.fullStallCycles);
    EXPECT_EQ(a.sys.wb.drainWaits, b.sys.wb.drainWaits);
    EXPECT_EQ(a.sys.wb.drainWaitCycles, b.sys.wb.drainWaitCycles);
    EXPECT_EQ(a.sys.wb.bypasses, b.sys.wb.bypasses);
    EXPECT_EQ(a.sys.wb.maxOccupancy, b.sys.wb.maxOccupancy);

    EXPECT_EQ(a.sys.memory.reads, b.sys.memory.reads);
    EXPECT_EQ(a.sys.memory.dirtyWritebacks, b.sys.memory.dirtyWritebacks);
    EXPECT_EQ(a.sys.memory.busWaitCycles, b.sys.memory.busWaitCycles);
    EXPECT_EQ(a.sys.memory.busWaits, b.sys.memory.busWaits);

    EXPECT_EQ(a.sys.itlb.accesses, b.sys.itlb.accesses);
    EXPECT_EQ(a.sys.itlb.misses, b.sys.itlb.misses);
    EXPECT_EQ(a.sys.dtlb.accesses, b.sys.dtlb.accesses);
    EXPECT_EQ(a.sys.dtlb.misses, b.sys.dtlb.misses);
}

/**
 * A six-config L1-D size ladder -- the shape of a real figure run,
 * scaled down so the whole test stays fast under TSan.
 */
std::vector<SweepJob>
ladder()
{
    std::vector<SweepJob> jobs;
    for (std::uint64_t words : {1024u, 2048u, 4096u, 8192u,
                                16384u, 32768u}) {
        SweepJob job;
        job.config = baseline();
        job.config.name = "l1d-" + std::to_string(words) + "w";
        job.config.l1d.sizeWords = words;
        job.mpLevel = 2;
        job.instructions = 20'000;
        job.warmup = 5'000;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(Sweep, PoolIsBitIdenticalToSerialAtAnyWorkerCount)
{
    const auto jobs = ladder();

    // The serial reference: the exact per-job function, in order.
    std::vector<SimResult> serial;
    for (const auto &job : jobs)
        serial.push_back(runSweepJob(job));

    for (unsigned workers : {1u, 2u, 8u}) {
        SweepStats stats;
        const auto pooled = runSweep(jobs, workers, &stats);
        ASSERT_EQ(pooled.size(), jobs.size()) << workers;
        EXPECT_EQ(stats.jobs, jobs.size());
        EXPECT_EQ(stats.workers, workers);
        EXPECT_GT(stats.references, 0u);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " job=" + std::to_string(i));
            expectSameResult(pooled[i], serial[i]);
        }
    }
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    const auto jobs = ladder();
    const auto results = runSweep(jobs, 8);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(results[i].configName, jobs[i].config.name);
}

TEST(Sweep, ExhaustedTraceEndsIdenticallySerialAndPooled)
{
    // A finite (non-looping) workload: the budget is far larger than
    // the trace, so the run ends on exhaustion, not on the budget.
    auto finite_workload = [] {
        std::vector<trace::MemRef> refs;
        for (int i = 0; i < 32; ++i) {
            refs.push_back(trace::instRef(0x40'0000 + 4 * i));
            if (i % 4 == 0)
                refs.push_back(trace::loadRef(0x80'0000 + 16 * i));
        }
        Workload wl;
        wl.add(std::make_unique<trace::VectorSource>(
                   "finite", std::move(refs)),
               1.0, "finite");
        return wl;
    };

    std::vector<SweepJob> jobs(3);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].config = baseline();
        jobs[i].config.name = "finite-" + std::to_string(i);
        jobs[i].instructions = 1'000'000;
        jobs[i].workload = finite_workload;
    }

    std::vector<SimResult> serial;
    for (const auto &job : jobs)
        serial.push_back(runSweepJob(job));
    EXPECT_EQ(serial[0].instructions, 32u);

    const auto pooled = runSweep(jobs, 4);
    ASSERT_EQ(pooled.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(pooled[i], serial[i]);
    }
}

TEST(Sweep, SingleJobAndEmptyJobLists)
{
    std::vector<SweepJob> one = ladder();
    one.resize(1);

    const auto serial = runSweepJob(one[0]);
    SweepStats stats;
    const auto pooled = runSweep(one, 8, &stats);
    ASSERT_EQ(pooled.size(), 1u);
    expectSameResult(pooled[0], serial);
    EXPECT_EQ(stats.jobs, 1u);

    const auto none = runSweep({}, 4, &stats);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(stats.jobs, 0u);
}

TEST(Sweep, WorkerCountComesFromEnvironment)
{
    ::setenv("GAAS_BENCH_JOBS", "3", 1);
    EXPECT_EQ(sweepWorkers(), 3u);
    ::setenv("GAAS_BENCH_JOBS", "0", 1); // invalid: fall through
    EXPECT_GE(sweepWorkers(), 1u);
    ::unsetenv("GAAS_BENCH_JOBS");
    EXPECT_GE(sweepWorkers(), 1u);
}

TEST(Sweep, WorkerCountParsesStrictly)
{
    ::unsetenv("GAAS_BENCH_JOBS");
    const unsigned fallback = sweepWorkers();

    // A half-numeric value must be rejected whole, not read as its
    // numeric prefix ("4x" silently becoming 4 workers is the bug
    // this guards against).
    for (const char *bad :
         {"4x", "x4", "+4", "-4", " 4", "4 ", "0",
          "18446744073709551616",  // overflows uint64
          "4294967296"}) {         // valid uint64, overflows unsigned
        ::setenv("GAAS_BENCH_JOBS", bad, 1);
        EXPECT_EQ(sweepWorkers(), fallback) << '"' << bad << '"';
    }

    ::setenv("GAAS_BENCH_JOBS", "2", 1);
    EXPECT_EQ(sweepWorkers(), 2u);
    ::unsetenv("GAAS_BENCH_JOBS");
}

TEST(Sweep, PerJobTelemetryIsRecorded)
{
    const auto jobs = ladder();

    SweepStats serial_stats;
    runSweep(jobs, 1, &serial_stats);
    ASSERT_EQ(serial_stats.perJob.size(), jobs.size());
    for (const auto &js : serial_stats.perJob) {
        EXPECT_EQ(js.worker, 0u);
        EXPECT_DOUBLE_EQ(js.queueWaitSeconds, 0.0);
        EXPECT_GE(js.buildSeconds, 0.0);
        EXPECT_GE(js.simSeconds, 0.0);
        // The phases are disjoint sub-intervals of the job total.
        EXPECT_LE(js.buildSeconds + js.simSeconds,
                  js.totalSeconds + 1e-9);
    }

    const unsigned workers = 3;
    SweepStats pooled_stats;
    runSweep(jobs, workers, &pooled_stats);
    ASSERT_EQ(pooled_stats.perJob.size(), jobs.size());
    for (const auto &js : pooled_stats.perJob) {
        EXPECT_LT(js.worker, workers);
        EXPECT_GE(js.queueWaitSeconds, 0.0);
        EXPECT_LE(js.buildSeconds + js.simSeconds,
                  js.totalSeconds + 1e-9);
    }
}

TEST(Sweep, ProgressCallbackRunsInSubmissionOrder)
{
    const auto jobs = ladder();
    std::vector<std::string> seen;
    const auto results = runSweep(
        jobs, 4, nullptr,
        [&seen](std::size_t index, SweepOutcome &outcome) {
            EXPECT_EQ(index, seen.size());
            EXPECT_EQ(outcome.status, PointStatus::Ok);
            seen.push_back(outcome.result.configName);
        });
    ASSERT_EQ(seen.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(seen[i], jobs[i].config.name);
    ASSERT_EQ(results.size(), jobs.size());
}

/** RAII disarm so a failing test cannot leak an armed fault. */
struct FaultGuard
{
    explicit FaultGuard(const char *spec) { fault::configure(spec); }
    ~FaultGuard() { fault::reset(); }
};

TEST(Sweep, FailedJobIsIsolatedAndEveryOtherPointCompletes)
{
    const auto jobs = ladder();
    // Fail the 3rd sweep job; serial execution (workers = 1) makes
    // the process-wide hit counter deterministic.
    FaultGuard guard("sweep-job:3");

    SweepStats stats;
    const auto outcomes = runSweepOutcomes(jobs, 1, &stats);
    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_EQ(stats.failedPoints, 1u);
    EXPECT_EQ(stats.okPoints, jobs.size() - 1);

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        SCOPED_TRACE(i);
        if (i == 2) {
            EXPECT_EQ(outcomes[i].status, PointStatus::Failed);
            EXPECT_EQ(outcomes[i].errorCode, ErrorCode::Internal);
            EXPECT_NE(outcomes[i].error.find("injected fault"),
                      std::string::npos);
            // Zeroed result, but the config name survives so the
            // figure row still labels itself.
            EXPECT_EQ(outcomes[i].result.configName,
                      jobs[i].config.name);
            EXPECT_EQ(outcomes[i].result.cycles, 0u);
        } else {
            EXPECT_EQ(outcomes[i].status, PointStatus::Ok);
            EXPECT_GT(outcomes[i].result.cycles, 0u);
        }
    }
}

TEST(Sweep, RunSweepRethrowsTheFirstFailureAfterDraining)
{
    const auto jobs = ladder();
    FaultGuard guard("sweep-job:2");
    try {
        runSweep(jobs, 1);
        FAIL() << "runSweep did not rethrow the failure";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Internal);
        EXPECT_NE(std::string(e.what()).find("injected fault"),
                  std::string::npos);
    }
}

TEST(Sweep, WatchdogTripsAsAStructuredFailure)
{
    // One cycle per instruction is an impossible budget: the very
    // first instruction (L1 fill from a cold cache) exceeds it, so
    // the watchdog must convert the runaway into a clean Failed
    // outcome instead of a wedged run.
    auto jobs = ladder();
    jobs.resize(2);
    jobs[1].watchdogCycles = 1;

    SweepStats stats;
    const auto outcomes = runSweepOutcomes(jobs, 1, &stats);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, PointStatus::Ok);
    EXPECT_EQ(outcomes[1].status, PointStatus::Failed);
    EXPECT_EQ(outcomes[1].errorCode, ErrorCode::Watchdog);
    EXPECT_NE(outcomes[1].error.find("watchdog budget"),
              std::string::npos);
    EXPECT_EQ(stats.failedPoints, 1u);
}

TEST(Sweep, GenerousWatchdogBudgetChangesNothing)
{
    auto jobs = ladder();
    jobs.resize(2);
    const auto plain = runSweep(jobs, 1);
    for (auto &job : jobs)
        job.watchdogCycles = 1'000'000;
    const auto watched = runSweep(jobs, 1);
    ASSERT_EQ(watched.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(watched[i], plain[i]);
    }
}

TEST(Sweep, PointStatusNamesRoundTrip)
{
    for (PointStatus status : {PointStatus::Ok, PointStatus::Failed,
                               PointStatus::Degraded}) {
        PointStatus parsed;
        ASSERT_TRUE(parsePointStatus(pointStatusName(status),
                                     parsed));
        EXPECT_EQ(parsed, status);
    }
    PointStatus ignored;
    EXPECT_FALSE(parsePointStatus("nonsense", ignored));
    EXPECT_FALSE(parsePointStatus("", ignored));
}

TEST(Sweep, SampledJobRejectsACustomWorkloadBuilder)
{
    // The sampling controller models occupancies from the suite
    // specs' rates, which it cannot check on a builder's workload.
    SweepJob job;
    job.config = afterWritePolicy();
    job.config.name = "sampled";
    job.mpLevel = 2;
    job.instructions = 20'000;
    job.sampling.enabled = true;
    job.workload = [] { return Workload::standard(2); };
    const auto outcomes = runSweepOutcomes({job}, 1);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(outcomes[0].errorCode, ErrorCode::Config);
}

} // namespace
} // namespace gaas::core
