/**
 * @file
 * Sampled-simulation suite (ctest label: sampling): the Student-t
 * table, the infeasible-budget fallback's byte-identity with a
 * full-detail run, run-to-run determinism, the exact sampled
 * results of two pinned points and of all 28 BENCH_7 points, and
 * the headline accuracy contract -- on seeded Fig. 6 points the
 * full-detail CPI lies within the sampled run's reported 95%
 * confidence interval.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/sampling.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "core/workload.hh"
#include "obs/json.hh"

namespace gaas::core
{
namespace
{

/** One Fig. 6 ladder configuration (see tools/benchspeed.cc). */
SystemConfig
fig6Point(std::uint64_t size_words, L2Org org, unsigned assoc,
          Cycles access_time)
{
    SystemConfig cfg = afterWritePolicy();
    cfg.l2Org = org;
    cfg.l2.cache.sizeWords = size_words;
    cfg.l2.cache.assoc = assoc;
    cfg.l2.accessTime = access_time;
    return cfg;
}

TEST(StudentT, TabulatedAndBracketedValues)
{
    EXPECT_DOUBLE_EQ(studentT95(1), 12.706);
    EXPECT_DOUBLE_EQ(studentT95(8), 2.306);
    EXPECT_DOUBLE_EQ(studentT95(16), 2.120);
    EXPECT_DOUBLE_EQ(studentT95(30), 2.042);
    // Between tabulated rows the lower row's (larger) multiplier
    // applies, so intervals stay conservative.
    EXPECT_DOUBLE_EQ(studentT95(35), 2.042);
    EXPECT_DOUBLE_EQ(studentT95(40), 2.021);
    EXPECT_DOUBLE_EQ(studentT95(60), 2.000);
    EXPECT_DOUBLE_EQ(studentT95(120), 1.980);
    EXPECT_DOUBLE_EQ(studentT95(100000), 1.980);
    // df 0 cannot occur (the controller floors it at 1) but must
    // not index out of the table.
    EXPECT_DOUBLE_EQ(studentT95(0), 12.706);
    // The multiplier never increases with df.
    double prev = studentT95(1);
    for (Count df = 2; df <= 200; ++df) {
        EXPECT_LE(studentT95(df), prev) << "df " << df;
        prev = studentT95(df);
    }
}

TEST(Sampling, InfeasibleBudgetFallsBackToExactFullDetail)
{
    const SystemConfig cfg = afterWritePolicy();
    SamplingConfig plan;
    plan.enabled = true;
    // minIntervals episodes cannot fit: the period is smaller than
    // one warm+head+body burst, so the controller must run the
    // point in full detail.
    const Count total = 500'000;
    const Count warmup = 100'000;

    SimResult sampled = runSampled(cfg, plan, total, 2, warmup);
    EXPECT_EQ(sampled.sampling.intervals, 0u)
        << "expected the full-detail fallback";
    EXPECT_EQ(sampled.sampling.passes, 1u);

    Simulator sim(cfg, Workload::standard(2, warmup + total));
    const SimResult full = sim.run(total, warmup);
    EXPECT_EQ(sampled.instructions, full.instructions);
    EXPECT_EQ(sampled.cycles, full.cycles);
    EXPECT_EQ(sampled.references(), full.references());
    EXPECT_DOUBLE_EQ(sampled.sampling.cpiMean, full.cpi());
}

TEST(Sampling, DeterministicAcrossRuns)
{
    const SystemConfig cfg =
        fig6Point(64 * 1024, L2Org::Unified, 2, 7);
    SamplingConfig plan;
    plan.enabled = true;
    const SimResult a = runSampled(cfg, plan, 2'000'000, 8, 500'000);
    const SimResult b = runSampled(cfg, plan, 2'000'000, 8, 500'000);
    EXPECT_EQ(a.sampling.intervals, b.sampling.intervals);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.sampling.cpiMean, b.sampling.cpiMean);
    EXPECT_DOUBLE_EQ(a.sampling.cpiHalfWidth,
                     b.sampling.cpiHalfWidth);
}

/**
 * The exact sampled result of two seeded Fig. 6 points, pinned as
 * hex-float literals.  DeterministicAcrossRuns only compares a run
 * with itself; this pin fails on any drift of the functional-warming
 * path, the episode schedule or the estimator.  The values were
 * recorded before functional warming became a Mode of the detailed
 * access path.
 */
TEST(Sampling, PinnedResultsOnFig6Points)
{
    struct Pin
    {
        SystemConfig cfg;
        double cpi;
        double halfWidth;
        Count intervals;
    };
    const Pin pins[] = {
        {fig6Point(32 * 1024, L2Org::Unified, 1, 6),
         0x1.9f03bf56f7a9dp+0, 0x1.54a0c4b525202p-4, 24},
        {fig6Point(512 * 1024, L2Org::Unified, 2, 7),
         0x1.85807b684c877p+0, 0x1.0a29db45c2b92p-4, 24},
    };
    SamplingConfig plan;
    plan.enabled = true;

    for (const Pin &pin : pins) {
        SCOPED_TRACE(
            std::to_string(pin.cfg.l2.cache.sizeWords / 1024) +
            "KW L2");
        const SimResult s =
            runSampled(pin.cfg, plan, 4'000'000, 8, 2'000'000);
        EXPECT_EQ(s.sampling.intervals, pin.intervals);
        EXPECT_EQ(s.sampling.cpiMean, pin.cpi);
        EXPECT_EQ(s.sampling.cpiHalfWidth, pin.halfWidth);
    }
}

/**
 * The accuracy contract on three seeded Fig. 6 points spanning the
 * L2 size axis: the full-detail CPI of the identical (config, mp,
 * budget) point must lie within the sampled run's reported CI, and
 * the sampled run must measure a small fraction of the budget.
 * Both runs are deterministic, so this is a regression gate, not a
 * statistical coin flip.
 */
TEST(Sampling, FullDetailCpiWithinReportedCiOnFig6Points)
{
    const SystemConfig points[] = {
        fig6Point(32 * 1024, L2Org::Unified, 1, 6),
        fig6Point(128 * 1024, L2Org::LogicalSplit, 2, 7),
        fig6Point(512 * 1024, L2Org::Unified, 2, 7),
    };
    const Count total = 4'000'000;
    const Count warmup = 2'000'000;
    SamplingConfig plan;
    plan.enabled = true;

    for (const SystemConfig &cfg : points) {
        SCOPED_TRACE(std::to_string(cfg.l2.cache.sizeWords / 1024) +
                     "KW L2");
        const SimResult full = runStandard(cfg, total, 8, warmup);
        const SimResult s = runSampled(cfg, plan, total, 8, warmup);

        ASSERT_GT(s.sampling.intervals, 0u);
        EXPECT_GE(s.sampling.intervals, plan.minIntervals);
        EXPECT_NEAR(s.sampling.cpiMean, full.cpi(),
                    s.sampling.cpiHalfWidth);
        // The headline cpi() is pinned to the stratified estimate.
        EXPECT_NEAR(s.cpi(), s.sampling.cpiMean, 1e-6);
        // The CI never collapses below the documented systematic
        // allowance for finite warming depth.
        EXPECT_GE(s.sampling.cpiHalfWidth,
                  plan.warmingBiasRel * s.sampling.cpiMean);
        // Detail work is the point of sampling: the measured span
        // must be a small fraction of the budget.
        EXPECT_LT(s.sampling.measuredInstructions, total / 4);
        EXPECT_GT(s.sampling.skippedInstructions, total / 2);
    }
}

/**
 * Every point of BENCH_7.json, the sampled fig6 ladder at its full
 * budget (16M instructions + 8M warmup, mp 8): each point's sampled
 * CPI, half-width and interval count must reproduce exactly.
 */
TEST(Sampling, Bench7PerPointResultsOnTheFullFig6Ladder)
{
    std::ifstream in(std::string(GAAS_SOURCE_DIR) + "/BENCH_7.json");
    ASSERT_TRUE(in) << "BENCH_7.json not found";
    std::stringstream text;
    text << in.rdbuf();
    const obs::JsonValue doc = obs::parseJson(text.str());
    const obs::JsonValue *points = doc.member("per_point");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->items.size(), 28u);

    struct Org
    {
        const char *name;
        L2Org org;
        unsigned assoc;
        Cycles accessTime;
    };
    const Org orgs[] = {
        {"unified-1w", L2Org::Unified, 1, 6},
        {"unified-2w", L2Org::Unified, 2, 7},
        {"split-1w", L2Org::LogicalSplit, 1, 6},
        {"split-2w", L2Org::LogicalSplit, 2, 7},
    };
    std::vector<SweepJob> jobs;
    for (std::uint64_t size = 16 * 1024; size <= 1024 * 1024;
         size *= 2) {
        for (const Org &o : orgs) {
            SweepJob job;
            job.config = fig6Point(size, o.org, o.assoc, o.accessTime);
            job.config.name = "l2-" + std::to_string(size / 1024) +
                              "k-" + o.name;
            job.mpLevel = 8;
            job.instructions = 16'000'000;
            job.warmup = 8'000'000;
            job.sampling.enabled = true;
            jobs.push_back(std::move(job));
        }
    }
    const std::vector<SimResult> results = runSweep(jobs);
    ASSERT_EQ(results.size(), points->items.size());

    const auto number = [](const obs::JsonValue &point, const char *key) {
        const obs::JsonValue *v = point.member(key);
        return v ? std::strtod(v->scalar.c_str(), nullptr) : -1.0;
    };
    for (std::size_t i = 0; i < results.size(); ++i) {
        const obs::JsonValue &point = points->items[i];
        const SimResult &r = results[i];
        SCOPED_TRACE(jobs[i].config.name);
        ASSERT_NE(point.member("config"), nullptr);
        EXPECT_EQ(point.member("config")->scalar, jobs[i].config.name);
        EXPECT_EQ(r.sampling.cpiMean, number(point, "sampled_cpi"));
        EXPECT_EQ(r.sampling.cpiHalfWidth, number(point, "half_width"));
        EXPECT_EQ(static_cast<double>(r.sampling.intervals),
                  number(point, "intervals"));
    }
}

} // namespace
} // namespace gaas::core
