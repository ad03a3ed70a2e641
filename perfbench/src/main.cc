/**
 * @file
 * perfbench: the benchmark binary.  `perfbench/run.py` calls
 * it once per repetition, so every repetition is a fresh process
 * (cold arena, its own VmHWM); each mode prints one JSON object on
 * its last stdout line.
 *
 *   perfbench run --workload W --seed N --pins FILE [--fixture DIR]
 *       one untraced repetition: end-to-end metrics, sweep
 *       telemetry, layer counts and the output checks
 *   perfbench traced --workload W --seed N --pins FILE --workdir DIR
 *                    --trace-out FILE [--fixture DIR]
 *       one traced repetition (timing decorator on every process),
 *       the subtraction ladder and the source probes; writes the
 *       spans as trace-event JSON
 *   perfbench fixture --seed N --workdir DIR
 *       encode the stream workload's v3 files (not timed)
 *   perfbench calibrate
 *       the machine yardstick: single-thread generator drain rate
 *   perfbench pin --out FILE --workdir DIR
 *       re-derive the pinned digests / CPIs at the default seed
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "layers.hh"
#include "obs/json.hh"
#include "synth/suite.hh"
#include "trace/v3.hh"
#include "workloads.hh"

namespace
{

using namespace gaas;
using namespace perfbench;

struct Args
{
    std::string mode;
    Kind kind = Kind::Ladder;
    bool haveKind = false;
    std::uint64_t seed = kDefaultSeed;
    std::string pins, fixture, workdir, traceOut, out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench run|traced|fixture|calibrate|pin "
                 "[--workload ladder|sampled|stream] [--seed N] "
                 "[--pins FILE] [--fixture DIR] [--workdir DIR] "
                 "[--trace-out FILE] [--out FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (!parseKind(value, a.kind))
                usage("unknown workload '" + value + "'");
            a.haveKind = true;
        } else if (flag == "--seed") {
            char *end = nullptr;
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("bad seed '" + value + "'");
        } else if (flag == "--pins") {
            a.pins = value;
        } else if (flag == "--fixture") {
            a.fixture = value;
        } else if (flag == "--workdir") {
            a.workdir = value;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else if (flag == "--out") {
            a.out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    return a;
}

obs::JsonValue
num(double v)
{
    return obs::JsonValue::number(v);
}

obs::JsonValue
cnt(Count v)
{
    return obs::JsonValue::number(v);
}

/** VmHWM of this process in MiB (0 if unavailable). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
           : n % 2 ? v[n / 2]
                   : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The jobs of workload @p kind (stream needs its fixture files). */
std::vector<core::SweepJob>
jobsFor(const Args &a)
{
    switch (a.kind) {
      case Kind::Ladder:
        return ladderJobs(false, a.seed);
      case Kind::Sampled:
        return ladderJobs(true, a.seed);
      case Kind::Stream:
        if (a.fixture.empty())
            usage("the stream workload needs --fixture DIR");
        return {streamJob(streamPaths(a.fixture))};
    }
    return {};
}

/** Workers for a workload: the sweep default, one for stream. */
unsigned
workersFor(Kind kind)
{
    return kind == Kind::Stream ? 1 : 0;
}

/** Output checks of one sweep, see checks.hh. */
struct Verdict
{
    std::size_t failed = 0;
    std::vector<std::string> failures;
    double cpiErrMax = 0.0;
    std::size_t withinCi = 0;
};

Verdict
evaluate(const Args &a, const std::vector<core::SweepJob> &jobs,
         const std::vector<core::SweepOutcome> &outcomes,
         const Pins &pins)
{
    Verdict v;
    // Digests pin the default seed's full-detail output; the sampled
    // workload is checked against the ladder's full-detail CPIs.
    const bool pinDigests = a.seed == kDefaultSeed && a.kind != Kind::Sampled;
    const auto wl = pins.find(a.kind == Kind::Stream ? "stream" : "ladder");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const core::SweepOutcome &out = outcomes[i];
        const std::string &name = jobs[i].config.name;
        std::vector<std::string> why;
        if (!out.ok()) {
            why.push_back("failed: " + out.error);
        } else {
            why = invariantViolations(out.result, jobs[i].config);
            const PinnedPoint *pin = nullptr;
            if (wl != pins.end()) {
                auto it = wl->second.find(name);
                if (it != wl->second.end())
                    pin = &it->second;
            }
            if ((pinDigests || a.kind == Kind::Sampled) && !pin) {
                why.push_back("no pinned entry");
            } else if (pinDigests &&
                       statsDigest(out.result) != pin->digest) {
                why.push_back("stats digest " + statsDigest(out.result) +
                              " != pinned " + pin->digest);
            } else if (a.kind == Kind::Sampled) {
                const double cpi = out.result.cpi();
                const double err = std::fabs(cpi - pin->cpi);
                v.cpiErrMax = std::max(v.cpiErrMax, err / pin->cpi);
                if (err <= out.result.sampling.cpiHalfWidth)
                    ++v.withinCi;
                else
                    why.push_back("full-detail cpi " +
                                  std::to_string(pin->cpi) +
                                  " outside the sampled 95% CI");
            }
        }
        if (!why.empty()) {
            ++v.failed;
            for (const std::string &w : why)
                v.failures.push_back(name + ": " + w);
        }
    }
    return v;
}

/** References the run accounts for: measured references, or for the
 *  sampled ladder the pinned full-detail references of its points. */
double
accountedRefs(const Args &a, const std::vector<core::SweepJob> &jobs,
              const std::vector<core::SweepOutcome> &outcomes,
              const Pins &pins)
{
    double refs = 0.0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (a.kind == Kind::Sampled) {
            const auto wl = pins.find("ladder");
            if (wl != pins.end()) {
                auto it = wl->second.find(jobs[i].config.name);
                if (it != wl->second.end())
                    refs += it->second.refs;
            }
        } else {
            refs += static_cast<double>(outcomes[i].result.references());
        }
    }
    return refs;
}

/** Sweep telemetry (core.sweep.* and trace.arena.* from the run). */
obs::JsonValue
sweepJson(const core::SweepStats &st)
{
    std::vector<double> sims;
    double build = 0.0, queue = 0.0, busy = 0.0;
    for (const auto &j : st.perJob) {
        build += j.buildSeconds;
        queue += j.queueWaitSeconds;
        busy += j.totalSeconds;
        sims.push_back(j.simSeconds);
    }
    const double capacity = st.wallSeconds * st.workers;
    const double acquired = static_cast<double>(st.arenaStreamsGenerated +
                                                st.arenaStreamsReused);
    obs::JsonValue s = obs::JsonValue::object();
    s.members.emplace_back("jobs", cnt(st.perJob.size()));
    s.members.emplace_back("workers", cnt(st.workers));
    s.members.emplace_back("build_s", num(build));
    s.members.emplace_back("queue_wait_s", num(queue));
    s.members.emplace_back("point_sim_s_p50", num(medianOf(sims)));
    s.members.emplace_back(
        "point_sim_s_max",
        num(sims.empty() ? 0.0 : *std::max_element(sims.begin(), sims.end())));
    s.members.emplace_back("busy_frac",
                           num(capacity > 0.0 ? busy / capacity : 0.0));
    s.members.emplace_back("arena_gen_s", num(st.arenaGenSeconds));
    s.members.emplace_back(
        "arena_bytes_mb",
        num(static_cast<double>(st.arenaBytes) / (1u << 20)));
    s.members.emplace_back(
        "arena_reuse_frac",
        num(acquired > 0.0
                ? static_cast<double>(st.arenaStreamsReused) / acquired
                : 0.0));
    s.members.emplace_back("arena_streams_generated",
                           cnt(st.arenaStreamsGenerated));
    s.members.emplace_back("arena_streams_reused",
                           cnt(st.arenaStreamsReused));
    return s;
}

/** Layer counts summed over the points. */
obs::JsonValue
countsJson(const std::vector<core::SweepOutcome> &outcomes)
{
    std::map<std::string, Count> c;
    for (const auto &o : outcomes) {
        const core::SimResult &r = o.result;
        c["mmu.itlb_misses"] += r.sys.itlb.misses;
        c["mmu.dtlb_misses"] += r.sys.dtlb.misses;
        c["cache.l1i_misses"] += r.sys.l1iMisses;
        c["cache.l1d_misses"] += r.sys.l1dReadMisses + r.sys.l1dWriteMisses;
        c["cache.l2_misses"] += r.sys.l2iMisses + r.sys.l2dMisses;
        c["mem.wb_pushes"] += r.sys.wb.pushes;
        c["mem.wb_wait_cycles"] += r.comp.wbWait;
        c["mem.fetches"] += r.sys.memory.reads;
        c["core.simulator.context_switches"] += r.contextSwitches;
        c["core.sampling.intervals"] += r.sampling.intervals;
        c["core.sampling.warm_insts"] += r.sampling.warmedInstructions;
        c["core.sampling.skipped_insts"] += r.sampling.skippedInstructions;
    }
    obs::JsonValue j = obs::JsonValue::object();
    for (const auto &[k, v] : c)
        j.members.emplace_back(k, cnt(v));
    return j;
}

obs::JsonValue
pointsJson(const std::vector<core::SweepJob> &jobs,
           const std::vector<core::SweepOutcome> &outcomes,
           const std::vector<PointTrace> *traces)
{
    obs::JsonValue arr = obs::JsonValue::array();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        obs::JsonValue p = obs::JsonValue::object();
        p.members.emplace_back("config",
                               obs::JsonValue::string(jobs[i].config.name));
        p.members.emplace_back("build_s", num(outcomes[i].stats.buildSeconds));
        p.members.emplace_back("sim_s", num(outcomes[i].stats.simSeconds));
        p.members.emplace_back("cpi", num(outcomes[i].result.cpi()));
        p.members.emplace_back("digest", obs::JsonValue::string(
                                             statsDigest(outcomes[i].result)));
        if (traces && i < traces->size()) {
            p.members.emplace_back("source_s",
                                   num((*traces)[i].totalSeconds()));
            p.members.emplace_back("source_refs",
                                   cnt((*traces)[i].totalRefs()));
        }
        arr.items.push_back(std::move(p));
    }
    return arr;
}

/** Extra set-ups the stream workload times per repetition: its one
 *  set-up takes milliseconds, too little for one sample to be steady. */
constexpr int kStreamSetups = 9;

/**
 * setup_s: seconds before simulation starts, summed over points.
 * The sampling controller builds its workload inside the job, so its
 * set-up is the arena materialisation the points paid for.  The
 * stream point's set-up (open and validate the v3 files, start the
 * StreamSources, build the Simulator) is repeated through the
 * program's own path and reported as the median.
 */
double
setupSeconds(Kind kind, const std::vector<core::SweepJob> &jobs,
             const std::vector<core::SweepOutcome> &outcomes)
{
    double s = 0.0;
    for (const auto &o : outcomes)
        s += kind == Kind::Sampled ? o.stats.arenaGenSeconds
                                   : o.stats.buildSeconds;
    if (kind != Kind::Stream)
        return s;
    std::vector<double> samples{s};
    for (int r = 1; r < kStreamSetups; ++r) {
        const double t0 = sinceEpoch();
        core::Simulator sim(jobs[0].config,
                            core::Workload::fromTraceFiles(
                                jobs[0].traceFiles, true));
        samples.push_back(sinceEpoch() - t0);
    }
    return medianOf(samples);
}

void
emitVerdict(obs::JsonValue &doc, const Verdict &v, std::size_t points)
{
    doc.members.emplace_back("points", cnt(points));
    doc.members.emplace_back("failed", cnt(v.failed));
    obs::JsonValue f = obs::JsonValue::array();
    for (const std::string &s : v.failures)
        f.items.push_back(obs::JsonValue::string(s));
    doc.members.emplace_back("failures", std::move(f));
    for (const std::string &s : v.failures)
        std::cerr << "perfbench: CHECK FAILED: " << s << "\n";
}

int
runMode(const Args &a)
{
    const Pins pins = loadPins(a.pins);
    const std::vector<core::SweepJob> jobs = jobsFor(a);
    core::SweepStats st;
    const auto outcomes =
        core::runSweepOutcomes(jobs, workersFor(a.kind), &st);
    const double rss = peakRssMb();
    const Verdict v = evaluate(a, jobs, outcomes, pins);
    const double refs = accountedRefs(a, jobs, outcomes, pins);

    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back("workload",
                             obs::JsonValue::string(kindName(a.kind)));
    doc.members.emplace_back("seed", cnt(a.seed));
    emitVerdict(doc, v, jobs.size());
    doc.members.emplace_back("setup_s",
                             num(setupSeconds(a.kind, jobs, outcomes)));
    doc.members.emplace_back("wall_s", num(st.wallSeconds));
    doc.members.emplace_back("refs", num(refs));
    doc.members.emplace_back(
        "refs_per_s", num(st.wallSeconds > 0.0 ? refs / st.wallSeconds : 0.0));
    doc.members.emplace_back("peak_rss_mb", num(rss));
    if (a.kind == Kind::Sampled) {
        doc.members.emplace_back("cpi_err_max", num(v.cpiErrMax));
        doc.members.emplace_back("within_ci", cnt(v.withinCi));
    }
    doc.members.emplace_back("sweep", sweepJson(st));
    doc.members.emplace_back("counts", countsJson(outcomes));
    doc.members.emplace_back("per_point", pointsJson(jobs, outcomes, nullptr));
    std::cout << obs::writeJsonCompact(doc) << std::endl;
    return 0;
}

/** Representative points the subtraction ladder replays. */
std::vector<std::string>
replayPoints(Kind kind)
{
    if (kind == Kind::Stream)
        return {"l2-256k-unified-1w"};
    return {"l2-256k-unified-1w", "l2-1024k-split-2w"};
}

int
tracedMode(const Args &a)
{
    if (a.workdir.empty() || a.traceOut.empty())
        usage("traced needs --workdir and --trace-out");
    const Pins pins = loadPins(a.pins);
    SpanLog log;
    const double runStart = sinceEpoch();

    // 1. The workload itself, every process behind a TimedSource
    // (the sampling controller builds its own workload, so the
    // sampled points run undecorated).
    std::vector<core::SweepJob> jobs = jobsFor(a);
    std::vector<PointTrace> traces(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (a.kind == Kind::Ladder) {
            const std::uint64_t seed = a.seed;
            const SourceWrap wrap = timedWrap(traces[i]);
            jobs[i].workload = [seed, wrap] {
                return seededStandard(kLadderMp,
                                      kLadderWarmup + kLadderInstructions,
                                      seed, wrap);
            };
        } else if (a.kind == Kind::Stream) {
            jobs[i] = streamJob(streamPaths(a.fixture), timedWrap(traces[i]));
        }
    }
    core::SweepStats st;
    const double sweepStart = sinceEpoch();
    const auto outcomes =
        core::runSweepOutcomes(jobs, workersFor(a.kind), &st);
    const Verdict v = evaluate(a, jobs, outcomes, pins);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const core::SweepJobStats &js = outcomes[i].stats;
        const unsigned tid = js.worker + 1;
        obs::JsonValue args = obs::JsonValue::object();
        args.members.emplace_back("point", cnt(i));
        args.members.emplace_back("config",
                                  obs::JsonValue::string(jobs[i].config.name));
        const double q0 = sweepStart, q1 = q0 + js.queueWaitSeconds;
        const double b1 = q1 + js.buildSeconds, s1 = b1 + js.simSeconds;
        log.add("point " + jobs[i].config.name, "point", tid, q0,
                q1 + js.totalSeconds, args);
        log.add("queue", "sweep", tid, q0, q1, args);
        log.add("build", "sweep", tid, q1, b1, args);
        log.add("simulate", "sweep", tid, b1, s1, args);
        for (const PointTrace::Span &sp : traces[i].spans) {
            obs::JsonValue ba = obs::JsonValue::object();
            ba.members.emplace_back("point", cnt(i));
            ba.members.emplace_back("pid", cnt(sp.pid));
            log.add("trace batch", "layer", tid, sp.start, sp.end,
                    std::move(ba));
        }
    }

    // 2. The subtraction ladder on the representative points.
    const unsigned replayTid = 100;
    const std::uint64_t replaySeed =
        a.kind == Kind::Sampled ? kDefaultSeed : a.seed;
    WorkloadFactory factory;
    if (a.kind == Kind::Stream) {
        const auto paths = streamPaths(a.fixture);
        factory = [paths](const SourceWrap &w) {
            return streamWorkload(paths, w);
        };
    } else {
        factory = [replaySeed](const SourceWrap &w) {
            return seededStandard(kLadderMp,
                                  kLadderWarmup + kLadderInstructions,
                                  replaySeed, w);
        };
    }
    constexpr Count kReplayInstructions = 8'000'000;
    std::vector<ReplayResult> replays;
    const core::SystemConfig *largest = nullptr;
    for (const std::string &name : replayPoints(a.kind)) {
        for (const auto &job : jobs) {
            if (job.config.name == name) {
                replays.push_back(replayPoint(job.config, factory,
                                              kReplayInstructions, 3, log,
                                              replayTid));
                largest = &job.config;
            }
        }
    }

    // 3. Source probes on the first references of every process.
    std::vector<ProbeSource> sources;
    std::vector<synth::BenchmarkSpec> genSpecs;
    if (a.kind == Kind::Stream) {
        genSpecs = streamFixtureSpecs(a.seed);
        for (const std::string &path : streamPaths(a.fixture)) {
            const auto info = trace::v3FileInfo(path);
            sources.push_back({[path] {
                                   return std::make_unique<
                                       trace::TraceV3Reader>(path);
                               },
                               static_cast<std::size_t>(info.records)});
        }
    } else {
        genSpecs = seededSpecs(kLadderMp, replaySeed);
        for (const auto &spec : genSpecs) {
            sources.push_back(
                {[spec] { return synth::makeBenchmark(spec); },
                 2 * static_cast<std::size_t>(spec.simInstructions)});
        }
    }
    double t = sinceEpoch();
    const ProbeResult probe = probeSources(
        sources, genSpecs, std::size_t{1} << 20,
        a.kind == Kind::Stream ? std::string() : a.workdir);
    log.add("source probes", "probe", replayTid, t, sinceEpoch());
    t = sinceEpoch();
    const double ctorS = largest ? cacheSystemCtorSeconds(*largest, 5) : 0.0;
    log.add("cache_system ctor", "probe", replayTid, t, sinceEpoch());
    log.add("run", "run", 0, runStart, sinceEpoch());

    // Per-layer metrics.
    double refs = 0.0, src = 0.0, mmuS = 0.0, l1 = 0.0, hier = 0.0,
           sim = 0.0, warm = 0.0;
    obs::JsonValue replayArr = obs::JsonValue::array();
    for (const ReplayResult &r : replays) {
        refs += static_cast<double>(r.refs);
        src += r.sourceS;
        mmuS += r.mmuS;
        l1 += r.l1S;
        hier += r.hierarchyS;
        sim += r.simS;
        warm += r.warmS;
        obs::JsonValue o = obs::JsonValue::object();
        o.members.emplace_back("config", obs::JsonValue::string(r.config));
        o.members.emplace_back("refs", cnt(r.refs));
        o.members.emplace_back("source_s", num(r.sourceS));
        o.members.emplace_back("mmu_s", num(r.mmuS));
        o.members.emplace_back("l1_s", num(r.l1S));
        o.members.emplace_back("hierarchy_s", num(r.hierarchyS));
        o.members.emplace_back("sim_s", num(r.simS));
        o.members.emplace_back("warm_s", num(r.warmS));
        replayArr.items.push_back(std::move(o));
    }
    auto perRef = [refs](double s) {
        return refs > 0.0 ? s * 1e9 / refs : 0.0;
    };
    double streamWait = probe.streamWaitS;
    double streamBuf = probe.streamBufferMb;
    if (a.kind == Kind::Stream) {
        streamWait = traces.empty() ? 0.0 : traces[0].totalSeconds();
        streamBuf = streamBufferMb(streamPaths(a.fixture));
    }
    obs::JsonValue layers = obs::JsonValue::object();
    auto put = [&layers](const char *k, double v) {
        layers.members.emplace_back(k, num(v));
    };
    put("synth.gen_refs_per_s", probe.genRefsPerS);
    put("trace.arena.probe_gen_s", probe.arenaGenS);
    put("trace.arena.probe_bytes_mb", probe.arenaBytesMb);
    put("trace.arena.read_ns_per_ref", probe.arenaReadNsPerRef);
    put("trace.arena.skip_ns_per_ref", probe.arenaSkipNsPerRef);
    put("trace.v3.decode_ns_per_ref", probe.v3DecodeNsPerRef);
    put("trace.stream.wait_s", streamWait);
    put("trace.stream.buffer_mb", streamBuf);
    put("trace.source.replay_ns_per_ref", perRef(src));
    put("mmu.translate_ns_per_ref", perRef(mmuS - src));
    put("cache.l1_probe_ns_per_ref", perRef(l1 - mmuS));
    put("core.cache_system.access_ns_per_ref", perRef(hier - src));
    put("core.cache_system.l2_mem_ns_per_ref", perRef(hier - l1));
    put("core.cache_system.ctor_s", ctorS);
    put("core.simulator.step_ns_per_ref", perRef(sim - hier));
    put("core.simulator.warm_ns_per_ref", perRef(warm));

    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back("workload",
                             obs::JsonValue::string(kindName(a.kind)));
    doc.members.emplace_back("seed", cnt(a.seed));
    emitVerdict(doc, v, jobs.size());
    doc.members.emplace_back("wall_s", num(st.wallSeconds));
    doc.members.emplace_back("layers", std::move(layers));
    doc.members.emplace_back("replay", std::move(replayArr));
    doc.members.emplace_back("per_point", pointsJson(jobs, outcomes, &traces));
    log.write(a.traceOut);
    std::cout << obs::writeJsonCompact(doc) << std::endl;
    return 0;
}

int
fixtureMode(const Args &a)
{
    if (a.workdir.empty())
        usage("fixture needs --workdir");
    const std::uint64_t n = writeStreamFixture(a.workdir, a.seed);
    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back("records", cnt(n));
    std::cout << obs::writeJsonCompact(doc) << std::endl;
    return 0;
}

/** Single-thread drain of suite entry 0 (2M instructions), the
 *  machine-relative yardstick BENCH_5..9 record. */
int
calibrateMode()
{
    synth::BenchmarkSpec spec = synth::defaultSuite()[0];
    spec.simInstructions = 2'000'000;
    std::vector<double> rates;
    for (int r = 0; r < 3; ++r) {
        auto src = synth::makeBenchmark(spec);
        std::vector<trace::MemRef> buf(1u << 14);
        Count n = 0;
        const double t0 = sinceEpoch();
        for (;;) {
            const std::size_t got = src->nextBatch(buf.data(), buf.size());
            n += got;
            if (got < buf.size())
                break;
        }
        const double s = sinceEpoch() - t0;
        rates.push_back(s > 0.0 ? static_cast<double>(n) / s : 0.0);
    }
    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back("calibration_refs_per_s", num(medianOf(rates)));
    doc.members.emplace_back("build_type",
                             obs::JsonValue::string(PERFBENCH_BUILD_TYPE));
    std::cout << obs::writeJsonCompact(doc) << std::endl;
    return 0;
}

/** Re-derive the pins through the program's own paths at the
 *  default seed (no custom builders). */
int
pinMode(const Args &a)
{
    if (a.out.empty() || a.workdir.empty())
        usage("pin needs --out and --workdir");
    Pins pins;
    auto record = [&pins](const char *wl,
                          const std::vector<core::SweepJob> &jobs) {
        const auto outcomes = core::runSweepOutcomes(jobs, 0);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok())
                throw std::runtime_error("pin: point failed: " +
                                         outcomes[i].error);
            for (const auto &bad :
                 invariantViolations(outcomes[i].result, jobs[i].config))
                std::cerr << "perfbench: pin: " << jobs[i].config.name
                          << ": invariant " << bad << "\n";
            PinnedPoint &p = pins[wl][jobs[i].config.name];
            p.digest = statsDigest(outcomes[i].result);
            p.cpi = outcomes[i].result.cpi();
            p.refs = static_cast<double>(outcomes[i].result.references());
        }
    };
    record("ladder", ladderJobs(false, kDefaultSeed));
    writeStreamFixture(a.workdir, kDefaultSeed);
    const auto paths = streamPaths(a.workdir);
    record("stream", {streamJob(paths)});
    for (const std::string &p : paths)
        std::remove(p.c_str());
    savePins(pins, a.out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        if (a.mode == "run" || a.mode == "traced") {
            if (!a.haveKind)
                usage(a.mode + " needs --workload");
            if (a.pins.empty())
                usage(a.mode + " needs --pins");
            return a.mode == "run" ? runMode(a) : tracedMode(a);
        }
        if (a.mode == "fixture")
            return fixtureMode(a);
        if (a.mode == "calibrate")
            return calibrateMode();
        if (a.mode == "pin")
            return pinMode(a);
        usage("unknown mode '" + a.mode + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
