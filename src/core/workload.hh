/**
 * @file
 * Workload: the set of processes a simulation multiplexes, i.e. the
 * paper's "file descriptor multiplexor" plus process configuration
 * file (Section 3).
 */

#ifndef GAAS_CORE_WORKLOAD_HH
#define GAAS_CORE_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "synth/suite.hh"
#include "trace/source.hh"
#include "util/types.hh"

namespace gaas::trace
{
struct ArenaTally;
} // namespace gaas::trace

namespace gaas::core
{

/** One schedulable process. */
struct Process
{
    Pid pid = 0;
    std::string name;

    /** CPU-stall CPI floor of this process's code (1.238-style). */
    double baseCpi = 1.238;

    std::unique_ptr<trace::TraceSource> source;
};

/**
 * An ordered set of processes.  The order is the round-robin
 * schedule order; PIDs are assigned in order of addition.
 */
class Workload
{
  public:
    Workload() = default;

    /**
     * Build from benchmark specs.
     *
     * @param specs one process per spec, scheduled in spec order
     * @param loop  wrap each trace so it restarts when exhausted
     *              (the usual mode: the simulator runs to an
     *              instruction budget)
     */
    static Workload fromSpecs(
        const std::vector<synth::BenchmarkSpec> &specs,
        bool loop = true);

    /**
     * The standard workload of the paper's experiments: the first
     * @p mp_level suite benchmarks (Section 3 settles on level 8).
     *
     * By default the processes replay shared streams from the global
     * TraceArena, so a sweep materializes each benchmark's reference
     * stream once instead of re-running the generators per point;
     * `GAAS_BENCH_ARENA=0` restores per-process generators.  Either
     * way the streams are bit-identical.  Sweep workers that build
     * the same cold workload together split its generation: each
     * grows whichever streams no other worker is growing, longest
     * first, and then waits for the rest.
     *
     * @param instr_hint the run's total instruction budget (warmup
     *        included), used to pre-size arena streams so the first
     *        job generates in one pass instead of doubling up to the
     *        high-water mark; 0 defers generation to first read
     */
    static Workload standard(unsigned mp_level = 8,
                             Count instr_hint = 0);

    /**
     * One process per named v3 trace file -- the paper's actual
     * mode of operation, a pixie trace per benchmark, with the
     * trace on disk instead of a synthetic model.
     *
     * Replay mode:
     *  - @p streaming false (default): each file is decoded once
     *    into the shared TraceArena (keyed by its content digest)
     *    and replayed zero-copy, like the synthetic streams.
     *    Workers that build it together split the decoding; each
     *    waits for the files others decode on its first read.  With
     *    the arena disabled (GAAS_BENCH_ARENA=0) each process gets
     *    its own block-at-a-time TraceV3Reader.
     *  - @p streaming true: each process replays through a
     *    bounded-memory StreamSource; the GAAS_TRACE_STREAM_MB
     *    ceiling is split evenly across the files, so total
     *    buffering stays under one ceiling regardless of how many
     *    traces the workload names.
     *
     * Both modes produce bit-identical reference streams (wrapped
     * in LoopSource, like every other workload source).  Files must
     * be format v3 -- convert v1/v2 with `tracepack pack`.
     *
     * @param base_cpi CPU-stall CPI floor assigned to every trace
     *        process (the paper's 1.238)
     */
    static Workload
    fromTraceFiles(const std::vector<std::string> &paths,
                   bool streaming = false, double base_cpi = 1.238);

    /**
     * Materialize the arena streams standard(@p mp_level, ...)
     * would replay, through @p instr_hint total instructions, by
     * running standard()'s cooperative fill on min(streams,
     * hardware threads) threads -- all joined before returning, so
     * the caller may fork() immediately afterwards (the
     * multi-process sweep executor prewarms here so its workers
     * inherit the streams copy-on-write instead of regenerating
     * them per process).  A no-op when the arena is disabled.
     *
     * @return the fill threads' arena tallies, summed (each thread
     *         acquires every stream, so all but the first
     *         acquisition of a stream count as reuse)
     */
    static trace::ArenaTally prewarmStandardStreams(unsigned mp_level,
                                                    Count instr_hint);

    /** Add one process (PID = current process count). */
    void add(std::unique_ptr<trace::TraceSource> source,
             double base_cpi, const std::string &name);

    std::size_t size() const { return processes.size(); }
    bool empty() const { return processes.empty(); }

    /** Move the processes out (the Simulator consumes them). */
    std::vector<Process> take() { return std::move(processes); }

  private:
    std::vector<Process> processes;
};

} // namespace gaas::core

#endif // GAAS_CORE_WORKLOAD_HH
