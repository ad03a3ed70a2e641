#include "simulator.hh"

#include "obs/metrics.hh"
#include "trace/packed.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::core
{

Simulator::Simulator(const SystemConfig &config, Workload workload)
    : cfg(config), sys(config)
{
    auto processes = workload.take();
    if (processes.empty())
        gaas_fatal("Simulator requires at least one process");
    procs.reserve(processes.size());
    for (auto &p : processes) {
        ProcState state;
        state.stallAcc.setRate(p.baseCpi - 1.0);
        state.proc = std::move(p);
        procs.push_back(std::move(state));
    }
    alive = procs.size();
    sliceEnd = cfg.timeSliceCycles;

    loops = pickLoop();
}

void
Simulator::setForceGenericPath(bool force)
{
    forceGeneric = force;
    loops = pickLoop();
}

Simulator::LoopFns
Simulator::pickLoop()
{
    genericPath = true;
    if (forceGeneric)
        return loopFnsFor<GenericAccessSpec>();

    // Specialization needs both L1s in one geometry class, so the
    // whole probe-path choice folds at compile time; mixed
    // geometries (never used by the paper's design study) fall back
    // to the generic path.
    const bool dm = cfg.l1i.assoc == 1 && cfg.l1d.assoc == 1;
    const bool sa = cfg.l1i.assoc > 1 && cfg.l1d.assoc > 1;
    if (!dm && !sa)
        return loopFnsFor<GenericAccessSpec>();

    genericPath = false;
    switch (cfg.writePolicy) {
      case WritePolicy::WriteBack:
        return dm ? loopFnsFor<
                        FastAccessSpec<true, WritePolicy::WriteBack>>()
                  : loopFnsFor<FastAccessSpec<
                        false, WritePolicy::WriteBack>>();
      case WritePolicy::WriteMissInvalidate:
        return dm ? loopFnsFor<FastAccessSpec<
                        true, WritePolicy::WriteMissInvalidate>>()
                  : loopFnsFor<FastAccessSpec<
                        false, WritePolicy::WriteMissInvalidate>>();
      case WritePolicy::WriteOnly:
        return dm ? loopFnsFor<
                        FastAccessSpec<true, WritePolicy::WriteOnly>>()
                  : loopFnsFor<FastAccessSpec<
                        false, WritePolicy::WriteOnly>>();
      case WritePolicy::SubblockPlacement:
        return dm ? loopFnsFor<FastAccessSpec<
                        true, WritePolicy::SubblockPlacement>>()
                  : loopFnsFor<FastAccessSpec<
                        false, WritePolicy::SubblockPlacement>>();
    }
    genericPath = true;
    return loopFnsFor<GenericAccessSpec>();
}

bool
Simulator::refill(ProcState &p)
{
    // Packed replay first: arena-backed sources hand over raw
    // 4-byte words (trace/packed.hh) the step loop decodes in
    // registers, skipping the per-record MemRef unpack entirely.
    // The first refill against a source with no packed path latches
    // packedMode off for the process's lifetime.
    if (p.packedMode) {
        const std::size_t got = p.proc.source->nextBatchPacked(
            p.pbuffer.data(), kRefBatch);
        if (got != trace::TraceSource::kNoPacked) {
            p.bufLen = got;
            p.bufPos = 0;
            return got > 0;
        }
        p.packedMode = false;
    }

    p.bufLen = p.proc.source->nextBatch(p.buffer.data(), kRefBatch);
    p.bufPos = 0;
    return p.bufLen > 0;
}

template <class Spec, Mode M>
bool
Simulator::stepInstruction(ProcState &p, Cycles now, Cycles &cycles,
                           bool &syscall)
{
    // Work on the refill buffer in place: one bounds check per ref,
    // no 16-byte MemRef copies, and in packed mode the record
    // decodes straight into registers.  The per-ref packedMode
    // branches cost nothing: the flag is constant per process, so
    // the host predicts them perfectly.
    if (p.bufPos == p.bufLen && !refill(p)) [[unlikely]]
        return false;

    const auto malformed = [&]() [[noreturn]] {
        gaas_fatal("malformed trace for process ", p.proc.name,
                   ": data reference without a preceding "
                   "instruction");
    };

    // A refill below would overwrite the buffer slot the
    // instruction record occupies; decode everything needed into
    // locals first.
    Addr iaddr;
    if (p.packedMode) {
        const std::uint32_t w = p.pbuffer[p.bufPos++];
        if (!trace::packed::isInst(w)) [[unlikely]]
            malformed();
        iaddr = trace::packed::addrOf(w);
        syscall = trace::packed::flagOf(w);
    } else {
        const trace::MemRef &ref = p.buffer[p.bufPos++];
        if (!ref.isInst()) [[unlikely]]
            malformed();
        iaddr = ref.addr;
        syscall = ref.syscall;
    }

    // Base cost: one cycle plus this benchmark's CPU stalls (loads,
    // branch delays, multi-cycle FP).  The base cycles keep the
    // clock moving in warm mode too, so write-buffer completion
    // times and the scheduler stay meaningful; the memory system
    // then adds nothing (a warm access returns 0).
    const Cycles stall_cycles = p.stallAcc.tick();
    if constexpr (M == Mode::Detail)
        cpuStallCycles += stall_cycles;
    cycles = 1 + stall_cycles;

    cycles += sys.ifetchT<Spec, M>(now, p.proc.pid, iaddr);

    // At most one data reference belongs to this instruction (it may
    // sit in the next batch; a failed refill leaves the buffer empty
    // and the instruction simply has no data ref).
    if (p.bufPos == p.bufLen) [[unlikely]]
        refill(p);
    if (p.bufPos < p.bufLen) [[likely]] {
        if (p.packedMode) {
            const std::uint32_t w = p.pbuffer[p.bufPos];
            const trace::RefKind kind = trace::packed::kindOf(w);
            if (kind != trace::RefKind::Inst) {
                ++p.bufPos;
                const Addr daddr = trace::packed::addrOf(w);
                if (kind == trace::RefKind::Load) {
                    cycles += sys.loadT<Spec, M>(now + cycles,
                                                 p.proc.pid, daddr);
                } else {
                    cycles += sys.storeT<Spec, M>(
                        now + cycles, p.proc.pid, daddr,
                        trace::packed::flagOf(w));
                }
            }
        } else {
            const trace::MemRef &dref = p.buffer[p.bufPos];
            if (dref.isData()) {
                ++p.bufPos;
                if (dref.isLoad()) {
                    cycles += sys.loadT<Spec, M>(
                        now + cycles, p.proc.pid, dref.addr);
                } else {
                    cycles += sys.storeT<Spec, M>(
                        now + cycles, p.proc.pid, dref.addr,
                        dref.partialWord);
                }
            }
        }
    }

    ++p.instructions;
    return true;
}

void
Simulator::runLoop(Count n)
{
    (this->*loops.detail)(n);
}

template <class Spec, Mode M>
void
Simulator::runLoopT(Count n)
{
    // Warm mode keeps the scheduler -- processes still interleave on
    // slices and syscalls, so the warmed hierarchy sees the
    // interleaving the measurement will -- and drops the watchdog
    // and every measured counter.
    auto next_alive = [&](std::size_t from) {
        std::size_t idx = from;
        do {
            idx = (idx + 1) % procs.size();
        } while (!procs[idx].alive);
        return idx;
    };

    if (!procs[current].alive && alive > 0)
        current = next_alive(current);

    Count executed = 0;
    while (executed < n && alive > 0) {
        ProcState &p = procs[current];

        Cycles cycles = 0;
        bool syscall = false;
        if (!stepInstruction<Spec, M>(p, now, cycles, syscall)) {
            // Trace exhausted (non-looping workload): retire the
            // process and hand the CPU to the next one.
            p.alive = false;
            --alive;
            if (alive == 0)
                break;
            current = next_alive(current);
            sliceEnd = now + cfg.timeSliceCycles;
            continue;
        }

        if constexpr (M == Mode::Detail) {
            if (watchdogCycles != 0 && cycles > watchdogCycles)
                [[unlikely]] {
                gaas_error(ErrorCode::Watchdog, "config '", cfg.name,
                           "': one instruction cost ", cycles,
                           " cycles (watchdog budget ",
                           watchdogCycles, ")");
            }
            ++instructions;
        }

        now += cycles;
        ++executed;

        // A voluntary system call switches immediately; otherwise
        // the process runs out its time slice (Section 3).
        if (syscall || now >= sliceEnd) [[unlikely]] {
            if constexpr (M == Mode::Detail) {
                ++contextSwitches;
                if (syscall)
                    ++syscallSwitches;
            }
            if (alive > 1)
                current = next_alive(current);
            sliceEnd = now + cfg.timeSliceCycles;
        }
    }
}

void
Simulator::runWarm(Count instructions_)
{
    (this->*loops.warm)(instructions_);
}

void
Simulator::selectProcess(std::size_t index)
{
    if (procs.empty() || alive == 0)
        return;
    index %= procs.size();
    for (std::size_t step = 0; step < procs.size(); ++step) {
        const std::size_t cand = (index + step) % procs.size();
        if (procs[cand].alive) {
            current = cand;
            break;
        }
    }
    sliceEnd = now + cfg.timeSliceCycles;
}

void
Simulator::resyncProcess(ProcState &p)
{
    // A skip can land mid-instruction (between an Inst record and
    // its data record); drop records until the stream stands at the
    // next instruction so the step loop's grammar holds.
    while (true) {
        if (p.bufPos == p.bufLen && !refill(p))
            return; // exhausted; the step loop retires the process
        if (p.packedMode) {
            if (trace::packed::isInst(p.pbuffer[p.bufPos]))
                return;
        } else {
            if (p.buffer[p.bufPos].isInst())
                return;
        }
        ++p.bufPos;
    }
}

void
Simulator::fastForward(const std::vector<Count> &per_process_refs)
{
    if (per_process_refs.size() != procs.size()) {
        gaas_fatal("fastForward wants one ref count per process (",
                   procs.size(), "), got ",
                   per_process_refs.size());
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
        ProcState &p = procs[i];
        Count want = per_process_refs[i];
        if (want == 0 || !p.alive)
            continue;
        // Consume what the refill buffer already holds, then seek
        // the source for the rest.
        const Count buffered =
            static_cast<Count>(p.bufLen - p.bufPos);
        if (want <= buffered) {
            p.bufPos += static_cast<std::size_t>(want);
        } else {
            p.bufPos = 0;
            p.bufLen = 0;
            p.proc.source->skip(
                static_cast<std::size_t>(want - buffered));
        }
        resyncProcess(p);
    }
    // The jump invalidates the running slice; start a fresh one.
    sliceEnd = now + cfg.timeSliceCycles;
}

void
Simulator::resetMeasurement()
{
    sys.resetStats();
    cpuStallCycles = 0;
    instructions = 0;
    contextSwitches = 0;
    syscallSwitches = 0;
    measureStartCycle = now;
}

SimResult
Simulator::run(Count total_instructions, Count warmup_instructions)
{
    const obs::Stopwatch wall;
    if (warmup_instructions > 0) {
        runLoop(warmup_instructions);
        resetMeasurement();
    }
    runLoop(total_instructions);
    const double loop_seconds = wall.seconds();

    SimResult res;
    {
        // Attribute result assembly (stats gathering) separately from
        // the simulation loop, so sweep telemetry can show where the
        // host time went.
        obs::ScopedTimer stats_timer(res.hostStatsSeconds);
        res.configName = cfg.name;
        res.instructions = instructions;
        res.cycles = now - measureStartCycle;
        res.cpuStallCycles = cpuStallCycles;
        res.contextSwitches = contextSwitches;
        res.syscallSwitches = syscallSwitches;
        res.comp = sys.components();
        res.sys = sys.stats();
    }
    res.hostSeconds = loop_seconds;
    return res;
}

SimResult
runStandard(const SystemConfig &config, Count total_instructions,
            unsigned mp_level, Count warmup_instructions)
{
    Simulator sim(config,
                  Workload::standard(mp_level,
                                     warmup_instructions +
                                         total_instructions));
    return sim.run(total_instructions, warmup_instructions);
}

} // namespace gaas::core
