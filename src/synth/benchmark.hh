/**
 * @file
 * BenchmarkSpec (the Table-1 row of a workload) and
 * SyntheticBenchmark (the TraceSource that plays it).
 */

#ifndef GAAS_SYNTH_BENCHMARK_HH
#define GAAS_SYNTH_BENCHMARK_HH

#include <memory>
#include <string>

#include "synth/code_model.hh"
#include "synth/data_model.hh"
#include "trace/source.hh"

namespace gaas::synth
{

/** Source-language tag (display only; Table 1 lists C and FORTRAN). */
enum class Lang : std::uint8_t { C, Fortran };

/** Arithmetic class, as annotated in Table 1. */
enum class ArithClass : std::uint8_t {
    Integer,        //!< (I)
    SingleFloat,    //!< (S)
    DoubleFloat,    //!< (D)
};

/** @return the Table-1 suffix for @p c: "(I)", "(S)" or "(D)". */
const char *arithClassTag(ArithClass c);

/**
 * Everything that defines one benchmark of the multiprogramming
 * workload: the Table-1 characteristics it reports, the per-
 * instruction CPU-stall rate that reproduces the paper's 1.238 base
 * CPI, and the synthetic model parameters.
 */
struct BenchmarkSpec
{
    std::string name;
    std::string description;
    Lang lang = Lang::C;
    ArithClass arith = ArithClass::Integer;

    /** Paper-scale instruction count in millions (Table 1 column;
     *  display/bookkeeping only -- simulations run simInstructions). */
    double paperInstructionsM = 0.0;

    /** Instructions per pass of the synthetic trace (scaled down from
     *  the paper's billions so a full study runs on a laptop). */
    Count simInstructions = 4'000'000;

    /** Probability an instruction is a load / a store.  The suite is
     *  tuned so the workload-wide store fraction is about 0.0725, the
     *  figure Section 6 of the paper quotes. */
    double loadFrac = 0.20;
    double storeFrac = 0.07;

    /** Voluntary system calls per million instructions (Table 1's
     *  "# System calls" scaled by instruction count); each one forces
     *  a context switch, pessimistically, as in the paper. */
    double syscallsPerMInstr = 2.0;

    /** CPU-stall component of CPI: loads, branch and FP delays.  The
     *  weighted suite average reproduces the paper's 1.238. */
    double baseCpi = 1.238;

    CodeParams code;
    DataParams data;

    std::uint64_t seed = 1;

    /** Table-1 style "# System calls" for the paper-scale run. */
    double paperSyscalls() const
    {
        return syscallsPerMInstr * paperInstructionsM;
    }
};

/**
 * A TraceSource that plays one BenchmarkSpec: emits an Inst record
 * per instruction (PCs from CodeModel) followed by at most one
 * Load/Store record (addresses from DataModel), until the pass's
 * simInstructions are exhausted.
 */
class SyntheticBenchmark : public trace::TraceSource
{
  public:
    explicit SyntheticBenchmark(BenchmarkSpec spec);

    bool next(trace::MemRef &ref) override;
    std::size_t nextBatch(trace::MemRef *out,
                          std::size_t n) override;

    /**
     * The same records as nextBatch(), emitted straight as packed
     * words (the trace arena's storage format).  An address at or
     * above 2^31 -- a spec whose regions, or a store burst that runs
     * off a region's end, reach past it -- is the ingest rule's
     * SimError(TraceIO) naming the record (trace/source.hh), not a
     * truncated word.
     */
    std::size_t nextBatchPacked(std::uint32_t *out,
                                std::size_t n) override;

    void reset() override;
    std::string name() const override;

    const BenchmarkSpec &spec() const { return benchSpec; }

    /** The instruction-stream model (exposed for tests). */
    const CodeModel &codeModel() const { return code; }

  private:
    /** The generator loop behind both batch calls; ORs every
     *  emitted address into *@p addrs when it is non-null. */
    template <typename Out>
    std::size_t generate(Out *out, std::size_t n,
                         Addr *addrs = nullptr);

    BenchmarkSpec benchSpec;
    CodeModel code;
    DataModel data;
    Rng mixRng;

    // Per-instruction invariants hoisted out of the hot path (the
    // spec is immutable after construction).
    double syscallProb = 0.0;
    double burstMean = 1.0;
    double storeTrigger = 0.0;
    GeometricSampler burstLen;

    // Exact integer forms of the per-instruction bernoulli tests,
    // used by the batched loop (see bernoulliThreshold).
    std::uint64_t syscallThresh = 0;
    std::uint64_t loadThresh = 0;
    std::uint64_t dataThresh = 0;

    Count instructionsEmitted = 0;
    trace::MemRef pendingData;
    bool havePending = false;

    /** Remaining stores of the current word-sequential burst. */
    Count storeBurstLeft = 0;
    Addr storeBurstAddr = 0;
};

/** Deep-copyable factory: build a fresh source for @p spec. */
std::unique_ptr<trace::TraceSource>
makeBenchmark(const BenchmarkSpec &spec);

/**
 * Stable hex digest over every field of @p spec (model parameters,
 * seed, budgets).  Two specs with the same digest produce the same
 * reference stream, which is what makes it a safe cache key for the
 * trace arena.
 */
std::string specDigest(const BenchmarkSpec &spec);

} // namespace gaas::synth

#endif // GAAS_SYNTH_BENCHMARK_HH
