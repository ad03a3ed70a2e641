/**
 * @file
 * Synthetic instruction-stream model.
 *
 * CodeModel builds a random static program (procedures containing
 * nested loops, straight-line runs, and calls into an acyclic call
 * graph) and then walks it, producing one instruction address per
 * step.  The structure gives the stream the locality hierarchy real
 * code has: tight inner loops dominate, outer loops revisit larger
 * regions, and calls make occasional excursions into colder
 * procedures whose popularity is Zipf-skewed.
 */

#ifndef GAAS_SYNTH_CODE_MODEL_HH
#define GAAS_SYNTH_CODE_MODEL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "synth/params.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace gaas::synth
{

/** Synthetic program + walker; see file comment. */
class CodeModel
{
  public:
    /**
     * Build the static program and position the walker at the entry.
     *
     * @param params structure parameters
     * @param seed   PRNG seed; the same seed always builds the same
     *               program and replays the same walk
     */
    CodeModel(const CodeParams &params, std::uint64_t seed);

    /** @return the next instruction address (never exhausts: the
     *  program's main procedure restarts when it completes). */
    Addr
    nextPc()
    {
        // Fast path: still inside the current straight-line run.
        if (runPos < runLen)
            return runBase + wordsToBytes(runPos++);
        return walkToNextRun();
    }

    /** Restart the walk (same program, same draw sequence). */
    void reset();

    /** Static code footprint actually generated, in words. */
    std::uint64_t footprintWords() const { return totalWords; }

    /** Number of procedures generated. */
    std::size_t procedureCount() const { return procs.size(); }

  private:
    /** Structure node kinds. */
    enum class NodeKind : std::uint8_t { Run, Loop, Call };

    struct Node
    {
        NodeKind kind;
        // Run: length in words and offset within the procedure.
        std::uint32_t runLen = 0;
        std::uint32_t runOffset = 0;
        // Loop: children + trip-count sampler (shared per mean).
        std::vector<std::uint32_t> children;
        GeometricSampler iters;
        // Call: callee procedure id.
        std::uint32_t callee = 0;
    };

    struct Proc
    {
        std::vector<std::uint32_t> body; //!< top-level node sequence
        Addr base = 0;                   //!< byte address of the text
        std::uint32_t sizeWords = 0;     //!< laid-out size
    };

    /** One level of the walker's control stack. */
    struct Frame
    {
        std::uint32_t procId;      //!< procedure whose text we're in
        const std::vector<std::uint32_t> *seq; //!< node sequence
        std::uint32_t idx;         //!< next item in seq
        std::uint64_t itersLeft;   //!< remaining repeats of seq
    };

    /** Slow path of nextPc(): advance the control stack until a new
     *  run starts and return its first instruction address. */
    Addr walkToNextRun();

    /** @param iters loop trip-count samplers built so far, one per
     *  distinct mean */
    std::vector<std::uint32_t>
    buildSeq(std::uint32_t proc_id, unsigned depth,
             std::uint64_t &budget_words,
             std::unordered_map<double, GeometricSampler> &iters);
    std::uint32_t layoutProc(Proc &proc, std::uint32_t offset,
                             const std::vector<std::uint32_t> &seq);
    void startWalk();

    CodeParams params;
    std::uint64_t seed;
    Rng buildRng;  //!< consumed at construction only
    Rng walkRng;   //!< consumed by the walker; reseeded by reset()

    std::vector<Node> nodes;
    std::vector<Proc> procs;
    /** Jump-popularity rank -> procedure id (fixed permutation, so
     *  the hot set is scattered through the text image). */
    std::vector<std::uint32_t> jumpOrder;
    /** Precomputed jump-target popularity distribution. */
    ParetoSampler jumpPareto;
    std::uint64_t totalWords = 0;

    std::vector<Frame> stack;
    // Current straight-line run being executed.
    Addr runBase = 0;          //!< byte address of the run
    std::uint32_t runPos = 0;  //!< next word within the run
    std::uint32_t runLen = 0;  //!< words in the run
};

} // namespace gaas::synth

#endif // GAAS_SYNTH_CODE_MODEL_HH
