/**
 * @file
 * Synthetic data-reference model.
 *
 * DataModel draws load/store addresses from four region models --
 * stack, globals, strided arrays, and a Pareto-popular heap -- whose
 * mix and footprints are set per benchmark (see DataParams).  The
 * model's purpose is to give the cache hierarchy realistic miss-ratio
 * versus size behaviour over the 16KW..1024KW range the paper sweeps.
 */

#ifndef GAAS_SYNTH_DATA_MODEL_HH
#define GAAS_SYNTH_DATA_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "synth/params.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace gaas::synth
{

/** Synthetic data-address generator; see file comment. */
class DataModel
{
  public:
    /**
     * @param params region parameters
     * @param seed   PRNG seed (same seed -> same address stream)
     */
    DataModel(const DataParams &params, std::uint64_t seed);

    /** @return the next load address. */
    Addr
    nextLoad()
    {
        return draw(false);
    }

    /** @return the next store address. */
    Addr
    nextStore()
    {
        return draw(true);
    }

    /** @return true if the next store should be a partial-word
     *  write (consumes a PRNG draw; call once per store). */
    bool nextStoreIsPartial();

    /** Restart the stream (deterministically). */
    void reset();

    /** Total data footprint in words across all regions. */
    std::uint64_t footprintWords() const;

  private:
    enum Region : unsigned { kStack = 0, kGlobal, kArray, kHeap };

    Addr draw(bool is_store);
    Addr stackAddr(bool is_store);
    Addr globalAddr();
    Addr arrayAddr();
    Addr heapAddr();
    void startState();
    std::uint64_t segmentWords() const;

    // Popularity-rank draws are scattered over their region by a
    // fixed odd-multiplier permutation; without it, hot ranks of
    // every region would pile onto the same low cache indices and
    // thrash a direct-mapped cache in a way no real program does.
    std::uint64_t heapLineCount;   //!< power of two
    std::uint64_t globalWordCount; //!< power of two
    std::uint64_t heapHeadLines = 0;
    std::uint64_t globalHeadWords = 0;
    std::uint64_t globalBaseOffset = 0; //!< words
    std::uint64_t heapBaseOffset = 0;   //!< words
    std::uint64_t stackBaseOffset = 0;  //!< words
    std::vector<std::uint64_t> arrayBaseWords;

    DataParams params;
    std::uint64_t seed;
    Rng rng;

    std::array<double, 4> loadCdf;
    std::array<double, 4> storeCdf;

    // Draw-invariant sampler state hoisted out of the per-reference
    // path (see ParetoSampler/GeometricSampler in util/random.hh).
    ParetoSampler globalPareto;
    ParetoSampler heapPareto;
    GeometricSampler stackStoreOffset;
    GeometricSampler stackLoadOffset;

    // Exact integer-threshold forms of the per-draw double compares
    // (see bernoulliThreshold): same decisions from the same draws.
    std::uint64_t sameLineThresh = 0;
    std::uint64_t partialStoreThresh = 0;
    std::uint64_t stackCallThresh = 0;
    std::uint64_t stackReturnThresh = 0;
    std::array<std::uint64_t, 4> loadCdfThresh{};
    std::array<std::uint64_t, 4> storeCdfThresh{};

    // Stack state: a random-walking frame pointer (word offset below
    // the stack top).
    std::uint64_t stackDepth = 0;

    // Array state: per-array blocked scan (see DataParams).
    struct ArrayWalk
    {
        std::uint64_t segStart = 0; //!< word offset of the segment
        std::uint64_t off = 0;      //!< word offset within segment
        unsigned reps = 0;          //!< re-scans completed
    };
    std::vector<ArrayWalk> arrayWalk;
    unsigned nextArray = 0;

    // Burst state: occasionally re-touch the previous same-kind
    // line.  Loads re-touch recently loaded lines and stores
    // recently stored ones; cross-kind re-touches (read-after-write)
    // are much rarer in real code and would distort the write-only
    // vs subblock comparison (Section 6).
    Addr lastLoadAddr = 0;
    Addr lastStoreAddr = 0;
    bool haveLastLoad = false;
    bool haveLastStore = false;
};

} // namespace gaas::synth

#endif // GAAS_SYNTH_DATA_MODEL_HH
