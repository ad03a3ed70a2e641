#include "data_model.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace gaas::synth
{

namespace
{

/**
 * Place a popularity rank in its region: rank r lands about r units
 * from a per-region random head position, shuffled within small
 * blocks.
 *
 * Two properties matter and both mirror real layouts.  Hot data is
 * *compact* (rank ~ distance from the region head), so a big cache
 * holds a region's working set in a proportionate number of sets
 * rather than sprinkling it everywhere; and regions start at
 * arbitrary offsets, so the hot heads of different regions do not
 * all collide on the same low cache indices of a direct-mapped
 * cache.  The within-block shuffle keeps adjacent ranks from
 * trivially sharing one line.
 */
std::uint64_t
placeRank(std::uint64_t rank, std::uint64_t size_pow2,
          std::uint64_t head_offset)
{
    constexpr std::uint64_t block = 64;
    const std::uint64_t base = rank & ~(block - 1);
    const std::uint64_t within =
        (rank * 37 + (base >> 6) * 11) & (block - 1);
    return (head_offset + base + within) & (size_pow2 - 1);
}

} // namespace

DataModel::DataModel(const DataParams &params_, std::uint64_t seed_)
    : params(params_), seed(seed_), rng(seed_ ^ 0xda7a)
{
    auto check_frac = [](double f, const char *what) {
        if (f < 0.0 || f > 1.0)
            gaas_fatal("DataModel fraction out of range: ", what);
    };
    check_frac(params.loadStackFrac, "loadStackFrac");
    check_frac(params.loadGlobalFrac, "loadGlobalFrac");
    check_frac(params.loadArrayFrac, "loadArrayFrac");
    check_frac(params.storeStackFrac, "storeStackFrac");
    check_frac(params.storeGlobalFrac, "storeGlobalFrac");
    check_frac(params.storeArrayFrac, "storeArrayFrac");
    if (params.loadStackFrac + params.loadGlobalFrac +
            params.loadArrayFrac > 1.0 ||
        params.storeStackFrac + params.storeGlobalFrac +
            params.storeArrayFrac > 1.0) {
        gaas_fatal("DataModel region fractions exceed 1.0");
    }
    if (params.stackWords == 0 || params.globalWords == 0 ||
        params.heapWords == 0) {
        gaas_fatal("DataModel regions must be non-empty");
    }
    if (params.arrayCount > 0 && params.arrayWords == 0)
        gaas_fatal("DataModel arrayWords must be nonzero");
    if (params.heapLineWords == 0)
        gaas_fatal("DataModel heapLineWords must be nonzero");

    loadCdf = {params.loadStackFrac,
               params.loadStackFrac + params.loadGlobalFrac,
               params.loadStackFrac + params.loadGlobalFrac +
                   params.loadArrayFrac,
               1.0};
    storeCdf = {params.storeStackFrac,
                params.storeStackFrac + params.storeGlobalFrac,
                params.storeStackFrac + params.storeGlobalFrac +
                    params.storeArrayFrac,
                1.0};

    // Popularity-permuted regions round down to a power of two.
    heapLineCount = std::bit_floor(
        std::max<std::uint64_t>(params.heapWords /
                                    params.heapLineWords, 1));
    globalWordCount =
        std::bit_floor(std::max<std::uint64_t>(params.globalWords, 1));

    // Deliberately misalign array bases: a fixed pseudo-random pad
    // keeps concurrently scanned arrays from mapping onto the same
    // cache indices.
    Rng base_rng(seed ^ 0xba5e);
    arrayBaseWords.resize(params.arrayCount);
    for (unsigned i = 0; i < params.arrayCount; ++i) {
        arrayBaseWords[i] =
            static_cast<std::uint64_t>(i) * (params.arrayWords + 1024) +
            base_rng.nextBounded(2048) * 4;
    }

    // Per-region random head positions for the popularity layouts.
    globalHeadWords = base_rng.nextBounded(globalWordCount);
    heapHeadLines = base_rng.nextBounded(heapLineCount);

    globalPareto = ParetoSampler(params.globalAlpha, globalWordCount);
    heapPareto = ParetoSampler(params.heapAlpha, heapLineCount);
    stackStoreOffset = GeometricSampler(3.0);
    stackLoadOffset = GeometricSampler(10.0);

    sameLineThresh = bernoulliThreshold(params.sameLineBurstProb);
    partialStoreThresh =
        bernoulliThreshold(params.partialWordStoreFrac);
    stackCallThresh = bernoulliThreshold(0.05);
    stackReturnThresh = bernoulliThreshold(0.10);
    for (unsigned i = 0; i < 4; ++i) {
        loadCdfThresh[i] = bernoulliThreshold(loadCdf[i]);
        storeCdfThresh[i] = bernoulliThreshold(storeCdf[i]);
    }

    // Page-granular per-program region offsets (word units): distinct
    // programs must not share page colours for their hot regions, or
    // a physically-indexed direct-mapped L2 sees all processes
    // fighting for the same sets.
    globalBaseOffset = base_rng.nextBounded(64) * kPageWords;
    heapBaseOffset = base_rng.nextBounded(64) * kPageWords;
    stackBaseOffset = base_rng.nextBounded(64) * kPageWords;
    for (auto &base : arrayBaseWords)
        base += base_rng.nextBounded(64) * kPageWords;

    startState();
}

void
DataModel::startState()
{
    stackDepth = params.stackWords / 4;
    arrayWalk.assign(params.arrayCount, ArrayWalk{});
    // Stagger array walks so concurrent scans do not alias.
    const std::uint64_t seg = segmentWords();
    for (unsigned i = 0; i < params.arrayCount; ++i) {
        const std::uint64_t start =
            (params.arrayWords / (params.arrayCount + 1)) * i;
        arrayWalk[i].segStart = (start / seg) * seg;
    }
    nextArray = 0;
    lastLoadAddr = lastStoreAddr = 0;
    haveLastLoad = haveLastStore = false;
}

std::uint64_t
DataModel::segmentWords() const
{
    return std::min<std::uint64_t>(
        std::max<std::uint64_t>(params.arraySegWords, 1),
        params.arrayWords ? params.arrayWords : 1);
}

void
DataModel::reset()
{
    rng = Rng(seed ^ 0xda7a);
    startState();
}

std::uint64_t
DataModel::footprintWords() const
{
    return params.stackWords + globalWordCount +
           heapLineCount * params.heapLineWords +
           static_cast<std::uint64_t>(params.arrayCount) *
               params.arrayWords;
}

Addr
DataModel::stackAddr(bool is_store)
{
    // The frame pointer random-walks within [min, stackWords), and
    // accesses land geometrically close to the top of the current
    // frame -- so most stack traffic hits a few hot lines.
    const std::uint64_t r = rng.next64() >> 11;
    if (r < stackCallThresh) {
        // Call: push a new frame.
        const std::uint64_t frame = 4 + rng.nextBounded(28);
        stackDepth = std::min(stackDepth + frame,
                              params.stackWords - 1);
    } else if (r < stackReturnThresh) {
        // Return: pop.
        const std::uint64_t frame = 4 + rng.nextBounded(28);
        stackDepth = stackDepth > frame ? stackDepth - frame : 4;
    }
    // Register saves land at the frame top; locals and spilled
    // temporaries are read a couple of lines deeper.  The separation
    // keeps read-after-write to freshly written lines modest, as in
    // real code (it decides how much of subblock placement's gain
    // comes from reads; Section 6 puts that under 20%).
    std::uint64_t off =
        (is_store ? stackStoreOffset : stackLoadOffset).draw(rng) - 1;
    if (!is_store)
        off += 8;
    off = std::min(off, stackDepth);
    const std::uint64_t word = stackDepth - off;
    return layout::kStackTop - wordsToBytes(stackBaseOffset + word + 1);
}

Addr
DataModel::globalAddr()
{
    const std::uint64_t rank = globalPareto.draw(rng);
    return layout::kGlobalBase + wordsToBytes(globalBaseOffset) +
           wordsToBytes(placeRank(rank, globalWordCount,
                                  globalHeadWords));
}

Addr
DataModel::arrayAddr()
{
    if (params.arrayCount == 0)
        return heapAddr();
    const unsigned idx = nextArray;
    if (++nextArray == params.arrayCount)
        nextArray = 0;

    ArrayWalk &walk = arrayWalk[idx];
    const std::uint64_t seg = segmentWords();
    const std::uint64_t word = walk.segStart + walk.off;

    // Advance the blocked scan: stride within the segment, re-scan
    // the segment arraySegRepeats times, then move to the next one.
    walk.off += params.arrayStrideWords;
    if (walk.off >= seg) {
        walk.off = 0;
        if (++walk.reps >= std::max(params.arraySegRepeats, 1u)) {
            walk.reps = 0;
            walk.segStart += seg;
            if (walk.segStart + seg > params.arrayWords)
                walk.segStart = 0;
        }
    }

    // word % arrayWords without the division: the segment starts
    // inside the array and the offset stays below one segment, so
    // word < 2 * arrayWords.
    return layout::kArrayBase + wordsToBytes(arrayBaseWords[idx]) +
           wordsToBytes(word >= params.arrayWords
                            ? word - params.arrayWords
                            : word);
}

Addr
DataModel::heapAddr()
{
    const std::uint64_t rank = heapPareto.draw(rng);
    const std::uint64_t line =
        placeRank(rank, heapLineCount, heapHeadLines);
    const std::uint64_t word =
        line * params.heapLineWords +
        rng.nextBounded(params.heapLineWords);
    return layout::kHeapBase + wordsToBytes(heapBaseOffset + word);
}

Addr
DataModel::draw(bool is_store)
{
    Addr &last = is_store ? lastStoreAddr : lastLoadAddr;
    bool &have = is_store ? haveLastStore : haveLastLoad;
    if (have && (rng.next64() >> 11) < sameLineThresh) {
        // Re-touch the previous same-kind line at a nearby word.
        const Addr line = last & ~Addr{15};
        return line + wordsToBytes(rng.nextBounded(4));
    }
    // Integer-threshold form of rng.pickCumulative over the region
    // CDF (one draw either way; identical region decisions).
    const auto &cdf = is_store ? storeCdfThresh : loadCdfThresh;
    const std::uint64_t u = rng.next64() >> 11;
    unsigned region = 3;
    for (unsigned i = 0; i < 4; ++i) {
        if (u < cdf[i]) {
            region = i;
            break;
        }
    }
    Addr addr = 0;
    switch (region) {
      case kStack:
        addr = stackAddr(is_store);
        break;
      case kGlobal:
        addr = globalAddr();
        break;
      case kArray:
        addr = arrayAddr();
        break;
      default:
        addr = heapAddr();
        break;
    }
    last = addr;
    have = true;
    return addr;
}

bool
DataModel::nextStoreIsPartial()
{
    return (rng.next64() >> 11) < partialStoreThresh;
}

} // namespace gaas::synth
