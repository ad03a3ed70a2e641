/**
 * @file
 * Deterministic pseudo-random number generation for the synthetic
 * workload generator.
 *
 * Reproducibility is a hard requirement: every figure in
 * EXPERIMENTS.md must regenerate bit-identically from a fixed seed, so
 * the generator is a self-contained xoshiro256** implementation (we do
 * not rely on std::mt19937 distribution objects, whose outputs are not
 * pinned down by the standard).
 */

#ifndef GAAS_UTIL_RANDOM_HH
#define GAAS_UTIL_RANDOM_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace gaas
{

/**
 * xoshiro256** pseudo-random generator with SplitMix64 seeding.
 *
 * Passes BigCrush; period 2^256 - 1; each instance is seeded from a
 * single 64-bit value so benchmark specs can carry one seed.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return the next raw 64-bit draw. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /** @return a uniform draw in [0, bound); bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t
    nextRange(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        nextBounded(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** @return a uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool
    nextBernoulli(double p)
    {
        return nextDouble() < p;
    }

    /**
     * Geometric draw with mean @p mean (support {1, 2, ...}).
     *
     * Used for basic-block lengths and loop trip counts, which the
     * code model treats as geometrically distributed around the
     * per-benchmark average.
     */
    std::uint64_t nextGeometric(double mean);

    /**
     * Bounded Pareto-tail draw over [0, bound): returns an index whose
     * probability decays as a power law with shape @p alpha.
     *
     * This is the workhorse of the data-reference model: drawing a
     * "line popularity rank" from a heavy-tailed distribution gives
     * address streams whose miss ratio keeps improving with cache size
     * over several orders of magnitude -- the behaviour Table 2 of the
     * paper shows for the L2 sweep.  Smaller alpha = heavier tail =
     * a larger working set.
     */
    std::uint64_t nextParetoIndex(double alpha, std::uint64_t bound);

    /**
     * Pick an index from a small table of cumulative weights
     * (cumulative[i] is the inclusive upper edge of class i, with
     * cumulative.back() == 1.0).
     */
    unsigned pickCumulative(std::span<const double> cumulative);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state;
};

/**
 * Integer threshold t such that, for k = next64() >> 11,
 * (k < t) == (nextDouble() < p) for every possible draw.
 *
 * nextDouble() returns k * 2^-53 with k < 2^53, both exact, so
 * u < p iff k < p * 2^53 (as reals).  p * 2^53 is an exact double
 * (power-of-two scaling), and comparing the integer k against its
 * ceiling is equivalent whether or not it is itself an integer.
 * Lets a hot loop replace a bernoulli draw's int-to-double
 * conversion and double compare with one integer compare while
 * consuming identical PRNG state.
 */
inline std::uint64_t
bernoulliThreshold(double p)
{
    if (p <= 0.0)
        return 0;
    const double scaled = p * 0x1.0p53;
    if (scaled >= 0x1.0p53)
        return 1ull << 53; // always true: every k is below 2^53
    return static_cast<std::uint64_t>(std::ceil(scaled));
}

/**
 * Exact inverse-transform table for a draw that maps the 53-bit
 * uniform k = next64() >> 11 monotonically onto a small integer
 * (ParetoSampler, GeometricSampler).
 *
 * The draw's value changes only where its libm expression crosses an
 * integer.  The table stores, for every crossing b = 0..regions(), the
 * end hi(b) of a guard band [hi(b) - width(), hi(b)) placed around it
 * from the analytic inverse CDF in extended precision.  Between the
 * bands the value is constant and known: region b spans
 * [hi(b), hi(b + 1) - width()).  Inside a band, and past the last
 * crossing, lookup() answers kMiss and the sampler runs the libm
 * expression itself, so every k yields exactly the value the
 * expression would.  The bands are far wider than the libm error
 * bound (see DESIGN.md, "Exact sampler tables"); a guide table
 * indexed by the top bits of k starts the scan next to the answer.
 *
 * Tables are immutable and shared process-wide, one per distinct
 * parameter set (see drawTableBytes()).
 */
class DrawTable
{
  public:
    /** lookup() result for a draw the table does not answer. */
    static constexpr std::uint64_t kMiss = ~std::uint64_t{0};

    /** Largest number of regions a table holds (guide entries are
     *  16-bit). */
    static constexpr std::uint64_t kMaxRegions = 4096;

    /**
     * @param lo, hi  guard band [lo[b], hi[b]) of every crossing
     *        b = 0..n, where n = lo.size() - 1 regions lie between
     *        them: every k < lo[b] draws a value below region b's and
     *        every k >= hi[b] one at or above it
     */
    DrawTable(const std::vector<std::uint64_t> &lo,
              const std::vector<std::uint64_t> &hi);

    /** @return the region of @p k (k < 2^53), or kMiss */
    std::uint64_t
    lookup(std::uint64_t k) const
    {
        std::uint64_t b = guide[k >> guideShift];
        const std::uint64_t reach = k + bandWidth;
        while (bandEnd[b + 1] <= reach)
            ++b;
        if (b >= regionCount || k < bandEnd[b])
            return kMiss;
        return b;
    }

    /** Number of regions the table answers. */
    std::uint64_t regions() const { return regionCount; }

    /** End of crossing @p b's guard band (b <= regions()). */
    std::uint64_t hi(std::uint64_t b) const { return bandEnd[b]; }

    /** Common guard-band width: crossing b's band is
     *  [hi(b) - width(), hi(b)). */
    std::uint64_t width() const { return bandWidth; }

  private:
    std::uint64_t regionCount = 0;
    std::uint64_t bandWidth = 0;
    unsigned guideShift = 0;
    /** hi(0..regions()), then a sentinel that stops every scan. */
    std::vector<std::uint64_t> bandEnd;
    /** guide[g]: the last crossing whose band starts at or below
     *  g << guideShift. */
    std::vector<std::uint16_t> guide;
};

/** Heap bytes held by all shared DrawTables (at most 1 MiB: past that
 *  budget, samplers of new parameter sets run libm on every draw). */
std::size_t drawTableBytes();

/**
 * Precomputed bounded-Pareto sampler over [0, bound).
 *
 * draw() is bit-identical to Rng::nextParetoIndex(alpha, bound) for
 * the same Rng state and consumes the same PRNG state.  The
 * distribution's invariants (the bound^-alpha tail, the -1/alpha
 * exponent) are computed once by the same expressions, and a shared
 * DrawTable answers nearly every draw without the per-draw std::pow.
 */
class ParetoSampler
{
  public:
    ParetoSampler() = default;

    ParetoSampler(double alpha, std::uint64_t bound);

    /** One draw; consumes exactly the PRNG state
     *  nextParetoIndex(alpha, bound) would. */
    std::uint64_t
    draw(Rng &rng) const
    {
        if (!table)
            return drawUntabled(rng);
        return at(rng.next64() >> 11);
    }

    /** The draw for uniform k = next64() >> 11 (alpha > 0 and
     *  bound > 1), through the table where it answers. */
    std::uint64_t
    at(std::uint64_t k) const
    {
        const std::uint64_t idx =
            table ? table->lookup(k) : DrawTable::kMiss;
        return idx != DrawTable::kMiss ? idx : exact(k);
    }

    /** The shared table, or null (degenerate parameters, or the
     *  table budget is spent). */
    const DrawTable *drawTable() const { return table; }

  private:
    /** The libm expression of nextParetoIndex for uniform k. */
    std::uint64_t exact(std::uint64_t k) const;

    /** nextParetoIndex's degenerate cases, and the no-table path. */
    std::uint64_t drawUntabled(Rng &rng) const;

    double alpha = 0.0;
    std::uint64_t bound = 0;
    double scale = 0.0; //!< 1 - bound^-alpha
    double negInvAlpha = 0.0;
    const DrawTable *table = nullptr;
};

/**
 * Precomputed geometric sampler with a fixed mean (support {1, 2,
 * ...}).  draw() is bit-identical to Rng::nextGeometric(mean) for the
 * same Rng state: it caches the log1p(-1/mean) denominator that
 * nextGeometric recomputes per draw, and a shared DrawTable answers
 * nearly every draw without the per-draw std::log1p.
 */
class GeometricSampler
{
  public:
    GeometricSampler() = default;

    explicit GeometricSampler(double mean);

    /** One draw; consumes exactly the PRNG state
     *  nextGeometric(mean) would. */
    std::uint64_t
    draw(Rng &rng) const
    {
        if (mean <= 1.0)
            return 1;
        return at(rng.next64() >> 11);
    }

    /** The draw for uniform k = next64() >> 11 (mean > 1). */
    std::uint64_t
    at(std::uint64_t k) const
    {
        const std::uint64_t region =
            table ? table->lookup(k) : DrawTable::kMiss;
        return region != DrawTable::kMiss ? region + 1 : exact(k);
    }

    /** The shared table, or null. */
    const DrawTable *drawTable() const { return table; }

  private:
    /** The libm expression of nextGeometric for uniform k. */
    std::uint64_t exact(std::uint64_t k) const;

    double mean = 0.0;
    double denom = -1.0;
    const DrawTable *table = nullptr;
};

/**
 * Bresenham-style accumulator that converts a fractional per-event
 * cost into a deterministic integer sequence.
 *
 * The CPU-stall component of CPI (loads, branch delays, multi-cycle
 * FP ops) averages 0.238 cycles per instruction in the paper's base
 * machine.  Instead of accumulating a float (whose rounding would make
 * cycle counts depend on summation order) each instruction charges
 * either floor(rate) or floor(rate)+1 cycles such that the long-run
 * average is exactly @p rate.
 */
class FractionAccumulator
{
  public:
    /** @param rate average cycles per event; must be >= 0. */
    explicit FractionAccumulator(double rate = 0.0) { setRate(rate); }

    /** Change the per-event rate (resets the residue). */
    void
    setRate(double rate)
    {
        whole = static_cast<std::uint64_t>(rate);
        // Fixed-point residue in units of 2^-32.
        frac = static_cast<std::uint64_t>(
            (rate - static_cast<double>(whole)) * 4294967296.0);
        residue = 0;
    }

    /** Charge one event; @return the integer cycles for this event. */
    std::uint64_t
    tick()
    {
        residue += frac;
        std::uint64_t carry = residue >> 32;
        residue &= 0xffffffffull;
        return whole + carry;
    }

    /** Reset the fractional residue (e.g. at a measurement boundary). */
    void
    reset()
    {
        residue = 0;
    }

  private:
    std::uint64_t whole = 0;
    std::uint64_t frac = 0;     //!< fractional part, Q32
    std::uint64_t residue = 0;  //!< running residue, Q32
};

} // namespace gaas

#endif // GAAS_UTIL_RANDOM_HH
