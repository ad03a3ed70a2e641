#include "random.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "logging.hh"

namespace gaas
{

namespace
{

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
    // xoshiro must not be seeded with the all-zero state.
    if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0)
        state[0] = 1;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound == 0)
        gaas_panic("Rng::nextBounded called with bound 0");
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = next64();
    unsigned __int128 m =
        static_cast<unsigned __int128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        std::uint64_t threshold = (0 - bound) % bound;
        while (lo < threshold) {
            x = next64();
            m = static_cast<unsigned __int128>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::nextGeometric(double mean)
{
    if (mean <= 1.0)
        return 1;
    // P(X = k) = (1-p)^(k-1) p with p = 1/mean; inverse transform.
    const double p = 1.0 / mean;
    double u = nextDouble();
    // Guard against log(0).
    if (u >= 1.0)
        u = 0x1.fffffffffffffp-1;
    double k = std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
    if (k < 1.0)
        k = 1.0;
    // Clamp to a sane upper bound so pathological draws cannot wedge
    // a trace generator loop.
    if (k > 1e12)
        k = 1e12;
    return static_cast<std::uint64_t>(k);
}

std::uint64_t
Rng::nextParetoIndex(double alpha, std::uint64_t bound)
{
    if (bound == 0)
        gaas_panic("Rng::nextParetoIndex called with bound 0");
    if (bound == 1)
        return 0;
    if (alpha <= 0.0)
        return nextBounded(bound);
    // Inverse-transform a truncated Pareto over [1, bound + 1):
    //   x = (1 - u (1 - B^-alpha))^(-1/alpha), index = floor(x) - 1.
    const double b = static_cast<double>(bound);
    const double tail = std::pow(b, -alpha);
    double u = nextDouble();
    double x = std::pow(1.0 - u * (1.0 - tail), -1.0 / alpha);
    auto idx = static_cast<std::uint64_t>(x) - 1;
    if (idx >= bound)
        idx = bound - 1;
    return idx;
}

namespace
{

/**
 * Relative half-width of a guard band, in the units of the draw's
 * value (the Pareto x, the geometric ratio).  Outside a band the
 * value lies at least this far from an integer, some 2^12 ulps, so a
 * libm result within a few ulps of the true value floors the same way
 * (DESIGN.md, "Exact sampler tables").
 */
constexpr long double kGuard = 0x1p-40L;

/** Regions per table: the Pareto head and the geometric body beyond
 *  which a draw is rare enough to pay libm. */
constexpr std::uint64_t kParetoRegions = 512;
constexpr std::uint64_t kGeometricRegions = 64;

/** Shared-table budget (drawTableBytes()). */
constexpr std::size_t kTableBudget = std::size_t{1} << 20;

/** k = 2^53: one past the largest uniform draw. */
constexpr long double kDraws = 0x1p53L;

/** The band edges are placed in extended precision; without it the
 *  placement error would approach the band widths. */
constexpr bool kExtendedPrecision =
    std::numeric_limits<long double>::digits >= 64;

/** Clamp a band edge computed in extended precision to [0, 2^53]
 *  and truncate it (through double, exact to within 1/2 below 2^53,
 *  which the edges' slack covers). */
std::uint64_t
drawIndex(long double k)
{
    if (!(k > 0.0L))
        return 0;
    if (k >= kDraws)
        return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(static_cast<double>(k));
}

/** Bytes a table of @p regions regions holds (its band ends, the
 *  sentinel, and the guide). */
std::size_t
tableBytes(std::uint64_t regions)
{
    return sizeof(DrawTable) + (regions + 2) * sizeof(std::uint64_t) +
           std::bit_ceil(regions + 1) * sizeof(std::uint16_t);
}

/** Process-wide table cache, keyed by (kind, parameter bits, bound).
 *  Never destroyed: samplers hold raw pointers into it. */
struct TableRegistry
{
    std::mutex mutex;
    std::map<std::tuple<int, std::uint64_t, std::uint64_t>,
             std::unique_ptr<const DrawTable>>
        tables;
    std::size_t bytes = 0;
};

TableRegistry &
registry()
{
    static auto *r = new TableRegistry;
    return *r;
}

/** The shared table of a parameter set with @p regions regions,
 *  built on first use; null once the budget is spent. */
template <typename Build>
const DrawTable *
sharedTable(int kind, double param, std::uint64_t bound,
            std::uint64_t regions, Build build)
{
    TableRegistry &r = registry();
    const auto key =
        std::make_tuple(kind, std::bit_cast<std::uint64_t>(param), bound);
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.tables.find(key);
    if (it != r.tables.end())
        return it->second.get();
    if (r.bytes + tableBytes(regions) > kTableBudget)
        return nullptr;
    r.bytes += tableBytes(regions);
    return r.tables
        .emplace(key, std::make_unique<const DrawTable>(build()))
        .first->second.get();
}

} // namespace

DrawTable::DrawTable(const std::vector<std::uint64_t> &lo,
                     const std::vector<std::uint64_t> &hi)
    : regionCount(lo.size() - 1)
{
    if (lo.empty() || lo.size() != hi.size() ||
        regionCount > kMaxRegions)
        gaas_panic("DrawTable: bad band list");
    // Raising a band's end, or lowering its start, only sends more
    // draws to libm: make the ends monotone and give every band the
    // widest band's width.
    bandEnd.resize(regionCount + 2);
    std::uint64_t end = 0;
    for (std::uint64_t b = 0; b <= regionCount; ++b) {
        end = std::max(end, hi[b]);
        bandEnd[b] = end;
        bandWidth = std::max(bandWidth, end - std::min(lo[b], end));
    }
    bandEnd[regionCount + 1] = ~std::uint64_t{0};

    const std::uint64_t slots = std::bit_ceil(regionCount + 1);
    guideShift = 53 - static_cast<unsigned>(std::countr_zero(slots));
    guide.resize(slots);
    std::uint64_t b = 0;
    for (std::uint64_t g = 0; g < slots; ++g) {
        const std::uint64_t start = (g << guideShift) + bandWidth;
        while (b < regionCount && bandEnd[b + 1] <= start)
            ++b;
        guide[g] = static_cast<std::uint16_t>(b);
    }
}

std::size_t
drawTableBytes()
{
    TableRegistry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.bytes;
}

ParetoSampler::ParetoSampler(double alpha_, std::uint64_t bound_)
    : alpha(alpha_), bound(bound_)
{
    if (!(alpha > 0.0 && bound > 1))
        return;
    // The expressions of nextParetoIndex, hoisted.
    const double tail = std::pow(static_cast<double>(bound), -alpha);
    scale = 1.0 - tail;
    negInvAlpha = -1.0 / alpha;
    // The bands are placed on y = 1 - u * scale, where x = y^e
    // (e = negInvAlpha) crosses an integer.  A relative kGuard in y
    // moves x by about |e| * kGuard, so the table needs |e| >= 1/16
    // to keep its margin.
    if (!kExtendedPrecision || alpha > 16.0)
        return;
    const std::uint64_t regions = std::min(bound - 1, kParetoRegions);
    table = sharedTable(0, alpha, bound, regions, [&] {
        std::vector<std::uint64_t> lo(regions + 1), hi(regions + 1);
        const long double c = scale;
        // y = fl(1 - fl(u * scale)) is within 2^-53 of 1 - u * scale,
        // which moves k by at most 1 / scale.
        const long double slack = 1.0L / c + 4.0L;
        for (std::uint64_t b = 0; b <= regions; ++b) {
            // Crossing b: x = b + 1, i.e. y = (b + 1)^(1/e), here in
            // double: its error, some 2^-50 relative, only narrows
            // the kGuard margin by as much.
            const long double y = std::pow(static_cast<double>(b + 1),
                                           1.0 / negInvAlpha);
            lo[b] = drawIndex((1.0L - y * (1.0L + kGuard)) * kDraws /
                                  c -
                              slack);
            hi[b] = drawIndex((1.0L - y * (1.0L - kGuard)) * kDraws /
                                  c +
                              slack + 1.0L);
        }
        return DrawTable(lo, hi);
    });
}

std::uint64_t
ParetoSampler::exact(std::uint64_t k) const
{
    const double u = static_cast<double>(k) * 0x1.0p-53;
    const double x = std::pow(1.0 - u * scale, negInvAlpha);
    auto idx = static_cast<std::uint64_t>(x) - 1;
    if (idx >= bound)
        idx = bound - 1;
    return idx;
}

std::uint64_t
ParetoSampler::drawUntabled(Rng &rng) const
{
    // Mirrors Rng::nextParetoIndex case for case; the cached scale
    // and negInvAlpha replace the per-draw std::pow / division.
    if (bound == 0)
        gaas_panic("ParetoSampler::draw with bound 0");
    if (bound == 1)
        return 0;
    if (alpha <= 0.0)
        return rng.nextBounded(bound);
    return exact(rng.next64() >> 11);
}

GeometricSampler::GeometricSampler(double mean_) : mean(mean_)
{
    if (!(mean > 1.0))
        return;
    denom = std::log1p(-(1.0 / mean));
    if (!kExtendedPrecision)
        return;
    // Enough regions to leave a 2^-12 tail, (1 - 1/mean)^n, to libm.
    const long double d = denom;
    const std::uint64_t regions = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(12.0L * std::log(2.0L) / -d) + 1, 1,
        kGeometricRegions);
    table = sharedTable(1, mean, 0, regions, [&] {
        std::vector<std::uint64_t> lo(regions + 1), hi(regions + 1);
        // Crossing b: log1p(-u) / denom = b, i.e. u = 1 - q^b with
        // q = exp(denom).  The band is relative in the ratio (absolute
        // below 1): exp((b -+ g) * denom) = q^b * exp(-+ g * denom),
        // whose second factor is 1 -+ x + x^2 / 2 to far below the
        // band width (|x| < 2^-28).
        const long double q = std::exp(d);
        long double qb = 1.0L;
        for (std::uint64_t b = 0; b <= regions; ++b, qb *= q) {
            const long double x =
                kGuard * std::max(static_cast<long double>(b), 1.0L) * d;
            const long double below = qb * (1.0L - x + x * x / 2);
            const long double above = qb * (1.0L + x + x * x / 2);
            lo[b] = drawIndex((1.0L - below) * kDraws - 2.0L);
            hi[b] = drawIndex((1.0L - above) * kDraws + 3.0L);
        }
        return DrawTable(lo, hi);
    });
}

std::uint64_t
GeometricSampler::exact(std::uint64_t k) const
{
    double u = static_cast<double>(k) * 0x1.0p-53;
    if (u >= 1.0)
        u = 0x1.fffffffffffffp-1;
    double r = std::floor(std::log1p(-u) / denom) + 1.0;
    if (r < 1.0)
        r = 1.0;
    if (r > 1e12)
        r = 1e12;
    return static_cast<std::uint64_t>(r);
}

unsigned
Rng::pickCumulative(std::span<const double> cumulative)
{
    const double u = nextDouble();
    for (unsigned i = 0; i < cumulative.size(); ++i) {
        if (u < cumulative[i])
            return i;
    }
    return static_cast<unsigned>(cumulative.size()) - 1;
}

} // namespace gaas
