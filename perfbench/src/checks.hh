/**
 * @file
 * Output checks the benchmark applies to every SimResult, from
 * outside the program: conservation invariants between the counters
 * of adjacent layers, and pinned per-point digests / CPIs taken from
 * the seed build.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <map>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/cpi.hh"

namespace perfbench
{

/** 64-bit FNV-1a (hex) of the point's flat stats dump. */
std::string statsDigest(const gaas::core::SimResult &result);

/**
 * Conservation invariants of one result; @return one message per
 * violated invariant (empty = all hold).
 *
 *  - every level: misses <= accesses, and each level's accesses are
 *    the level above's misses (L2-I = L1-I misses, L2-D = L1-D
 *    refills, memory reads = L2 misses);
 *  - TLB accesses = ifetches + loads + stores (ITLB = ifetches,
 *    DTLB = loads + stores), and one ifetch per instruction;
 *  - write-through: every store is one write-buffer push;
 *  - full detail only: the CPI buckets sum to the stall cycles
 *    (cycles = instructions + CPU stalls + memory stalls).  A
 *    sampled result's cycles are rescaled to the stratified
 *    estimate, so the identity does not apply to it.
 */
std::vector<std::string>
invariantViolations(const gaas::core::SimResult &result,
                    const gaas::core::SystemConfig &config);

/** What the seed build produced for one point. */
struct PinnedPoint
{
    std::string digest;  //!< statsDigest of the full-detail run
    double cpi = 0.0;    //!< full-detail CPI
    double refs = 0.0;   //!< full-detail measured references
};

/** Pinned points per workload name, then per config name. */
using Pins = std::map<std::string, std::map<std::string, PinnedPoint>>;

/** Load @p path; throws SimError on unreadable or malformed files. */
Pins loadPins(const std::string &path);

/** Write @p pins to @p path (shortest round-trip numbers). */
void savePins(const Pins &pins, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
