#include "checks.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/stats_dump.hh"
#include "obs/json.hh"
#include "util/hash.hh"

namespace perfbench
{

using namespace gaas;

std::string
statsDigest(const core::SimResult &result)
{
    std::ostringstream text;
    core::dumpStats(result, text);
    util::Fnv1a h;
    h.feed(text.str());
    return h.hex();
}

std::vector<std::string>
invariantViolations(const core::SimResult &r,
                    const core::SystemConfig &config)
{
    std::vector<std::string> bad;
    auto expect = [&bad](bool ok, const std::string &what,
                         std::uint64_t lhs, std::uint64_t rhs) {
        if (!ok) {
            bad.push_back(what + " (" + std::to_string(lhs) + " vs " +
                          std::to_string(rhs) + ")");
        }
    };
    const core::SysStats &s = r.sys;

    // Each level: misses within accesses, accesses = misses above.
    expect(s.l1iMisses <= s.ifetches, "l1i misses <= fetches",
           s.l1iMisses, s.ifetches);
    expect(s.l1dReadMisses <= s.loads, "l1d read misses <= loads",
           s.l1dReadMisses, s.loads);
    expect(s.l1dWriteMisses <= s.stores, "l1d write misses <= stores",
           s.l1dWriteMisses, s.stores);
    expect(s.l2iMisses <= s.l2iAccesses, "l2i misses <= accesses",
           s.l2iMisses, s.l2iAccesses);
    expect(s.l2dMisses <= s.l2dAccesses, "l2d misses <= accesses",
           s.l2dMisses, s.l2dAccesses);
    expect(s.l2iAccesses == s.l1iMisses, "l2i accesses = l1i misses",
           s.l2iAccesses, s.l1iMisses);
    const bool writeBack =
        config.writePolicy == core::WritePolicy::WriteBack;
    const Count l1dRefills =
        s.l1dReadMisses + (writeBack ? s.l1dWriteMisses : 0);
    expect(s.l2dAccesses == l1dRefills, "l2d accesses = l1d refills",
           s.l2dAccesses, l1dRefills);
    expect(s.memory.reads == s.l2iMisses + s.l2dMisses,
           "memory reads = l2 misses", s.memory.reads,
           s.l2iMisses + s.l2dMisses);

    // Translation: one TLB lookup per reference.
    expect(s.itlb.accesses == s.ifetches, "itlb accesses = ifetches",
           s.itlb.accesses, s.ifetches);
    expect(s.dtlb.accesses == s.loads + s.stores,
           "dtlb accesses = loads + stores", s.dtlb.accesses,
           s.loads + s.stores);
    expect(s.itlb.misses <= s.itlb.accesses, "itlb misses <= accesses",
           s.itlb.misses, s.itlb.accesses);
    expect(s.dtlb.misses <= s.dtlb.accesses, "dtlb misses <= accesses",
           s.dtlb.misses, s.dtlb.accesses);
    expect(s.ifetches == r.instructions, "ifetches = instructions",
           s.ifetches, r.instructions);

    if (!writeBack) {
        expect(s.wb.pushes == s.stores, "wb pushes = stores",
               s.wb.pushes, s.stores);
    }
    if (!r.sampling.enabled()) {
        const Cycles stalls = r.cpuStallCycles + r.comp.total();
        expect(r.cycles == r.instructions + stalls,
               "cycles = instructions + cpu stalls + cpi buckets",
               r.cycles, r.instructions + stalls);
    }
    return bad;
}

Pins
loadPins(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pins file " + path);
    std::ostringstream text;
    text << in.rdbuf();
    const obs::JsonValue doc = obs::parseJson(text.str());
    Pins pins;
    for (const auto &[workload, points] : doc.members) {
        for (const auto &[config, point] : points.members) {
            PinnedPoint p;
            if (const auto *d = point.member("digest"))
                p.digest = d->scalar;
            if (const auto *c = point.member("cpi"))
                p.cpi = std::stod(c->scalar);
            if (const auto *n = point.member("refs"))
                p.refs = std::stod(n->scalar);
            pins[workload][config] = p;
        }
    }
    return pins;
}

void
savePins(const Pins &pins, const std::string &path)
{
    obs::JsonValue doc = obs::JsonValue::object();
    for (const auto &[workload, points] : pins) {
        obs::JsonValue w = obs::JsonValue::object();
        for (const auto &[config, p] : points) {
            obs::JsonValue one = obs::JsonValue::object();
            one.members.emplace_back("digest",
                                     obs::JsonValue::string(p.digest));
            one.members.emplace_back("cpi", obs::JsonValue::number(p.cpi));
            one.members.emplace_back("refs",
                                     obs::JsonValue::number(p.refs));
            w.members.emplace_back(config, std::move(one));
        }
        doc.members.emplace_back(workload, std::move(w));
    }
    std::ofstream out(path);
    obs::writeJson(doc, out);
    out << "\n";
    if (!out)
        throw std::runtime_error("cannot write pins file " + path);
}

} // namespace perfbench
