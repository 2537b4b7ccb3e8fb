#include "difftest/diff.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/trace.hh"

namespace laer
{

std::vector<std::string>
DiffOptions::defaultIgnorePrefixes()
{
    return {"planner.retune_wall_ms", "planner.retune_over_budget",
            "profile."};
}

namespace
{

/** Divergences recorded in a report; the total count is always
 * exact. */
constexpr std::size_t kMaxRecorded = 16;

bool
ignored(const std::string &name, const DiffOptions &options)
{
    for (const std::string &prefix : options.ignorePrefixes)
        if (name.compare(0, prefix.size(), prefix) == 0)
            return true;
    return false;
}

bool
valuesAgree(double ref, double cand)
{
    return ref == cand || (std::isnan(ref) && std::isnan(cand));
}

void
writeDivergenceJson(std::ostream &os, const Divergence &d)
{
    os << "{\"snapshot\":" << d.snapshot << ",\"t\":" << d.simTime
       << ",\"counter\":\"" << jsonEscape(d.counter) << "\",\"ref\":";
    if (d.refMissing)
        os << "null";
    else
        os << d.ref;
    os << ",\"cand\":";
    if (d.candMissing)
        os << "null";
    else
        os << d.cand;
    os << "}";
}

} // namespace

std::string
DiffReport::toText() const
{
    std::ostringstream os;
    os << "diff " << refLabel << " vs " << candLabel << ": ";
    if (identical()) {
        os << "IDENTICAL (" << snapshotsCompared << " snapshots, "
           << comparisons << " comparisons)\n";
        return os.str();
    }
    os << totalDivergences << " divergence(s) over "
       << snapshotsCompared << " compared snapshots\n";
    if (refSnapshots != candSnapshots)
        os << "  snapshot count differs: ref " << refSnapshots
           << " vs cand " << candSnapshots << "\n";
    if (!divergences.empty()) {
        const Divergence &first = firstDivergence();
        os << "  FIRST DIVERGENCE: snapshot " << first.snapshot
           << " at t=" << first.simTime << " s, counter '"
           << first.counter << "'\n"
           << "    ref  = ";
        if (first.refMissing)
            os << "<missing>";
        else
            os << first.ref;
        os << "\n    cand = ";
        if (first.candMissing)
            os << "<missing>";
        else
            os << first.cand;
        os << "\n";
        for (std::size_t i = 1; i < divergences.size(); ++i) {
            const Divergence &d = divergences[i];
            os << "  also: snapshot " << d.snapshot << " t="
               << d.simTime << " '" << d.counter << "' ref=";
            if (d.refMissing)
                os << "<missing>";
            else
                os << d.ref;
            os << " cand=";
            if (d.candMissing)
                os << "<missing>";
            else
                os << d.cand;
            os << "\n";
        }
        if (totalDivergences > divergences.size())
            os << "  ... " << totalDivergences - divergences.size()
               << " more divergence(s) not recorded\n";
    }
    return os.str();
}

void
DiffReport::writeJson(std::ostream &os) const
{
    os << "{\"ref\":\"" << jsonEscape(refLabel) << "\",\"cand\":\""
       << jsonEscape(candLabel) << "\",\"identical\":"
       << (identical() ? "true" : "false")
       << ",\"ref_snapshots\":" << refSnapshots
       << ",\"cand_snapshots\":" << candSnapshots
       << ",\"snapshots_compared\":" << snapshotsCompared
       << ",\"comparisons\":" << comparisons
       << ",\"total_divergences\":" << totalDivergences
       << ",\"divergences\":[";
    for (std::size_t i = 0; i < divergences.size(); ++i) {
        if (i > 0)
            os << ",";
        writeDivergenceJson(os, divergences[i]);
    }
    os << "]}";
}

DiffReport
diffStreams(const SnapshotStream &ref, const SnapshotStream &cand,
            const DiffOptions &options)
{
    DiffReport report;
    report.refSnapshots = ref.size();
    report.candSnapshots = cand.size();
    report.snapshotsCompared = std::min(ref.size(), cand.size());

    const auto record = [&](const Divergence &d) {
        ++report.totalDivergences;
        if (report.divergences.size() < kMaxRecorded)
            report.divergences.push_back(d);
    };

    for (std::size_t i = 0; i < report.snapshotsCompared; ++i) {
        const CounterSnapshot &rs = ref.snapshots[i];
        const CounterSnapshot &cs = cand.snapshots[i];
        if (rs.simTime != cs.simTime) {
            Divergence d;
            d.snapshot = i;
            d.simTime = rs.simTime;
            d.counter = "t";
            d.ref = rs.simTime;
            d.cand = cs.simTime;
            record(d);
        }
        // Ref registration order first: the "first diverging counter"
        // follows the golden run's instrument order.
        for (const auto &entry : rs.values) {
            if (ignored(entry.first, options))
                continue;
            ++report.comparisons;
            const bool present = cand.has(i, entry.first);
            const double other =
                present ? cand.value(i, entry.first) : 0.0;
            if (present &&
                valuesAgree(entry.second, other))
                continue;
            Divergence d;
            d.snapshot = i;
            d.simTime = rs.simTime;
            d.counter = entry.first;
            d.ref = entry.second;
            d.cand = other;
            d.candMissing = !present;
            record(d);
        }
        // Candidate-only names are divergences too (an instrument the
        // reference never registered).
        for (const auto &entry : cs.values) {
            if (ignored(entry.first, options) ||
                ref.has(i, entry.first))
                continue;
            ++report.comparisons;
            Divergence d;
            d.snapshot = i;
            d.simTime = rs.simTime;
            d.counter = entry.first;
            d.cand = entry.second;
            d.refMissing = true;
            record(d);
        }
    }
    return report;
}

} // namespace laer
