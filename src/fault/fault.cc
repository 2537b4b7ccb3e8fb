#include "fault/fault.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/error.hh"
#include "core/rng.hh"

namespace laer
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::ReplicaFail:
        return "replica-fail";
    case FaultKind::ReplicaRepair:
        return "replica-repair";
    case FaultKind::LinkDown:
        return "link-down";
    case FaultKind::LinkUp:
        return "link-up";
    case FaultKind::LinkDegrade:
        return "link-degrade";
    case FaultKind::StragglerStart:
        return "straggler-start";
    case FaultKind::StragglerEnd:
        return "straggler-end";
    case FaultKind::DeviceFail:
        return "device-fail";
    case FaultKind::DeviceRepair:
        return "device-repair";
    }
    return "unknown";
}

namespace
{

/** Inverse of faultKindName(); false when `name` is not a kind. */
bool
faultKindFromName(const std::string &name, FaultKind &kind)
{
    static const FaultKind kinds[] = {
        FaultKind::ReplicaFail,    FaultKind::ReplicaRepair,
        FaultKind::LinkDown,       FaultKind::LinkUp,
        FaultKind::LinkDegrade,    FaultKind::StragglerStart,
        FaultKind::StragglerEnd,   FaultKind::DeviceFail,
        FaultKind::DeviceRepair,
    };
    for (FaultKind k : kinds)
        if (name == faultKindName(k)) {
            kind = k;
            return true;
        }
    return false;
}

/** False for the link kinds: they act on the one boundary link and
 * ignore their target. */
bool
targetsEngine(FaultKind kind)
{
    return kind != FaultKind::LinkDown && kind != FaultKind::LinkUp &&
           kind != FaultKind::LinkDegrade;
}

} // namespace

std::vector<FaultEvent>
expandFaultPlan(const FaultConfig &config, int num_engines,
                Seconds horizon)
{
    for (const FaultEvent &e : config.events)
        LAER_CHECK(std::isfinite(e.time) && e.time >= 0.0 &&
                       (!targetsEngine(e.kind) ||
                        (e.target >= 0 && e.target < num_engines)),
                   "fault plan: event '" << faultKindName(e.kind) << "' at t="
                       << e.time << " on engine " << e.target
                       << " needs a finite time >= 0 and, unless a link "
                       << "kind, an engine in [0, " << num_engines << ")");
    std::vector<FaultEvent> plan = config.events;

    if (config.mtbf > 0.0) {
        LAER_CHECK(config.mttr > 0.0,
                   "fault plan: mtbf > 0 needs mttr > 0 (got "
                       << config.mttr << ")");
        LAER_CHECK(num_engines > 0,
                   "fault plan: MTBF expansion needs engines");
        Rng rng(config.seed);
        Seconds t = 0.0;
        while (true) {
            // Exponential inter-failure gap; 1 - uniform() is in
            // (0, 1], so the log never sees zero.
            t += -config.mtbf * std::log(1.0 - rng.uniform());
            const int target = rng.uniformInt(0, num_engines - 1);
            if (t >= horizon)
                break;
            plan.push_back({t, FaultKind::ReplicaFail, target, 1.0});
            plan.push_back(
                {t + config.mttr, FaultKind::ReplicaRepair, target,
                 1.0});
        }
    }

    std::stable_sort(plan.begin(), plan.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.time != b.time)
                             return a.time < b.time;
                         if (a.kind != b.kind)
                             return static_cast<int>(a.kind) <
                                    static_cast<int>(b.kind);
                         return a.target < b.target;
                     });
    return plan;
}

FaultConfig
parseFaultPlanFile(const std::string &path)
{
    std::ifstream in(path);
    LAER_CHECK(in.good(), "fault plan: cannot open " << path);

    FaultConfig config;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream is(line);
        std::string word;
        if (!(is >> word))
            continue; // blank or comment-only line

        const auto want = [&](bool ok, const char *what) {
            LAER_CHECK(ok, "fault plan " << path << ":" << lineno
                                         << ": expected " << what);
        };
        if (word == "mtbf") {
            want(static_cast<bool>(is >> config.mtbf), "mtbf seconds");
        } else if (word == "mttr") {
            want(static_cast<bool>(is >> config.mttr), "mttr seconds");
        } else if (word == "seed") {
            want(static_cast<bool>(is >> config.seed), "seed value");
        } else if (word == "retry-budget") {
            want(static_cast<bool>(is >> config.retryBudget),
                 "retry budget");
        } else if (word == "backoff") {
            want(static_cast<bool>(is >> config.backoffBase >>
                                   config.backoffCap),
                 "backoff BASE CAP");
        } else if (word == "at") {
            FaultEvent event;
            std::string kind;
            want(static_cast<bool>(is >> event.time >> kind >>
                                   event.target),
                 "at TIME KIND TARGET [MAGNITUDE]");
            want(faultKindFromName(kind, event.kind),
                 "a fault kind name");
            std::string magnitude; // optional, defaults to 1
            if (is >> magnitude) {
                std::istringstream num(magnitude);
                const bool whole =
                    static_cast<bool>(num >> event.magnitude) &&
                    num.peek() == std::char_traits<char>::eof();
                want(whole, "a numeric MAGNITUDE");
            }
            config.events.push_back(event);
        } else {
            LAER_CHECK(false, "fault plan " << path << ":" << lineno
                                            << ": unknown directive '"
                                            << word << "'");
        }
        std::string extra;
        LAER_CHECK(!(is >> extra), "fault plan " << path << ":" << lineno
                                                 << ": trailing '" << extra
                                                 << "' after '" << word
                                                 << "'");
    }
    return config;
}

} // namespace laer
