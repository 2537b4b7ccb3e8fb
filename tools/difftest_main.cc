/**
 * @file
 * Differential-testing campaign driver.
 *
 * Replays seeded fuzz scenarios (difftest/scenario_gen.hh) through
 * the registered equivalence lanes (difftest/lanes.hh) and reports
 * the first divergence or invariant violation of every failure, with
 * the seed that reproduces it and — unless --no-shrink — a minimal
 * reproducer found by bisecting the scenario knobs.
 *
 * Flags:
 *   --seed=N        campaign seed (scenario i runs on seed N + i)
 *   --runs=N        scenarios per lane (default 25)
 *   --lane=NAME     restrict to one lane (default: all)
 *   --report-out=F  write the machine-readable campaign JSON to F
 *   --no-shrink     skip the shrink search on failures
 *   --list-lanes    print the lane catalog and exit
 *   --trace-out=F   write one Chrome/Perfetto trace of every captured
 *                   serving run, tracks keyed "s<seed>/<side>/..."
 *   --metrics-out=F append every captured run's checkpoint snapshots
 *                   as JSONL keyed by the same run label
 *
 * Cross-process golden files (difftest/golden.hh): a canonical
 * scenario per policy family frozen to disk, so another process — a
 * future commit, another build — can be diffed against this one:
 *   --record-golden=F      run the canonical scenario, write F, exit
 *   --check-golden=F       re-run it and diff against F (exit 1 on
 *                          any divergence — the byte-stability gate)
 *   --golden-scenario=FAM  which family's canonical scenario the
 *                          golden flags run: laer (default),
 *                          staticep, flexmoe, disagg
 *
 * Exit status: 0 when every replay passed, 1 otherwise — so CI can
 * gate on the campaign and upload the JSON artifact on failure.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/error.hh"
#include "difftest/golden.hh"
#include "difftest/lanes.hh"
#include "difftest/scenario_gen.hh"
#include "serve/obs_sinks.hh"

using namespace laer;

namespace
{

constexpr std::uint64_t kDefaultSeed = 20260808;

struct Failure
{
    std::uint64_t seed = 0;
    LaneOutcome outcome;
    bool shrunk = false;
    ShrinkOutcome shrink;
};

void
printViolations(const char *side, const std::vector<std::string> &v)
{
    for (const std::string &line : v)
        std::cout << "    invariant[" << side << "] " << line << "\n";
}

void
writeOutcomeJson(std::ostream &os, const Failure &failure)
{
    os << "{\"seed\":" << failure.seed << ",\"lane\":\""
       << failure.outcome.lane << "\",\"scenario\":";
    failure.outcome.scenario.writeJson(os);
    os << ",\"diff\":";
    failure.outcome.diff.writeJson(os);
    os << ",\"invariant_violations\":{\"ref\":[";
    for (std::size_t i = 0; i < failure.outcome.refViolations.size();
         ++i)
        os << (i ? "," : "") << "\""
           << failure.outcome.refViolations[i] << "\"";
    os << "],\"cand\":[";
    for (std::size_t i = 0; i < failure.outcome.candViolations.size();
         ++i)
        os << (i ? "," : "") << "\""
           << failure.outcome.candViolations[i] << "\"";
    os << "]}";
    if (failure.shrunk) {
        os << ",\"shrunk\":{\"scenario\":";
        failure.shrink.scenario.writeJson(os);
        os << ",\"attempts\":" << failure.shrink.attempts
           << ",\"reductions\":" << failure.shrink.reductions << "}";
    }
    os << "}";
}

} // namespace

int
main(int argc, char **argv)
try {
    const CliArgs args(argc, argv,
                       ObsSinks::flags({"seed", "runs", "lane",
                                        "report-out", "no-shrink",
                                        "list-lanes", "record-golden",
                                        "check-golden",
                                        "golden-scenario"},
                                       /*slo_report=*/false));

    std::string family = args.get("golden-scenario");
    if (family.empty())
        family = "laer";

    if (args.has("record-golden")) {
        std::ofstream out(args.get("record-golden"));
        if (!out) {
            std::cerr << "cannot write " << args.get("record-golden")
                      << "\n";
            return 2;
        }
        writeGoldenJson(out, captureGoldenStream(family));
        std::cout << "golden: recorded canonical " << family
                  << " scenario to " << args.get("record-golden")
                  << "\n";
        return 0;
    }
    if (args.has("check-golden")) {
        std::ifstream in(args.get("check-golden"));
        if (!in) {
            std::cerr << "cannot read " << args.get("check-golden")
                      << "\n";
            return 2;
        }
        const SnapshotStream golden = readGoldenJson(in);
        const DiffReport report = checkAgainstGolden(golden, family);
        std::cout << report.toText();
        if (report.identical()) {
            std::cout << "golden: " << report.snapshotsCompared
                      << " snapshots, " << report.comparisons
                      << " comparisons, byte-stable\n";
            return 0;
        }
        return 1;
    }

    if (args.has("list-lanes")) {
        for (const EquivalenceLane *lane : equivalenceLanes())
            std::cout << lane->name() << "\n    "
                      << lane->description() << "\n";
        return 0;
    }

    const std::uint64_t seed0 = args.getUint("seed", kDefaultSeed);
    const std::uint64_t runs = args.getUint("runs", 25);
    const bool shrink_failures = !args.has("no-shrink");

    std::vector<const EquivalenceLane *> lanes;
    if (args.has("lane")) {
        const EquivalenceLane *lane = laneByName(args.get("lane"));
        if (lane == nullptr) {
            std::cerr << "unknown lane '" << args.get("lane")
                      << "' (--list-lanes prints the catalog)\n";
            return 2;
        }
        lanes.push_back(lane);
    } else {
        lanes = equivalenceLanes();
    }

    // Campaign observability: every captured serving run shares one
    // trace recorder and one JSONL sink, keyed by scenario seed and
    // lane side. Write-only, so replay verdicts are unaffected.
    ObsSinks sinks(args);
    setCaptureObsSinks(&sinks);

    std::vector<Failure> failures;
    std::size_t replays = 0;
    for (std::uint64_t i = 0; i < runs; ++i) {
        const std::uint64_t seed = seed0 + i;
        const Scenario scenario = generateScenario(seed);
        for (const EquivalenceLane *lane : lanes) {
            LaneOutcome outcome = runLane(*lane, scenario);
            ++replays;
            if (outcome.passed()) {
                std::cout << "PASS seed=" << seed << " lane="
                          << lane->name() << " ("
                          << outcome.diff.snapshotsCompared
                          << " snapshots, "
                          << outcome.diff.comparisons
                          << " comparisons)\n";
                continue;
            }
            std::cout << "FAIL seed=" << seed << " lane="
                      << lane->name() << "\n  scenario: "
                      << outcome.scenario.describe() << "\n  "
                      << outcome.diff.toText();
            printViolations("ref", outcome.refViolations);
            printViolations("cand", outcome.candViolations);

            Failure failure;
            failure.seed = seed;
            failure.outcome = outcome;
            if (shrink_failures) {
                failure.shrink = shrinkScenario(
                    outcome.scenario, [&](const Scenario &candidate) {
                        return !runLane(*lane, candidate).passed();
                    });
                failure.shrunk = true;
                std::cout << "  minimal reproducer ("
                          << failure.shrink.reductions
                          << " reductions in "
                          << failure.shrink.attempts
                          << " replays):\n    "
                          << failure.shrink.scenario.describe()
                          << "\n";
            }
            failures.push_back(std::move(failure));
        }
    }

    std::cout << "difftest: " << replays - failures.size() << "/"
              << replays << " replays passed over " << runs
              << " scenario(s) x " << lanes.size() << " lane(s)\n";

    if (args.has("report-out")) {
        std::ofstream out(args.get("report-out"));
        if (!out) {
            std::cerr << "cannot write " << args.get("report-out")
                      << "\n";
            return 2;
        }
        out << "{\"seed\":" << seed0 << ",\"runs\":" << runs
            << ",\"replays\":" << replays
            << ",\"failures\":" << failures.size()
            << ",\"results\":[";
        for (std::size_t i = 0; i < failures.size(); ++i) {
            if (i > 0)
                out << ",";
            writeOutcomeJson(out, failures[i]);
        }
        out << "]}\n";
    }
    sinks.write();
    return failures.empty() ? 0 : 1;
} catch (const FatalError &err) {
    std::cerr << "difftest_main: " << err.what() << "\n";
    return 2;
}
