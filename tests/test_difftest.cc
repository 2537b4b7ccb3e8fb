/**
 * @file
 * Self-checks of the differential-testing subsystem (src/difftest/):
 * the diff engine localizes an injected off-by-one to the right
 * snapshot and counter, identical runs produce an empty report, the
 * conservation invariants hold on captured runs and fire on broken
 * synthetic streams, the shrinker converges toward the knob floors,
 * and report counters (retunes, wall samples) survive engine
 * rebuilds — the carry-over drift the harness was built to catch.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "difftest/diff.hh"
#include "difftest/golden.hh"
#include "difftest/lanes.hh"
#include "difftest/probe.hh"
#include "difftest/scenario_gen.hh"

namespace laer
{
namespace
{

RunCapture
captureScenario(const Scenario &scenario)
{
    return captureServingRun(scenario.makeCluster(), scenario.serving,
                             scenario.snapshotInterval);
}

/** Mutable reference to `name` in snapshot `index` of the stream. */
double &
valueRef(SnapshotStream &stream, std::size_t index,
         const std::string &name)
{
    for (auto &entry : stream.snapshots.at(index).values)
        if (entry.first == name)
            return entry.second;
    ADD_FAILURE() << name << " not found in snapshot " << index;
    static double dummy = 0.0;
    return dummy;
}

// ---- diff engine ------------------------------------------------------------

TEST(DiffEngine, IdenticalRunsProduceEmptyReport)
{
    const Scenario scenario = generateScenario(1);
    const RunCapture a = captureScenario(scenario);
    const RunCapture b = captureScenario(scenario);

    const DiffReport report = diffStreams(a.stream, b.stream);
    EXPECT_TRUE(report.identical());
    EXPECT_EQ(report.totalDivergences, 0u);
    EXPECT_GT(report.comparisons, 0u);
    EXPECT_EQ(report.refSnapshots, report.candSnapshots);
}

TEST(DiffEngine, InjectedOffByOneIsLocalizedToSnapshotAndCounter)
{
    const Scenario scenario = generateScenario(2);
    const RunCapture run = captureScenario(scenario);
    ASSERT_GE(run.stream.size(), 6u);

    SnapshotStream cand = run.stream;
    valueRef(cand, 3, "serve.offered") += 1.0;
    valueRef(cand, 5, "serve.steps") += 1.0; // later; must not lead

    const DiffReport report = diffStreams(run.stream, cand);
    ASSERT_FALSE(report.identical());
    const Divergence &first = report.firstDivergence();
    EXPECT_EQ(first.snapshot, 3u);
    EXPECT_EQ(first.counter, "serve.offered");
    EXPECT_EQ(first.cand, first.ref + 1.0);
    EXPECT_FALSE(first.refMissing);
    EXPECT_FALSE(first.candMissing);
    // The evidence renders into both report formats.
    EXPECT_NE(report.toText().find("serve.offered"),
              std::string::npos);
}

TEST(DiffEngine, MissingCounterIsItselfADivergence)
{
    const Scenario scenario = generateScenario(3);
    const RunCapture run = captureScenario(scenario);
    ASSERT_GE(run.stream.size(), 3u);

    SnapshotStream cand = run.stream;
    auto &values = cand.snapshots[2].values;
    values.erase(std::remove_if(values.begin(), values.end(),
                                [](const auto &entry) {
                                    return entry.first ==
                                           "serve.steps";
                                }),
                 values.end());

    const DiffReport report = diffStreams(run.stream, cand);
    ASSERT_FALSE(report.identical());
    bool found = false;
    for (const Divergence &d : report.divergences)
        if (d.counter == "serve.steps" && d.snapshot == 2 &&
            d.candMissing)
            found = true;
    EXPECT_TRUE(found);
}

TEST(DiffEngine, WallClockPrefixesAreExcluded)
{
    const Scenario scenario = generateScenario(4);
    const RunCapture run = captureScenario(scenario);
    ASSERT_GE(run.stream.size(), 1u);

    SnapshotStream cand = run.stream;
    cand.snapshots[0].values.push_back({"profile.step_ms", 123.0});
    cand.snapshots[0].values.push_back(
        {"planner.retune_wall_ms.mean", 9.0});

    EXPECT_TRUE(diffStreams(run.stream, cand).identical());
}

TEST(DiffEngine, TinyDriftIsADivergence)
{
    const Scenario scenario = generateScenario(5);
    const RunCapture run = captureScenario(scenario);
    const std::size_t last = run.stream.size() - 1;
    ASSERT_GT(run.stream.value(last, "serve.sim_now"), 0.0);

    SnapshotStream cand = run.stream;
    valueRef(cand, last, "serve.sim_now") *= 1.0 + 1e-12;

    EXPECT_FALSE(diffStreams(run.stream, cand).identical());
}

TEST(DiffEngine, SnapshotCountMismatchIsNotIdentical)
{
    const Scenario scenario = generateScenario(6);
    const RunCapture run = captureScenario(scenario);
    ASSERT_GE(run.stream.size(), 2u);

    SnapshotStream cand = run.stream;
    cand.snapshots.pop_back();

    const DiffReport report = diffStreams(run.stream, cand);
    EXPECT_FALSE(report.identical());
    EXPECT_EQ(report.totalDivergences, 0u); // prefix agreed
}

// ---- invariants -------------------------------------------------------------

TEST(StreamInvariants, CapturedRunsSatisfyThem)
{
    for (std::uint64_t seed = 10; seed < 14; ++seed) {
        const Scenario scenario = generateScenario(seed);
        const RunCapture run = captureScenario(scenario);
        InvariantContext context;
        context.totalDevices =
            scenario.nodes * scenario.devicesPerNode;
        const auto violations =
            checkStreamInvariants(run.stream, context);
        EXPECT_TRUE(violations.empty())
            << "seed " << seed << ": " << violations.front();
    }
}

TEST(StreamInvariants, DetectBrokenConservationAndMonotonicity)
{
    SnapshotStream stream;
    CounterSnapshot a;
    a.simTime = 0.25;
    a.values = {{"serve.offered", 5.0},    {"serve.completed", 2.0},
                {"serve.queue_depth", 1.0}, {"serve.running", 1.0},
                {"serve.migrating", 0.0},   {"serve.held", 0.0},
                {"serve.kv_reserved_bytes", 10.0},
                {"serve.kv_budget_bytes", 8.0},
                {"serve.sim_now", 0.25}};
    CounterSnapshot b = a;
    b.simTime = 0.5;
    stream.snapshots = {a, b};
    stream.snapshots[1].values[1].second = 1.0; // completed decreases
    stream.snapshots[1].values[8].second = 0.5; // sim_now tracks t

    InvariantContext context;
    context.totalDevices = 8;
    const auto violations = checkStreamInvariants(stream, context);
    ASSERT_FALSE(violations.empty());
    bool conservation = false, kv = false, monotone = false;
    for (const std::string &v : violations) {
        if (v.find("request conservation") != std::string::npos)
            conservation = true;
        if (v.find("pool budget") != std::string::npos)
            kv = true;
        if (v.find("serve.completed decreased") != std::string::npos)
            monotone = true;
    }
    EXPECT_TRUE(conservation);
    EXPECT_TRUE(kv);
    EXPECT_TRUE(monotone);
}

// ---- lanes ------------------------------------------------------------------

TEST(Lanes, CatalogIsRegisteredAndLookableUp)
{
    ASSERT_EQ(equivalenceLanes().size(), 5u);
    for (const char *name :
         {"threads", "metrics-mode", "control-none", "swap-recompute",
          "fault-determinism"})
        EXPECT_NE(laneByName(name), nullptr) << name;
    EXPECT_EQ(laneByName("no-such-lane"), nullptr);
}

TEST(Lanes, EveryLanePassesOnASeededScenario)
{
    const Scenario scenario = generateScenario(7);
    for (const EquivalenceLane *lane : equivalenceLanes()) {
        const LaneOutcome outcome = runLane(*lane, scenario);
        EXPECT_TRUE(outcome.passed())
            << lane->name() << ": " << outcome.diff.toText();
        EXPECT_GT(outcome.diff.comparisons, 0u) << lane->name();
    }
}

// ---- golden files -----------------------------------------------------------

TEST(Golden, JsonRoundTripIsBitExact)
{
    SnapshotStream stream;
    CounterSnapshot a;
    a.simTime = 0.25;
    a.values = {{"serve.offered", 17.0},
                {"serve.ttft_s.mean", 0.0047663723957558279},
                {"odd\"name\\x", -1.5e-300}};
    CounterSnapshot b;
    b.simTime = 1e6 + 0.125; // empty values list
    stream.snapshots.push_back(a);
    stream.snapshots.push_back(b);

    std::stringstream buffer;
    writeGoldenJson(buffer, stream);
    const SnapshotStream loaded = readGoldenJson(buffer);

    ASSERT_EQ(loaded.snapshots.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const CounterSnapshot &ref = stream.snapshots[i];
        const CounterSnapshot &got = loaded.snapshots[i];
        EXPECT_EQ(got.simTime, ref.simTime);
        ASSERT_EQ(got.values.size(), ref.values.size());
        for (std::size_t k = 0; k < ref.values.size(); ++k) {
            EXPECT_EQ(got.values[k].first, ref.values[k].first);
            // Bit-exact, not approximately equal: %.17g + strtod.
            EXPECT_EQ(got.values[k].second, ref.values[k].second);
        }
    }
}

TEST(Golden, ParserRejectsGarbage)
{
    const char *bad[] = {
        "",
        "[]",
        "{\"snapshots\": [",
        "{\"wrong\": []}",
        "{\"snapshots\": [{\"t\": x}]}",
        "{\"snapshots\": []} trailing",
    };
    for (const char *text : bad) {
        std::stringstream buffer(text);
        EXPECT_THROW(readGoldenJson(buffer), FatalError) << text;
    }
}

TEST(Golden, CanonicalScenarioIsStableWithinProcess)
{
    // Two captures of each family's canonical scenario must agree
    // exactly — the in-process half of the cross-process
    // byte-stability gate, over the whole policy-family catalog.
    for (const std::string &family : goldenFamilies()) {
        std::stringstream buffer;
        writeGoldenJson(buffer, captureGoldenStream(family));
        const DiffReport report =
            checkAgainstGolden(readGoldenJson(buffer), family);
        EXPECT_TRUE(report.identical())
            << family << ": " << report.toText();
        EXPECT_GT(report.comparisons, 0u) << family;
    }
}

// ---- shrinker ---------------------------------------------------------------

TEST(Shrinker, ConvergesTowardKnobFloors)
{
    const Scenario failing = generateScenario(99);
    ASSERT_GE(failing.serving.arrival.meanPrefillTokens, 64);
    // Synthetic failure: reproduces whenever the mean prompt is at
    // least 64 tokens — every other knob is noise the shrinker
    // should strip.
    const auto still_fails = [](const Scenario &s) {
        return s.serving.arrival.meanPrefillTokens >= 64;
    };

    const ShrinkOutcome outcome =
        shrinkScenario(failing, still_fails);
    EXPECT_GE(outcome.scenario.serving.arrival.meanPrefillTokens, 64);
    EXPECT_LT(outcome.scenario.serving.arrival.meanPrefillTokens,
              128);
    EXPECT_EQ(outcome.scenario.serving.simulatedLayers, 1);
    EXPECT_EQ(outcome.scenario.serving.arrival.kind,
              ArrivalKind::Poisson);
    EXPECT_EQ(outcome.scenario.serving.arrival.numSloClasses, 1);
    EXPECT_LE(outcome.scenario.serving.horizon, 0.75);
    EXPECT_GT(outcome.reductions, 0);
    EXPECT_TRUE(still_fails(outcome.scenario));
}

TEST(Shrinker, KeepsEveryCandidateConstructible)
{
    // A replicated scenario whose plan kills replica 1. The synthetic
    // failure needs the plan, so the shrinker keeps it while it tries
    // to shed the replicas and the nodes: no candidate it replays may
    // lose the engine the plan targets (the simulator would refuse
    // the plan at construction).
    Scenario failing;
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
        failing = generateScenario(seed);
        if (failing.serving.replicas.replicaDevices > 0 &&
            failing.serving.faults.enabled())
            break;
    }
    ASSERT_GT(failing.serving.replicas.replicaDevices, 0);
    ASSERT_TRUE(failing.serving.faults.enabled());
    const auto still_fails = [](const Scenario &s) {
        const Cluster cluster = s.makeCluster();
        const ServingSimulator sim(cluster, s.serving);
        return s.serving.faults.enabled();
    };
    ShrinkOutcome outcome;
    EXPECT_NO_THROW(outcome = shrinkScenario(failing, still_fails));
    EXPECT_TRUE(outcome.scenario.serving.faults.enabled());
}

TEST(Shrinker, RespectsTheReplayBudget)
{
    const Scenario failing = generateScenario(100);
    int replays = 0;
    const auto still_fails = [&](const Scenario &) {
        ++replays;
        return true;
    };
    shrinkScenario(failing, still_fails, 5);
    EXPECT_LE(replays, 5);
}

// ---- report counter carry-over across engine rebuilds ----------------------

TEST(CounterCarryOver, RetunesAndWallSamplesSurviveRebuilds)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.retunePeriod = 4;
    cfg.horizon = 3.0;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 30.0;
    cfg.arrival.meanPrefillTokens = 128;
    cfg.arrival.meanDecodeTokens = 16;
    cfg.arrival.seed = 5;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.replicas.replicaDevices = 4;
    cfg.replicas.initialReplicas = 2;
    cfg.horizon = 4.0;
    cfg.seed = 11;
    MetricsRegistry registry;
    cfg.metricsRegistry = &registry;

    ServingSimulator sim(cluster, cfg);
    while (sim.now() < 1.0 && sim.step()) {
    }
    // Scale down: replica 1 drains and stops, its counters intact.
    ASSERT_TRUE(sim.requestReplicas(1));
    while ((sim.reconfigPending() ||
            sim.engine(1).state() != EngineState::Stopped) &&
           sim.step()) {
    }
    ASSERT_EQ(sim.engine(1).state(), EngineState::Stopped);
    const int retired = sim.engine(1).retunes();
    ASSERT_GT(retired, 0) << "the drained replica never retuned; the "
                             "test needs a tighter retunePeriod";

    // Scale back up: the stopped slot is rebuilt, which used to drop
    // its retune count and wall samples from the report.
    ASSERT_TRUE(sim.requestReplicas(2));
    while (sim.step()) {
    }
    const ServingReport report = sim.finish();

    int live = 0;
    for (int i = 0; i < sim.numEngines(); ++i)
        live += sim.engine(i).retunes();
    EXPECT_GE(report.retunes, retired + live);
    // Every retune — retired or live — keeps its wall sample.
    EXPECT_EQ(static_cast<int>(report.retuneWall.size()),
              report.retunes);
    // The registry's run counters survive the rebuild too: every
    // completed request was admitted at least once, whichever engine
    // instance admitted it.
    EXPECT_EQ(registry.counter("planner.retunes").value(),
              report.retunes);
    EXPECT_GE(registry.counter("serve.admissions").value(),
              report.completed);
}

TEST(CounterCarryOver, PreemptionCountsSurviveRebuilds)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.retunePeriod = 8;
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.ratePerSec = 40.0;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.arrival.seed = 99;
    cfg.arrival.numSloClasses = 2;
    cfg.batcher.tokenBudget = 4096;
    // A pool tight enough that preemptions are in flight when the
    // replica drains: the tightest that still holds the largest
    // request's full context (3,456 tokens).
    cfg.batcher.kvBudgetBytes = 3456LL * kvBytesPerToken(cfg.model);
    cfg.batcher.kvBytesPerToken = kvBytesPerToken(cfg.model);
    cfg.batcher.kvBlockTokens = 16;
    cfg.replicas.replicaDevices = 4;
    cfg.replicas.initialReplicas = 2;
    cfg.horizon = 4.0;
    cfg.seed = 11;

    ServingSimulator sim(cluster, cfg);
    while (sim.now() < 1.0 && sim.step()) {
    }
    // Scale down: replica 1 drains and stops with its eviction
    // counters intact, then the slot is rebuilt on scale-up — the
    // same carry the report's retune counters get.
    ASSERT_TRUE(sim.requestReplicas(1));
    while ((sim.reconfigPending() ||
            sim.engine(1).state() != EngineState::Stopped) &&
           sim.step()) {
    }
    ASSERT_EQ(sim.engine(1).state(), EngineState::Stopped);

    ASSERT_TRUE(sim.requestReplicas(2));
    while (sim.step()) {
    }
    const ServingReport report = sim.finish();
    ASSERT_GT(report.preemptions, 0)
        << "no preemption in flight; the test needs a tighter pool";

    // The report total is engine-authoritative: retired engines'
    // evictions carry over the rebuild, and the per-class split
    // re-sums to it.
    std::int64_t by_class = 0;
    for (const std::int64_t c : report.preemptionsByClass)
        by_class += c;
    EXPECT_EQ(by_class, report.preemptions);
    std::int64_t live = 0;
    for (int i = 0; i < sim.numEngines(); ++i)
        live += sim.engine(i).batcher().totalPreemptions();
    EXPECT_GE(report.preemptions, live);
}

} // namespace
} // namespace laer
