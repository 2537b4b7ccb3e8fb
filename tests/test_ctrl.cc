/**
 * @file
 * Tests for the serving control plane (src/ctrl/) and its serve-layer
 * hooks: device-share allocation, telemetry windows, autoscaler
 * hysteresis (no oscillation on constant load), the engine
 * drain/resize lifecycle (sequence conservation, disjoint contiguous
 * re-partitions), replica scale up/down end to end, and the
 * observe-only control loop's equivalence to an uncontrolled run.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/rng.hh"
#include "ctrl/control_loop.hh"
#include "difftest/probe.hh"
#include "planner/replica_alloc.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

// ---- device-share allocation (planner) -------------------------------------

TEST(DeviceShare, ConservesAndRespectsFloors)
{
    const std::vector<int> units = deviceShareAllocation({3.0, 1.0}, 8, 2);
    ASSERT_EQ(units.size(), 2u);
    EXPECT_EQ(units[0] + units[1], 8);
    EXPECT_GE(units[0], 2);
    EXPECT_GE(units[1], 2);
    // 3:1 load with a floor of 2 each: the hot pool takes the slack.
    EXPECT_EQ(units[0], 6);
    EXPECT_EQ(units[1], 2);
}

TEST(DeviceShare, EqualLoadsSplitEvenly)
{
    const std::vector<int> units =
        deviceShareAllocation({5.0, 5.0}, 8, 1);
    EXPECT_EQ(units[0], 4);
    EXPECT_EQ(units[1], 4);
}

TEST(DeviceShare, ZeroLoadPoolKeepsOnlyTheFloor)
{
    const std::vector<int> units =
        deviceShareAllocation({0.0, 7.0}, 6, 1);
    EXPECT_EQ(units[0], 1);
    EXPECT_EQ(units[1], 5);
}

TEST(DeviceShare, RejectsInfeasibleBudgets)
{
    EXPECT_THROW(deviceShareAllocation({1.0, 1.0}, 3, 2), FatalError);
    EXPECT_THROW(deviceShareAllocation({-1.0, 1.0}, 4, 1), FatalError);
}

// ---- telemetry -------------------------------------------------------------

TelemetryWindow
makeWindow(Seconds start, Seconds end, int queue_prefill,
           int queue_decode, double kv_prefill, double kv_decode,
           Seconds stall = 0.0)
{
    TelemetryWindow w;
    w.start = start;
    w.end = end;
    w.arrivals = queue_prefill + queue_decode;
    w.arrivalRate = w.arrivals / (end - start);
    w.transferStall = stall;
    w.activeReplicas = 2;
    w.prefillDevices = 4;
    PoolSignal pre;
    pre.name = "prefill";
    pre.devices = 4;
    pre.queueDepth = queue_prefill;
    pre.running = 0;
    pre.kvUtilization = kv_prefill;
    PoolSignal dec = pre;
    dec.name = "decode";
    dec.queueDepth = queue_decode;
    dec.kvUtilization = kv_decode;
    w.pools = {pre, dec};
    return w;
}

TEST(Telemetry, BusKeepsOrderedHistory)
{
    TelemetryBus bus;
    EXPECT_TRUE(bus.empty());
    bus.publish(makeWindow(0.0, 1.0, 2, 1, 0.2, 0.1));
    bus.publish(makeWindow(1.0, 2.0, 4, 2, 0.3, 0.2));
    EXPECT_EQ(bus.history().size(), 2u);
    EXPECT_EQ(bus.last().totalQueueDepth(), 6);
    EXPECT_DOUBLE_EQ(bus.last().maxKvUtilization(), 0.3);
    // Windows must arrive in time order.
    EXPECT_THROW(bus.publish(makeWindow(0.5, 1.5, 0, 0, 0, 0)),
                 FatalError);
}

TEST(Telemetry, StoppedPoolsAreInvisibleToAggregates)
{
    TelemetryWindow w = makeWindow(0.0, 1.0, 3, 5, 0.4, 0.9);
    w.pools[1].state = EngineState::Stopped;
    EXPECT_EQ(w.totalQueueDepth(), 3);
    EXPECT_DOUBLE_EQ(w.maxKvUtilization(), 0.4);
}

// ---- autoscaler policies ---------------------------------------------------

ControlState
replicaState(int active, int slots)
{
    ControlState state;
    state.activeReplicas = active;
    state.replicaSlots = slots;
    state.totalDevices = slots * 4;
    return state;
}

TEST(ThresholdPolicy, HoldsInsideTheDeadBand)
{
    AutoscalerConfig cfg;
    cfg.minReplicas = 1;
    cfg.maxReplicas = 4;
    ThresholdHysteresisAutoscaler policy(cfg);
    TelemetryBus bus;
    // Queue depth between the low (1) and high (8) thresholds, cool
    // KV: no action, ever — the signal is in the dead band.
    for (int i = 0; i < 50; ++i) {
        bus.publish(makeWindow(i, i + 1.0, 2, 2, 0.5, 0.5));
        const ScalingAction a = policy.decide(bus, replicaState(2, 4));
        EXPECT_EQ(a.kind, ScalingAction::Kind::None) << "window " << i;
    }
}

TEST(ThresholdPolicy, ScalesUpOnSustainedPressureThenSettles)
{
    AutoscalerConfig cfg;
    cfg.minReplicas = 1;
    cfg.maxReplicas = 3;
    ThresholdHysteresisAutoscaler policy(cfg);
    TelemetryBus bus;

    int active = 1;
    int ups = 0, downs = 0;
    for (int i = 0; i < 40; ++i) {
        bus.publish(makeWindow(i, i + 1.0, 30, 30, 0.9, 0.9));
        const ScalingAction a = policy.decide(bus, replicaState(active, 3));
        if (a.kind == ScalingAction::Kind::SetReplicas) {
            if (a.target > active)
                ++ups;
            else
                ++downs;
            active = a.target;
        }
    }
    // Constant high pressure: monotone ramp to the cap, then silence.
    EXPECT_EQ(active, 3);
    EXPECT_EQ(ups, 2);
    EXPECT_EQ(downs, 0);
}

TEST(ThresholdPolicy, NeverOscillatesOnAConstantSignal)
{
    // Whatever the constant signal is, the policy's live-count series
    // must be monotone: hysteresis forbids up-down-up churn.
    for (const int queue : {0, 2, 5, 9, 30}) {
        AutoscalerConfig cfg;
        cfg.minReplicas = 1;
        cfg.maxReplicas = 4;
        ThresholdHysteresisAutoscaler policy(cfg);
        TelemetryBus bus;
        int active = 2;
        int direction_changes = 0, last_direction = 0;
        for (int i = 0; i < 60; ++i) {
            bus.publish(makeWindow(i, i + 1.0, queue, queue, 0.3, 0.3));
            const ScalingAction a =
                policy.decide(bus, replicaState(active, 4));
            if (a.kind != ScalingAction::Kind::SetReplicas)
                continue;
            const int direction = a.target > active ? 1 : -1;
            if (last_direction != 0 && direction != last_direction)
                ++direction_changes;
            last_direction = direction;
            active = a.target;
        }
        EXPECT_EQ(direction_changes, 0) << "queue depth " << queue;
    }
}

TEST(TargetUtilPolicy, TracksTheSetpoint)
{
    AutoscalerConfig cfg;
    cfg.minReplicas = 1;
    cfg.maxReplicas = 8;
    cfg.targetUtilization = 0.5;
    cfg.deadband = 0.2;
    TargetUtilizationAutoscaler policy(cfg);
    TelemetryBus bus;

    // Hot pools at 0.9 utilization with 2 live replicas: desired =
    // ceil(2 * 0.9 / 0.5) = 4.
    bus.publish(makeWindow(0.0, 1.0, 0, 0, 0.9, 0.9));
    ScalingAction a = policy.decide(bus, replicaState(2, 8));
    ASSERT_EQ(a.kind, ScalingAction::Kind::SetReplicas);
    EXPECT_EQ(a.target, 4);

    // The two cooldown windows after an action hold whatever the
    // signal.
    for (int i = 1; i <= 2; ++i) {
        bus.publish(makeWindow(i, i + 1.0, 0, 0, 0.1, 0.1));
        a = policy.decide(bus, replicaState(4, 8));
        EXPECT_EQ(a.kind, ScalingAction::Kind::None) << "window " << i;
    }

    // Inside the dead band (0.4..0.6): hold.
    bus.publish(makeWindow(3.0, 4.0, 0, 0, 0.55, 0.55));
    a = policy.decide(bus, replicaState(4, 8));
    EXPECT_EQ(a.kind, ScalingAction::Kind::None);

    // Cool pools: gentle single-step ramp-down.
    bus.publish(makeWindow(4.0, 5.0, 0, 0, 0.1, 0.1));
    a = policy.decide(bus, replicaState(4, 8));
    ASSERT_EQ(a.kind, ScalingAction::Kind::SetReplicas);
    EXPECT_EQ(a.target, 3);
}

TEST(SplitPolicy, IdealSplitFollowsPressure)
{
    ControlState state;
    state.splitMode = true;
    state.prefillDevices = 4;
    state.totalDevices = 8;
    state.nodeDevices = 2;
    state.minPoolDevices = 2;

    // Prefill queue 3x the decode queue: the ideal split leans
    // prefill-ward.
    const int hot_prefill =
        idealPrefillDevices(makeWindow(0, 1, 30, 10, 0.5, 0.5), state);
    EXPECT_GT(hot_prefill, 4);
    // Transfer stall counts as decode pressure.
    const int hot_decode = idealPrefillDevices(
        makeWindow(0, 1, 2, 2, 0.5, 0.9, /*stall=*/3.0), state);
    EXPECT_LT(hot_decode, 4);
    // Balanced pools hold the even split.
    EXPECT_EQ(idealPrefillDevices(makeWindow(0, 1, 8, 8, 0.5, 0.5),
                                  state),
              4);
}

TEST(SplitPolicy, TooSmallClusterHoldsTheSplit)
{
    // One 4-device node split 2/2: whole-node moves cannot shift a
    // device without emptying a pool, so both policies hold the split
    // under any pressure.
    ControlState state;
    state.splitMode = true;
    state.prefillDevices = 2;
    state.totalDevices = 4;
    state.nodeDevices = 4;
    state.minPoolDevices = 2;
    const TelemetryWindow hot_prefill = makeWindow(0, 1, 60, 2, 0.5, 0.5);
    EXPECT_EQ(idealPrefillDevices(hot_prefill, state), 2);

    AutoscalerConfig cfg;
    ThresholdHysteresisAutoscaler threshold(cfg);
    TargetUtilizationAutoscaler target(cfg);
    AutoscalerPolicy *const policies[] = {&threshold, &target};
    for (AutoscalerPolicy *policy : policies) {
        TelemetryBus bus;
        for (int i = 0; i < 12; ++i) {
            bus.publish(i < 6
                            ? makeWindow(i, i + 1.0, 60, 2, 0.5, 0.5)
                            : makeWindow(i, i + 1.0, 2, 60, 0.5, 0.9, 3.0));
            EXPECT_EQ(policy->decide(bus, state).kind,
                      ScalingAction::Kind::None)
                << policy->name() << " window " << i;
        }
    }
}

// ---- drain lifecycle -------------------------------------------------------

Request
makeRequest(int id, Seconds arrival, TokenCount prefill,
            TokenCount decode, int slo_class = 0)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.prefillTokens = prefill;
    r.decodeTokens = decode;
    r.sloClass = slo_class;
    return r;
}

TEST(Drain, ConservesEverySequenceAndEmptiesTheKvPool)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 64;
    cfg.prefillChunk = 8;
    cfg.numSloClasses = 2;
    cfg.kvBudgetBytes = 1 << 20;
    cfg.kvBytesPerToken = 1;
    cfg.kvBlockTokens = 1;
    ContinuousBatcher batcher(cfg);
    for (int i = 0; i < 6; ++i)
        batcher.enqueue(makeRequest(i, 0.1 * i, 16, 8, i % 2));

    // A few steps: some sequences running mid-prefill or decoding.
    Seconds t = 0.0;
    for (int s = 0; s < 3; ++s) {
        const BatchPlan plan = batcher.nextBatch();
        t += 0.1;
        batcher.applyStep(plan, t);
    }
    const int finished =
        static_cast<int>(batcher.takeFinished().size());
    const int live = batcher.runningCount() + batcher.waitingCount();
    EXPECT_EQ(finished + live, 6);

    const std::vector<Request> drained = batcher.drainAll();
    EXPECT_EQ(static_cast<int>(drained.size()), live);
    EXPECT_FALSE(batcher.hasWork());
    EXPECT_EQ(batcher.kvReservedBytes(), 0);

    for (std::size_t i = 0; i < drained.size(); ++i) {
        const Request &r = drained[i];
        // Recompute disposition: prefill progress reset, swap state
        // cleared; generated tokens will be replayed.
        EXPECT_EQ(r.prefillDone, 0);
        EXPECT_FALSE(r.swapped);
        if (r.decodeDone > 0) {
            EXPECT_TRUE(r.restoring);
        }
        // Class-major order: classes never interleave backwards.
        if (i > 0) {
            EXPECT_LE(drained[i - 1].sloClass, r.sloClass);
        }
    }
    // Drains are reconfiguration, not memory pressure.
    EXPECT_EQ(batcher.totalPreemptions(), 0);
}

TEST(Drain, EngineStateMachineWalksTheLifecycle)
{
    const Cluster cluster(1, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.arrival.ratePerSec = 20.0;
    cfg.horizon = 1.0;
    ServingSimulator sim(cluster, cfg);
    // Static run: the single engine is Active from birth to report.
    EXPECT_EQ(sim.engine(0).state(), EngineState::Active);
    const ServingReport report = sim.run();
    EXPECT_EQ(sim.engine(0).state(), EngineState::Active);
    EXPECT_TRUE(report.scalingEvents.empty());
    // Static power: every device, the whole run.
    EXPECT_NEAR(report.deviceSeconds,
                4.0 * report.elapsed, 1e-9);
}

// ---- replica autoscaling end to end ----------------------------------------

ServingConfig
replicaConfig(double rate, int initial_replicas)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 4.0;
    cfg.sloTtft = 0.5;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = rate;
    cfg.arrival.meanPrefillTokens = 128;
    cfg.arrival.meanDecodeTokens = 16;
    cfg.arrival.seed = 5;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.replicas.replicaDevices = 4;
    cfg.replicas.initialReplicas = initial_replicas;
    cfg.seed = 11;
    return cfg;
}

TEST(ReplicaScaling, ScaleUpAddsCapacityBehindALoadDelay)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster, replicaConfig(30.0, 1));
    EXPECT_EQ(sim.numEngines(), 2);
    EXPECT_EQ(sim.activeReplicas(), 1);

    while (sim.now() < 1.0 && sim.step()) {
    }
    EXPECT_TRUE(sim.requestReplicas(2));
    EXPECT_EQ(sim.activeReplicas(), 2);
    // Idempotent: already at the target.
    EXPECT_FALSE(sim.requestReplicas(2));
    const ServingReport report = sim.run();

    EXPECT_EQ(report.completed, report.offered);
    ASSERT_EQ(report.scalingEvents.size(), 1u);
    const ScalingEvent &e = report.scalingEvents[0];
    EXPECT_EQ(e.action, "replicas");
    EXPECT_EQ(e.before, 1);
    EXPECT_EQ(e.after, 2);
    EXPECT_GT(e.loadDelay, 0.0); // model shards cross the host link
    EXPECT_GT(report.deviceSeconds, 0.0);
    // One replica ran alone for the first second: strictly fewer
    // device-seconds than powering the full cluster throughout.
    EXPECT_LT(report.deviceSeconds, 8.0 * report.elapsed - 1.0);
}

TEST(ReplicaScaling, ScaleDownDrainsAndRehomesEverySequence)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster, replicaConfig(30.0, 2));
    EXPECT_EQ(sim.activeReplicas(), 2);

    while (sim.now() < 1.0 && sim.step()) {
    }
    EXPECT_TRUE(sim.requestReplicas(1));
    const ServingReport report = sim.run();

    // Conservation: every offered request completes (re-homed, not
    // lost) and the run drains clean.
    EXPECT_EQ(report.completed, report.offered);
    ASSERT_EQ(report.scalingEvents.size(), 1u);
    EXPECT_EQ(report.scalingEvents[0].before, 2);
    EXPECT_EQ(report.scalingEvents[0].after, 1);
    EXPECT_EQ(sim.activeReplicas(), 1);
    EXPECT_EQ(sim.engine(1).state(), EngineState::Stopped);
}

TEST(ReplicaScaling, RejectsReplicaHooksOnStaticRuns)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = replicaConfig(10.0, 1);
    cfg.replicas = ReplicaConfig{}; // classic single engine
    ServingSimulator sim(cluster, cfg);
    EXPECT_THROW(sim.requestReplicas(2), FatalError);
}

// ---- dynamic prefill/decode split ------------------------------------------

ServingConfig
splitConfig(double rate)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.capacity = 4; // expert floor of 2 devices per pool
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = rate;
    cfg.arrival.meanPrefillTokens = 128;
    cfg.arrival.meanDecodeTokens = 16;
    cfg.arrival.seed = 9;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.seed = 13;
    return cfg;
}

TEST(SplitResize, RepartitionsDisjointContiguousAndConserves)
{
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster, splitConfig(20.0));
    EXPECT_EQ(sim.prefillDevices(), 4);

    while (sim.now() < 0.5 && sim.step()) {
    }
    EXPECT_TRUE(sim.requestSplit(6));
    const ServingReport report = sim.run();

    // The new partition covers the cluster disjointly & contiguously.
    EXPECT_EQ(sim.prefillDevices(), 6);
    const DevicePoolSlice &pre = sim.engine(0).slice();
    const DevicePoolSlice &dec = sim.engine(1).slice();
    EXPECT_EQ(pre.firstDevice, 0);
    EXPECT_EQ(pre.count, 6);
    EXPECT_EQ(dec.firstDevice, pre.endDevice());
    EXPECT_EQ(dec.endDevice(), cluster.numDevices());

    EXPECT_EQ(report.completed, report.offered);
    ASSERT_EQ(report.scalingEvents.size(), 1u);
    EXPECT_EQ(report.scalingEvents[0].action, "split");
    EXPECT_EQ(report.scalingEvents[0].before, 4);
    EXPECT_EQ(report.scalingEvents[0].after, 6);
}

TEST(SplitResize, RejectsIllegalCuts)
{
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster, splitConfig(10.0));
    EXPECT_FALSE(sim.requestSplit(3)); // straddles a node boundary
    EXPECT_FALSE(sim.requestSplit(1)); // below the expert floor
    EXPECT_FALSE(sim.requestSplit(7)); // decode below the floor
    EXPECT_FALSE(sim.requestSplit(4)); // already there
}

TEST(SplitResize, RejectsShrinksThatStrandALiveContext)
{
    // Direct KV sizing (no HBM model): the cluster-wide 8 KiB pool
    // splits by device share, so a 2-device pool owns 2 KiB. Means at
    // the length floors make every context 8 + 2 tokens, 3,000 bytes
    // at 300 bytes each: fine in any >= 4-device pool, inadmissible in
    // a 2-device one — the shrink must be refused up front, not die in
    // enqueue() after the drain.
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = splitConfig(10.0);
    cfg.arrival.meanPrefillTokens = 8;
    cfg.arrival.meanDecodeTokens = 2;
    cfg.batcher.kvBudgetBytes = 8192;
    cfg.batcher.kvBytesPerToken = 300;
    cfg.batcher.kvBlockTokens = 1;
    ServingSimulator sim(cluster, cfg);
    while (sim.engine(0).batcher().maxLiveFullContext() == 0 &&
           sim.step()) {
    }
    ASSERT_GT(sim.engine(0).batcher().maxLiveFullContext(), 0);
    EXPECT_FALSE(sim.requestSplit(6)); // decode pool would own 2 KiB
    EXPECT_FALSE(sim.requestSplit(2)); // prefill pool would
    const ServingReport report = sim.run();
    EXPECT_EQ(report.completed, report.offered);
    EXPECT_TRUE(report.scalingEvents.empty());
}

TEST(SplitResize, RejectsMemoryInfeasiblePoolsBeforeDraining)
{
    // 30 GiB/device: the 4/4 split fits (23.4 GiB shard/device) but
    // a 2-device pool's 46.7 GiB shard cannot — the memory floor
    // outranks the 2-device expert floor, and the request must be
    // refused up front instead of throwing after the drain.
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = splitConfig(10.0);
    cfg.hbmPerDevice = 30LL << 30;
    ServingSimulator sim(cluster, cfg);
    EXPECT_EQ(sim.minPoolDevices(), 4);
    EXPECT_FALSE(sim.requestSplit(2));
    EXPECT_FALSE(sim.requestSplit(6)); // decode pool would be 2
    const ServingReport report = sim.run();
    EXPECT_EQ(report.completed, report.offered);
    EXPECT_TRUE(report.scalingEvents.empty());
}

// ---- control loop ----------------------------------------------------------

TEST(ControlLoop, ObserveOnlyMatchesAnUncontrolledRun)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = replicaConfig(25.0, 2);
    ServingSimulator plain(cluster, cfg);
    const ServingReport a = plain.run();

    ServingSimulator driven(cluster, cfg);
    ControlLoopConfig loop_cfg;
    loop_cfg.interval = 0.5;
    loop_cfg.kind = AutoscalerKind::None;
    ControlLoop loop(driven, loop_cfg);
    const ServingReport b = loop.run();

    // Observation must not perturb the run: identical step count and
    // metrics, zero actions, but a populated window series.
    EXPECT_EQ(loop.actionsTaken(), 0);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
    EXPECT_DOUBLE_EQ(a.ttftP99, b.ttftP99);
    EXPECT_DOUBLE_EQ(a.goodputTps, b.goodputTps);
    EXPECT_DOUBLE_EQ(a.throughputTps, b.throughputTps);
    EXPECT_FALSE(loop.telemetry().history().empty());
    EXPECT_TRUE(b.scalingEvents.empty());
}

TEST(ControlLoop, ConstantRateNeverOscillates)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = replicaConfig(40.0, 1);
    cfg.horizon = 8.0;
    ServingSimulator sim(cluster, cfg);
    ControlLoopConfig loop_cfg;
    loop_cfg.interval = 0.5;
    loop_cfg.kind = AutoscalerKind::ThresholdHysteresis;
    loop_cfg.autoscaler.minReplicas = 1;
    loop_cfg.autoscaler.maxReplicas = 2;
    ControlLoop loop(sim, loop_cfg);
    const ServingReport report = loop.run();

    EXPECT_EQ(report.completed, report.offered);
    // A constant-rate stream settles: the replica series may ramp and,
    // once the offering closes, ramp down — but it never churns
    // up-down-up.
    int direction_changes = 0, last_direction = 0;
    for (const ScalingEvent &e : report.scalingEvents) {
        EXPECT_EQ(e.action, "replicas");
        const int direction = e.after > e.before ? 1 : -1;
        if (last_direction != 0 && direction != last_direction)
            ++direction_changes;
        last_direction = direction;
    }
    EXPECT_LE(direction_changes, 1);
    // The per-window series landed in the loop's telemetry history.
    EXPECT_FALSE(loop.telemetry().history().empty());
    for (const TelemetryWindow &w : loop.telemetry().history())
        EXPECT_GE(w.activeReplicas, 1);
}

// ---- fuzzed scaling storms -------------------------------------------------

/** Run `sim` to a boundary, then fire a random reconfiguration from
 * `decide` when none is pending. Returns false once the run ended. */
template <typename Decide>
bool
stormWindow(ServingSimulator &sim, Seconds boundary, Decide decide)
{
    bool alive = true;
    while (sim.now() < boundary && (alive = sim.step())) {
    }
    if (alive && !sim.reconfigPending())
        decide();
    return alive;
}

/** Assert the conservation invariants on a finished storm run. */
void
expectStormConserves(const MetricsRegistry &registry,
                     const ServingReport &report, int total_devices)
{
    EXPECT_EQ(report.completed, report.offered);
    // The storm must actually storm.
    EXPECT_GE(report.scalingEvents.size(), 3u);
    SnapshotStream stream;
    stream.snapshots = registry.snapshots();
    ASSERT_GT(stream.size(), 10u);
    InvariantContext context;
    context.totalDevices = total_devices;
    const auto violations = checkStreamInvariants(stream, context);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violation(s), first: "
        << violations.front();
}

TEST(ScalingStorm, RandomReplicaDecisionsConserveEveryTransition)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = replicaConfig(30.0, 1);
    cfg.horizon = 7.0;
    MetricsRegistry registry;
    cfg.metricsRegistry = &registry;
    cfg.snapshotInterval = 0.1;
    ServingSimulator sim(cluster, cfg);

    // 50 windows of random up/down targets; requests landing while a
    // reconfiguration drains are skipped, like a real control loop.
    Rng rng(0xC0FFEE);
    for (int w = 1; w <= 50; ++w)
        if (!stormWindow(sim, 0.13 * w, [&] {
                sim.requestReplicas(
                    1 + rng.uniformInt(0, sim.numEngines() - 1));
            }))
            break;
    while (sim.step()) {
    }
    const ServingReport report = sim.finish();
    expectStormConserves(registry, report, cluster.numDevices());
}

TEST(ScalingStorm, RandomSplitDecisionsConserveEveryTransition)
{
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = splitConfig(14.0);
    cfg.horizon = 6.0;
    MetricsRegistry registry;
    cfg.metricsRegistry = &registry;
    cfg.snapshotInterval = 0.1;
    ServingSimulator sim(cluster, cfg);

    // Random node-regular prefill/decode splits; infeasible or
    // already-current targets are rejected by the simulator itself.
    Rng rng(0xBADCAB);
    const int floor_dev = sim.minPoolDevices();
    for (int w = 1; w <= 50; ++w)
        if (!stormWindow(sim, 0.12 * w, [&] {
                const int max_units =
                    (cluster.numDevices() - floor_dev) /
                    cluster.devicesPerNode();
                const int min_units = (floor_dev +
                                       cluster.devicesPerNode() - 1) /
                                      cluster.devicesPerNode();
                const int units =
                    rng.uniformInt(min_units, max_units);
                sim.requestSplit(units * cluster.devicesPerNode());
            }))
            break;
    while (sim.step()) {
    }
    const ServingReport report = sim.finish();
    expectStormConserves(registry, report, cluster.numDevices());
}

} // namespace
} // namespace laer
