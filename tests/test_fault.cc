/**
 * @file
 * Tests for the fault-injection subsystem (src/fault/) and its
 * serve-layer recovery semantics: plan expansion/parsing, request
 * conservation across replica death, retry-budget exhaustion, KV-loss
 * recompute accounting under exact attribution, dead-link transfer
 * aborts, degraded-pool admission shrink, a deferred fail-stop landing
 * at its victim's step end, determinism of a faulted run, and the
 * engine-lifecycle rules under faults: a split refused while a pool is
 * dead or while retries it could not re-home wait out their backoff,
 * stranded contexts failed at a dead decode pool, contexts and retries
 * a fault-shrunk pool can never hold failed at its door or, already
 * in the prefill pool, when it shrinks, and a split rebuild that
 * comes back whole.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "ctrl/control_loop.hh"
#include "fault/fault.hh"
#include "obs/req_trace.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

// ---- plan expansion and parsing --------------------------------------------

TEST(FaultPlan, ScriptedEventsSortStably)
{
    FaultConfig cfg;
    cfg.events.push_back({2.0, FaultKind::ReplicaRepair, 1, 1.0});
    cfg.events.push_back({1.0, FaultKind::ReplicaFail, 1, 1.0});
    cfg.events.push_back({1.0, FaultKind::ReplicaFail, 0, 1.0});
    const std::vector<FaultEvent> plan = expandFaultPlan(cfg, 2, 10.0);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0].target, 0);
    EXPECT_EQ(plan[1].target, 1);
    EXPECT_EQ(plan[2].kind, FaultKind::ReplicaRepair);
}

TEST(FaultPlan, MtbfDrawsAreSeededAndPaired)
{
    FaultConfig cfg;
    cfg.mtbf = 2.0;
    cfg.mttr = 0.5;
    cfg.seed = 7;
    const std::vector<FaultEvent> a = expandFaultPlan(cfg, 4, 30.0);
    const std::vector<FaultEvent> b = expandFaultPlan(cfg, 4, 30.0);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].target, b[i].target);
    }
    // Every drawn failure carries its repair, mttr later.
    int fails = 0, repairs = 0;
    for (const FaultEvent &e : a) {
        fails += e.kind == FaultKind::ReplicaFail;
        repairs += e.kind == FaultKind::ReplicaRepair;
    }
    EXPECT_EQ(fails, repairs);
}

TEST(FaultPlan, ParsesPlanFileAndRejectsGarbage)
{
    const std::string path = "/tmp/laer_test_fault_plan.txt";
    {
        std::ofstream out(path);
        out << "# storm\n"
            << "retry-budget 5\n"
            << "backoff 0.01 0.25\n"
            << "at 1.5 replica-fail 0\n"
            << "at 2.5 replica-repair 0\n"
            << "at 3.0 link-degrade 0 2.5  # slow wire\n";
    }
    const FaultConfig cfg = parseFaultPlanFile(path);
    EXPECT_EQ(cfg.retryBudget, 5);
    EXPECT_DOUBLE_EQ(cfg.backoffBase, 0.01);
    EXPECT_DOUBLE_EQ(cfg.backoffCap, 0.25);
    ASSERT_EQ(cfg.events.size(), 3u);
    EXPECT_EQ(cfg.events[2].kind, FaultKind::LinkDegrade);
    EXPECT_DOUBLE_EQ(cfg.events[2].magnitude, 2.5);
    EXPECT_TRUE(cfg.enabled());
    // Each line alone is malformed: an unknown kind, a magnitude that
    // does not parse (a failed read would silently write 0), and
    // trailing tokens after a directive's arguments.
    for (const char *bad :
         {"at 1.0 replica-melt 0\n", "at 1.0 straggler-start 0 abc\n",
          "at 1.0 straggler-start 0 2.5x\n",
          "at 1.0 straggler-start 0 2.5 7\n", "mtbf 1.0 junk\n"}) {
        {
            std::ofstream out(path);
            out << bad;
        }
        EXPECT_THROW(parseFaultPlanFile(path), FatalError) << bad;
    }
    std::remove(path.c_str());
}

TEST(FaultPlan, RejectsTargetsOutsideTheEngines)
{
    const auto plan_of = [](FaultKind kind, int target, Seconds time) {
        FaultConfig cfg;
        cfg.events.push_back({time, kind, target, 1.0});
        return cfg;
    };
    EXPECT_THROW(
        expandFaultPlan(plan_of(FaultKind::ReplicaFail, 2, 1.0), 2, 10.0),
        FatalError);
    EXPECT_THROW(expandFaultPlan(plan_of(FaultKind::StragglerStart, -1,
                                         1.0),
                                 2, 10.0),
                 FatalError);
    EXPECT_NO_THROW(
        expandFaultPlan(plan_of(FaultKind::DeviceFail, 1, 1.0), 2, 10.0));
    // Link kinds act on the boundary link and ignore their target.
    for (const FaultKind link :
         {FaultKind::LinkDown, FaultKind::LinkUp, FaultKind::LinkDegrade})
        for (const int target : {-1, 2, 99})
            EXPECT_NO_THROW(
                expandFaultPlan(plan_of(link, target, 1.0), 2, 10.0));
    // Times must be finite and non-negative, on every kind.
    for (const Seconds time :
         {-0.5, std::numeric_limits<Seconds>::infinity(),
          std::numeric_limits<Seconds>::quiet_NaN()})
        EXPECT_THROW(
            expandFaultPlan(plan_of(FaultKind::LinkDown, 0, time), 2, 10.0),
            FatalError);

    // The simulator expands its plan at construction, against its
    // replica slots.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.replicas.replicaDevices = 4;
    cfg.faults = plan_of(FaultKind::ReplicaFail, 2, 1.0);
    EXPECT_THROW(ServingSimulator(cluster, cfg), FatalError);
}

// ---- serving recovery semantics --------------------------------------------

ServingConfig
faultReplicaConfig(double rate)
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
    cfg.seed = 11;
    return cfg;
}

TEST(FaultRecovery, ConservesRequestsAcrossReplicaDeath)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(30.0);
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 1, 1.0});
    cfg.faults.events.push_back(
        {2.0, FaultKind::ReplicaRepair, 1, 1.0});
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();

    // Zero requests lost: every admitted request retires or is
    // explicitly counted failed — and with a live survivor plus a
    // repair, none should need to fail at all.
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
    EXPECT_EQ(report.availability.requestsFailed, 0);
    EXPECT_GT(report.availability.requestsRetried, 0);
    EXPECT_EQ(report.availability.faultsInjected, 1);
    EXPECT_EQ(report.availability.repairs, 1);
    EXPECT_GT(report.availability.mttrMean, 0.0);
    EXPECT_GE(report.availability.mttrMax,
              report.availability.mttrMean);
    EXPECT_GT(report.availability.degradedSeconds, 0.0);
    ASSERT_EQ(report.availability.timeline.size(), 2u);
    EXPECT_EQ(report.availability.timeline[0].kind,
              FaultKind::ReplicaFail);
}

TEST(FaultRecovery, RetryBudgetExhaustionCountsFailedNotHung)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(30.0);
    // Budget 0: the first re-queue already exceeds it, so every
    // request evicted by the kill fails immediately even though the
    // second replica stays live.
    cfg.faults.retryBudget = 0;
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 0, 1.0});
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();

    EXPECT_GT(report.availability.requestsFailed, 0);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
    EXPECT_EQ(report.availability.requestsRetried, 0);
    // Per-class accounting covers every failure.
    std::int64_t by_class = 0;
    for (const std::int64_t n : report.availability.failedByClass)
        by_class += n;
    EXPECT_EQ(by_class, report.availability.requestsFailed);
}

TEST(FaultRecovery, AllReplicasDeadFailsFastInsteadOfHanging)
{
    const Cluster cluster(1, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(30.0);
    cfg.replicas.replicaDevices = 4; // one slot: kill = total outage
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 0, 1.0});
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run(); // must terminate

    EXPECT_GT(report.availability.requestsFailed, 0);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
}

TEST(FaultRecovery, DeferredKillLandsAtTheVictimsStepEnd)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(30.0);
    ServingSimulator clean(cluster, cfg);
    clean.run();
    const ServingStepResult *last = nullptr;
    for (const ServingStepResult &r : clean.stepResults())
        if (r.pool == 1)
            last = &r;
    ASSERT_NE(last, nullptr);
    const Seconds step_end = last->start + last->duration;

    // Fail replica 1 mid-way through its last step, with no repair:
    // the in-flight step finishes, and the kill must land exactly at
    // its end even though the engine has no work left to wake it.
    cfg.faults.events.push_back({last->start + 0.5 * last->duration,
                                 FaultKind::ReplicaFail, 1, 1.0});
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();

    EXPECT_EQ(sim.engine(1).state(), EngineState::Stopped);
    EXPECT_EQ(report.availability.faultsInjected, 1);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
    // Both 4-device replicas are powered until the kill, replica 0
    // alone after it: deviceSeconds = 4 * elapsed + 4 * kill time.
    const Seconds killed_at = report.deviceSeconds / 4.0 - report.elapsed;
    EXPECT_NEAR(killed_at, step_end, 1e-9);
}

TEST(FaultRecovery, KvLossRecomputeKeepsAttributionExact)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(30.0);
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 1, 1.0});
    cfg.faults.events.push_back(
        {1.8, FaultKind::ReplicaRepair, 1, 1.0});
    ReqTraceConfig trace_cfg;
    trace_cfg.sampleEvery = 1; // every request, exact conservation
    ReqTraceRecorder recorder(trace_cfg);
    cfg.reqTrace = &recorder;
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();

    // Every retirement re-summed bit-exactly even with retry_recovery
    // spans in the breakdown, and the retried requests' dead time
    // landed in the new component.
    EXPECT_TRUE(recorder.violations().empty());
    EXPECT_GT(recorder.sampledRetries(), 0);
    EXPECT_EQ(recorder.sampledRetired() + recorder.sampledFailed(),
              report.completed + report.availability.requestsFailed);
    ASSERT_FALSE(report.attributionByClass.empty());
    const auto &stats =
        report.attributionByClass[0][static_cast<int>(
            AttrComponent::RetryRecovery)];
    EXPECT_GT(stats.count, 0);
    EXPECT_GT(stats.max, 0.0);
}

TEST(FaultRecovery, DeadBoundaryLinkAbortsTransfersAndRetries)
{
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.capacity = 4;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 25.0;
    cfg.arrival.meanPrefillTokens = 128;
    cfg.arrival.meanDecodeTokens = 16;
    cfg.arrival.seed = 9;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.seed = 13;
    cfg.faults.events.push_back({0.8, FaultKind::LinkDown, 0, 1.0});
    cfg.faults.events.push_back({1.6, FaultKind::LinkUp, 0, 1.0});
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();

    EXPECT_GT(report.availability.transfersAborted, 0);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
    EXPECT_EQ(report.availability.requestsFailed, 0);
    EXPECT_GT(report.availability.requestsRetried, 0);
}

/** Disaggregated 4/4 split on 8 devices with byte-accounted KV pools;
 * the HBM leaves room for a 2/6 re-split. */
ServingConfig
faultDisaggConfig()
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.capacity = 4;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 25.0;
    cfg.arrival.meanPrefillTokens = 128;
    cfg.arrival.meanDecodeTokens = 16;
    cfg.arrival.seed = 9;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.hbmPerDevice = 64LL << 30;
    cfg.seed = 13;
    return cfg;
}

/** Step `sim` until its clock reaches `t` (or the run drains). */
void
stepUntil(ServingSimulator &sim, Seconds t)
{
    while (sim.now() < t && sim.step()) {
    }
}

TEST(FaultRecovery, SplitIsRefusedWhileAPoolIsDead)
{
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultDisaggConfig();

    // The same split is accepted while both pools live.
    ServingSimulator healthy(cluster, cfg);
    stepUntil(healthy, 1.5);
    EXPECT_TRUE(healthy.requestSplit(2));

    // Kill the decode pool for good: a dead pool has nothing to drain,
    // so the split is refused instead of aborting the run.
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 1, 1.0});
    ServingSimulator sim(cluster, cfg);
    stepUntil(sim, 1.5);
    ASSERT_EQ(sim.engine(1).state(), EngineState::Stopped);
    bool accepted = true;
    EXPECT_NO_THROW(accepted = sim.requestSplit(2));
    EXPECT_FALSE(accepted);
    EXPECT_FALSE(sim.reconfigPending());

    while (sim.step()) {
    }
    const ServingReport report = sim.finish();
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
}

TEST(FaultRecovery, DeadDecodePoolFailsStrandedContexts)
{
    // The disaggregated twin of AllReplicasDeadFailsFastInsteadOfHanging:
    // with no repair coming, contexts reaching the dead decode pool's
    // door fail instead of back-pressuring the prefill pool forever.
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultDisaggConfig();
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 1, 1.0});
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run(); // must terminate

    EXPECT_GT(report.availability.requestsFailed, 0);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
}

TEST(FaultRecovery, SplitRebuildComesBackWhole)
{
    // A straggler with no end on the prefill pool, then a re-split:
    // the rebuilt pools come back whole, so the degraded window closes
    // at the rebuild instead of running to the end of the run.
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultDisaggConfig();
    const Seconds straggle_at = 0.5;
    cfg.faults.events.push_back(
        {straggle_at, FaultKind::StragglerStart, 0, 2.0});
    ServingSimulator sim(cluster, cfg);
    stepUntil(sim, 1.0);
    ASSERT_TRUE(sim.requestSplit(2));
    while (sim.step()) {
    }
    const ServingReport report = sim.finish();

    const ScalingEvent *split = nullptr;
    for (const ScalingEvent &e : report.scalingEvents)
        if (e.action == "split")
            split = &e;
    ASSERT_NE(split, nullptr);
    const Seconds rebuilt_at = split->applied - split->loadDelay;
    EXPECT_NEAR(report.availability.degradedSeconds,
                rebuilt_at - straggle_at, 1e-9);
    EXPECT_LT(rebuilt_at, report.elapsed);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
}

TEST(FaultRecovery, DeviceFailureShrinksPoolInsteadOfAborting)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(25.0);
    cfg.hbmPerDevice = 30LL << 30; // byte-accounted KV pools
    cfg.faults.events.push_back({1.0, FaultKind::DeviceFail, 0, 2.0});
    ServingSimulator sim(cluster, cfg);

    ServingConfig healthy = cfg;
    healthy.faults = FaultConfig{};
    ServingSimulator base(cluster, healthy);
    const Bytes full_budget = base.engine(0).batcher().kvBudgetBytes();

    const ServingReport report = sim.run();
    // 2 of 4 devices dead: the slice's budget re-derives from the
    // survivors instead of the run aborting.
    EXPECT_EQ(sim.engine(0).batcher().kvBudgetBytes(),
              full_budget / 2);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
    EXPECT_EQ(report.availability.faultsInjected, 1);
}

/** Disaggregated 4/4 split whose long decode targets (mean 4000
 * tokens) dwarf the prompts, on an HBM budget of `hbm_gib` GiB per
 * device: the full contexts only fit pools of four devices. */
ServingConfig
longDecodeDisaggConfig(double hbm_gib, Seconds horizon)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.capacity = 4;
    cfg.simulatedLayers = 2;
    cfg.horizon = horizon;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 25.0;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 4000;
    cfg.arrival.seed = 9;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.hbmPerDevice =
        static_cast<Bytes>(hbm_gib * static_cast<double>(1LL << 30));
    cfg.seed = 13;
    return cfg;
}

TEST(FaultRecovery, SplitWaitsForRetriesThatCannotFit)
{
    // The decode pool dies with every context inside it; they wait out
    // a 3 s backoff in the retry queue, in no batcher. A 6/2 split
    // would leave a 2-device decode pool (~2,685 KV tokens) that
    // cannot hold their ~4,000-token contexts, so re-homing them after
    // the drain would abort the run. The split must count them and
    // refuse.
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = longDecodeDisaggConfig(46.55, 0.5);
    cfg.faults.backoffBase = 3.0;
    cfg.faults.backoffCap = 3.0;
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 1, 1.0});
    cfg.faults.events.push_back(
        {1.01, FaultKind::ReplicaRepair, 1, 1.0});
    ServingSimulator sim(cluster, cfg);
    stepUntil(sim, 1.2);
    ASSERT_EQ(sim.retryingNow(), 8);
    ASSERT_EQ(sim.engine(1).state(), EngineState::Loading);

    EXPECT_FALSE(sim.requestSplit(6));
    EXPECT_FALSE(sim.reconfigPending());
    while (sim.step()) {
    }
    const ServingReport report = sim.finish();
    EXPECT_EQ(report.offered, 9);
    EXPECT_EQ(report.completed, report.offered);
    EXPECT_EQ(report.availability.requestsFailed, 0);
}

/** Timestamp of the first `name` event in a written trace whose
 * arguments start with request `id`; empty when there is none. */
std::string
traceTsOf(const std::string &trace_json, const std::string &name, int id)
{
    std::istringstream lines(trace_json);
    const std::string args = "\"args\":{\"id\":" + std::to_string(id) + ",";
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("{\"name\":\"" + name + "\"", 0) != 0 ||
            line.find(args) == std::string::npos)
            continue;
        const std::size_t from = line.find("\"ts\":") + 5;
        return line.substr(from, line.find(',', from) - from);
    }
    return "";
}

TEST(FaultRecovery, ShrunkDecodePoolFailsContextsItCannotHold)
{
    // Three of the decode pool's four devices die at 0.3 s while
    // contexts are still in the prefill pool or on the wire. A context
    // the shrunk pool can never hold fails instead of aborting the
    // run, as the pool fails its own when it shrinks.
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = longDecodeDisaggConfig(25.91, 1.0);
    cfg.faults.events.push_back({0.3, FaultKind::DeviceFail, 1, 3.0});
    TraceRecorder trace;
    cfg.trace = &trace;
    ServingSimulator sim(cluster, cfg);
    ServingReport report;
    ASSERT_NO_THROW(report = sim.run());

    // Only the one context too big for the survivor fails.
    EXPECT_EQ(report.availability.requestsFailed, 1);
    EXPECT_EQ(report.completed, 21);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);

    // That context, request 10, arrives after the shrink. It fails at
    // the prefill door when it arrives, so no prefill step and no KV
    // transfer are spent on it.
    std::ostringstream os;
    trace.write(os);
    const std::string arrived = traceTsOf(os.str(), "admit", 10);
    ASSERT_FALSE(arrived.empty());
    EXPECT_EQ(traceTsOf(os.str(), "request_failed", 10), arrived);
    EXPECT_EQ(traceTsOf(os.str(), "kv_transfer", 10), "");
    // Prefilled and shipped anyway, it would add one migration and
    // its 118,358,016 KV bytes to these.
    EXPECT_EQ(report.migrated, 21);
    EXPECT_EQ(report.kvTransferBytes, 637534208);
}

TEST(FaultRecovery, ShrunkDecodePoolFailsPrefillContextsItCannotHold)
{
    // Request 10 (a 902-token prompt owing 15,548 decode tokens) is
    // admitted at 0.569 s and is still in the prefill pool, between
    // its two 512-token prefill chunks, when three of the decode
    // pool's four devices die at 0.58 s. The shrunk pool can never
    // hold its context, so it fails at the shrink, by the prefill
    // door's rule: its second chunk and its KV transfer are never
    // spent. Request 11, in the prefill pool beside it, fits the
    // shrunk pool and is kept.
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = longDecodeDisaggConfig(25.91, 1.0);
    cfg.faults.events.push_back({0.58, FaultKind::DeviceFail, 1, 3.0});
    TraceRecorder trace;
    cfg.trace = &trace;
    ServingSimulator sim(cluster, cfg);
    stepUntil(sim, 0.575);
    ASSERT_EQ(sim.engine(0).batcher().runningCount() +
                  sim.engine(0).batcher().waitingCount(),
              2);
    ServingReport report;
    ASSERT_NO_THROW(report = sim.run());

    EXPECT_EQ(report.availability.requestsFailed, 1);
    EXPECT_EQ(report.completed, 21);
    std::ostringstream os;
    trace.write(os);
    EXPECT_EQ(traceTsOf(os.str(), "request_failed", 10), "580000");
    EXPECT_EQ(traceTsOf(os.str(), "kv_transfer", 10), "");
    // Judged only at the decode door, it was prefilled and shipped
    // first: 22 migrations and 755,892,224 KV bytes, one context
    // (118,358,016 bytes) more than these.
    EXPECT_EQ(report.migrated, 21);
    EXPECT_EQ(report.kvTransferBytes, 637534208);
}

TEST(FaultRecovery, ShrunkPoolFailsRetriesItCannotHold)
{
    // The decode pool dies with its contexts inside, and three of its
    // four devices die while it reloads. The retries come back after
    // their 3 s backoff to a pool that holds a quarter of its budget:
    // those it can never hold fail at the retry door instead of
    // aborting the run, and the rest complete.
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = longDecodeDisaggConfig(25.0, 0.5);
    cfg.faults.backoffBase = 3.0;
    cfg.faults.backoffCap = 3.0;
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 1, 1.0});
    cfg.faults.events.push_back(
        {1.01, FaultKind::ReplicaRepair, 1, 1.0});
    cfg.faults.events.push_back({1.05, FaultKind::DeviceFail, 1, 3.0});
    ServingSimulator sim(cluster, cfg);
    ServingReport report;
    ASSERT_NO_THROW(report = sim.run());

    EXPECT_EQ(report.availability.requestsRetried, 8);
    EXPECT_EQ(report.availability.requestsFailed, 5);
    EXPECT_EQ(report.completed, 4);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
}

TEST(FaultRecovery, RepairedReplicaComesBackWithEveryDevice)
{
    // Two devices of replica 0 die, then the replica itself; the
    // scripted repair rebuilds it. The masked devices belonged to the
    // killed engine, so the rebuilt one owns its full KV budget and a
    // later device failure masks one device, not three.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(25.0);
    cfg.hbmPerDevice = 30LL << 30; // byte-accounted KV pools
    cfg.faults.events.push_back({0.5, FaultKind::DeviceFail, 0, 2.0});
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 0, 1.0});
    cfg.faults.events.push_back(
        {1.5, FaultKind::ReplicaRepair, 0, 1.0});
    cfg.faults.events.push_back({3.0, FaultKind::DeviceFail, 0, 1.0});
    ServingSimulator sim(cluster, cfg);
    const Bytes full = sim.engine(0).batcher().kvBudgetBytes();
    ASSERT_GT(full, 0);

    stepUntil(sim, 0.75);
    EXPECT_EQ(sim.engine(0).batcher().kvBudgetBytes(), full / 2);
    stepUntil(sim, 2.0);
    ASSERT_NE(sim.engine(0).state(), EngineState::Stopped); // rebuilt
    EXPECT_EQ(sim.engine(0).batcher().kvBudgetBytes(), full);

    while (sim.step()) {
    }
    const ServingReport report = sim.finish();
    EXPECT_EQ(sim.engine(0).batcher().kvBudgetBytes(), full * 3 / 4);
    ASSERT_EQ(report.availability.timeline.size(), 4u);
    const FaultEvent &later = report.availability.timeline.back();
    EXPECT_EQ(later.kind, FaultKind::DeviceFail);
    EXPECT_DOUBLE_EQ(later.magnitude, 1.0); // dead devices after it
    EXPECT_EQ(report.availability.repairs, 1);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
}

TEST(FaultRecovery, FaultedRunIsDeterministic)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(30.0);
    cfg.faults.mtbf = 1.0;
    cfg.faults.mttr = 0.4;
    cfg.faults.seed = 3;
    ServingSimulator a(cluster, cfg);
    ServingSimulator b(cluster, cfg);
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();

    EXPECT_EQ(ra.offered, rb.offered);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.availability.requestsRetried,
              rb.availability.requestsRetried);
    EXPECT_EQ(ra.availability.requestsFailed,
              rb.availability.requestsFailed);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
    EXPECT_DOUBLE_EQ(ra.availability.mttrMean,
                     rb.availability.mttrMean);
}

TEST(FaultRecovery, AutoscalerRebuildsDeadReplicaAndClosesMttr)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = faultReplicaConfig(40.0);
    cfg.horizon = 6.0;
    // No scripted repair: replacing the dead replica is the
    // autoscaler's job (capacity loss -> spin-up), and the rebuild
    // closes the same MTTR clock a scripted repair would.
    cfg.faults.events.push_back({1.0, FaultKind::ReplicaFail, 1, 1.0});
    ServingSimulator sim(cluster, cfg);
    ControlLoopConfig loop_cfg;
    loop_cfg.interval = 0.5;
    loop_cfg.kind = AutoscalerKind::ThresholdHysteresis;
    loop_cfg.autoscaler.minReplicas = 1;
    loop_cfg.autoscaler.maxReplicas = 2;
    ControlLoop loop(sim, loop_cfg);
    const ServingReport report = loop.run();

    EXPECT_EQ(report.availability.repairs, 1);
    EXPECT_GT(report.availability.mttrMean, 0.0);
    EXPECT_EQ(report.offered,
              report.completed + report.availability.requestsFailed);
    // The loop's telemetry saw the outage.
    bool saw_dead = false;
    for (const TelemetryWindow &w : loop.telemetry().history())
        saw_dead = saw_dead || w.deadReplicas > 0;
    EXPECT_TRUE(saw_dead);
    // The rebuild is a scale-up "replicas" event after the kill.
    bool rebuilt = false;
    for (const ScalingEvent &e : report.scalingEvents)
        rebuilt = rebuilt || (e.action == "replicas" &&
                              e.requested >= 1.0 && e.after > e.before);
    EXPECT_TRUE(rebuilt);
}

/** One applied event as the availability timeline records it. */
struct Applied
{
    FaultKind kind;
    int target;
    double magnitude;
};

/** Run `cfg` on `cluster` and check its timeline, injected-fault
 * count and repairs against the expected record. */
void
expectRecord(const Cluster &cluster, const ServingConfig &cfg,
             const std::vector<Applied> &timeline,
             std::int64_t injected, std::int64_t repairs)
{
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();
    const AvailabilityReport &a = report.availability;
    ASSERT_EQ(a.timeline.size(), timeline.size());
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        SCOPED_TRACE("timeline entry " + std::to_string(i));
        EXPECT_EQ(a.timeline[i].kind, timeline[i].kind);
        EXPECT_EQ(a.timeline[i].target, timeline[i].target);
        EXPECT_DOUBLE_EQ(a.timeline[i].magnitude, timeline[i].magnitude);
    }
    EXPECT_EQ(a.faultsInjected, injected);
    EXPECT_EQ(a.repairs, repairs);
    EXPECT_EQ(report.offered, report.completed + a.requestsFailed);
}

TEST(FaultRecovery, EveryKindAppliesOrDropsAsDocumented)
{
    // Every kind on a 2-replica run. No-op events are dropped: they
    // neither reach the timeline nor count as injected. Only the
    // injecting kinds (ReplicaFail, LinkDown, LinkDegrade,
    // StragglerStart, DeviceFail) count.
    {
        SCOPED_TRACE("2 replicas");
        const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
        ServingConfig cfg = faultReplicaConfig(30.0);
        cfg.faults.events = {
            {0.50, FaultKind::StragglerStart, 0, 2.0},
            {0.55, FaultKind::StragglerStart, 0, 2.0}, // same factor
            {0.60, FaultKind::StragglerEnd, 0, 1.0},
            {0.65, FaultKind::StragglerEnd, 0, 1.0},   // full speed
            {0.70, FaultKind::LinkDown, 0, 1.0},       // no link
            {0.72, FaultKind::LinkDegrade, 0, 2.0},    // no link
            {0.74, FaultKind::LinkUp, 0, 1.0},         // no link
            {0.80, FaultKind::ReplicaRepair, 1, 1.0},  // alive
            {0.90, FaultKind::DeviceRepair, 0, 1.0},   // none dead
            {1.00, FaultKind::ReplicaFail, 1, 1.0},
            {1.20, FaultKind::ReplicaFail, 1, 1.0},    // already dead
            {1.30, FaultKind::StragglerStart, 1, 3.0}, // dead engine
            {1.40, FaultKind::DeviceFail, 1, 1.0},     // dead engine
            {1.50, FaultKind::ReplicaRepair, 1, 1.0},
            {2.00, FaultKind::DeviceFail, 0, 3.0},
            {2.10, FaultKind::DeviceFail, 0, 1.0},     // last survivor
            {2.20, FaultKind::DeviceRepair, 0, 1.0},
        };
        expectRecord(cluster, cfg,
                     {{FaultKind::StragglerStart, 0, 2.0},
                      {FaultKind::StragglerEnd, 0, 1.0},
                      {FaultKind::ReplicaFail, 1, 1.0},
                      {FaultKind::ReplicaRepair, 1, 1.0},
                      {FaultKind::DeviceFail, 0, 3.0}, // dead devices
                      {FaultKind::DeviceRepair, 0, 0.0}},
                     3, 1);
    }
    // Every kind on a disaggregated run, where the link kinds apply
    // and record target 0 whatever their plan target.
    {
        SCOPED_TRACE("disaggregated");
        const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
        ServingConfig cfg = faultDisaggConfig();
        cfg.faults.events = {
            {0.40, FaultKind::LinkDegrade, 0, 2.0},
            {0.42, FaultKind::LinkDegrade, 0, 2.0},    // same factor
            {0.44, FaultKind::LinkDegrade, 1, 0.0},    // no factor
            {0.50, FaultKind::LinkUp, 0, 1.0},
            {0.55, FaultKind::LinkUp, 0, 1.0},         // healthy link
            {0.60, FaultKind::LinkDown, 5, 1.0},
            {0.65, FaultKind::LinkDown, 0, 1.0},       // already down
            {0.70, FaultKind::LinkDegrade, 0, 3.0},    // link is down
            {0.80, FaultKind::LinkUp, 1, 1.0},
            {0.90, FaultKind::StragglerStart, 1, 0.0}, // no factor
            {0.95, FaultKind::StragglerStart, 1, 1.5},
            {0.97, FaultKind::StragglerEnd, 1, 1.0},
            {1.00, FaultKind::ReplicaFail, 1, 1.0},
            {1.50, FaultKind::ReplicaRepair, 1, 1.0},
            {1.60, FaultKind::ReplicaRepair, 1, 1.0},  // rebuilding
            {2.00, FaultKind::DeviceFail, 0, 1.0},
            {2.20, FaultKind::DeviceRepair, 0, 1.0},
            {2.30, FaultKind::DeviceRepair, 0, 1.0},   // none dead
        };
        expectRecord(cluster, cfg,
                     {{FaultKind::LinkDegrade, 0, 2.0},
                      {FaultKind::LinkUp, 0, 1.0},
                      {FaultKind::LinkDown, 0, 1.0},
                      {FaultKind::LinkUp, 0, 1.0},
                      {FaultKind::StragglerStart, 1, 1.5},
                      {FaultKind::StragglerEnd, 1, 1.0},
                      {FaultKind::ReplicaFail, 1, 1.0},
                      {FaultKind::ReplicaRepair, 1, 1.0},
                      {FaultKind::DeviceFail, 0, 1.0},
                      {FaultKind::DeviceRepair, 0, 0.0}},
                     5, 1);
    }
}

TEST(FaultRecovery, DisabledFaultsLeaveReportUntouched)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    const ServingConfig cfg = faultReplicaConfig(20.0);
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();
    EXPECT_EQ(report.availability.faultsInjected, 0);
    EXPECT_EQ(report.availability.requestsRetried, 0);
    EXPECT_EQ(report.availability.requestsFailed, 0);
    EXPECT_EQ(report.availability.degradedSeconds, 0.0);
    EXPECT_TRUE(report.availability.timeline.empty());
}

} // namespace
} // namespace laer
