/**
 * @file
 * Tests for the serving subsystem: arrival-process determinism,
 * continuous-batching invariants (budget, FIFO within a class,
 * decode priority), request life-cycle stamping, TTFT/TPOT
 * percentile accounting, and end-to-end simulator determinism.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/stats.hh"
#include "ctrl/control_loop.hh"
#include "serve/arrival.hh"
#include "serve/batcher.hh"
#include "serve/kv_cache.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

// ---- arrivals --------------------------------------------------------------

ArrivalConfig
arrivalConfig(ArrivalKind kind, std::uint64_t seed)
{
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.ratePerSec = 50.0;
    cfg.seed = seed;
    return cfg;
}

TEST(Arrival, SameSeedReproducesTheStream)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalProcess a(arrivalConfig(kind, 7));
        ArrivalProcess b(arrivalConfig(kind, 7));
        for (int i = 0; i < 500; ++i) {
            const Request ra = a.next();
            const Request rb = b.next();
            EXPECT_EQ(ra.id, rb.id);
            EXPECT_DOUBLE_EQ(ra.arrival, rb.arrival);
            EXPECT_EQ(ra.prefillTokens, rb.prefillTokens);
            EXPECT_EQ(ra.decodeTokens, rb.decodeTokens);
            EXPECT_EQ(ra.sloClass, rb.sloClass);
        }
    }
}

TEST(Arrival, DifferentSeedsDiverge)
{
    ArrivalProcess a(arrivalConfig(ArrivalKind::Poisson, 1));
    ArrivalProcess b(arrivalConfig(ArrivalKind::Poisson, 2));
    bool diverged = false;
    for (int i = 0; i < 50 && !diverged; ++i)
        diverged = a.next().arrival != b.next().arrival;
    EXPECT_TRUE(diverged);
}

TEST(Arrival, TimesStrictlyIncreaseAndLengthsRespectFloors)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalProcess p(arrivalConfig(kind, 3));
        Seconds last = 0.0;
        for (int i = 0; i < 300; ++i) {
            const Request r = p.next();
            EXPECT_GT(r.arrival, last);
            last = r.arrival;
            // The length draws' fixed floors (serve/arrival.hh).
            EXPECT_GE(r.prefillTokens, 8);
            EXPECT_GE(r.decodeTokens, 2);
            EXPECT_EQ(r.sloClass, 0);
        }
    }
}

TEST(Arrival, LongRunRateMatchesConfiguredMean)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalProcess p(arrivalConfig(kind, 11));
        const int n = 20000;
        Request last;
        for (int i = 0; i < n; ++i)
            last = p.next();
        const double rate = n / last.arrival;
        EXPECT_NEAR(rate, 50.0, 50.0 * 0.15)
            << arrivalKindName(kind);
    }
}

// ---- batcher ---------------------------------------------------------------

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

TEST(Batcher, NeverExceedsTokenBudget)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 1000;
    cfg.prefillChunk = 300;
    ContinuousBatcher batcher(cfg);
    for (int i = 0; i < 40; ++i)
        batcher.enqueue(makeRequest(i, 0.0, 700, 20));
    Seconds t = 0.0;
    while (batcher.hasWork()) {
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        EXPECT_LE(plan.totalTokens(), cfg.tokenBudget);
        t += 0.1;
        batcher.applyStep(plan, t);
    }
    EXPECT_EQ(batcher.takeFinished().size(), 40u);
}

TEST(Batcher, FifoWithinClassAndClassPriority)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 64; // admits one 64-token prefill per step
    cfg.prefillChunk = 64;
    cfg.numSloClasses = 2;
    ContinuousBatcher batcher(cfg);
    // Interleave classes; within each class ids arrive in order.
    batcher.enqueue(makeRequest(0, 0.0, 64, 2, 1));
    batcher.enqueue(makeRequest(1, 0.1, 64, 2, 0));
    batcher.enqueue(makeRequest(2, 0.2, 64, 2, 1));
    batcher.enqueue(makeRequest(3, 0.3, 64, 2, 0));

    // Class 0 admits first (FIFO: 1 then 3), then class 1 (0 then 2).
    // Record the FIRST prefill entry of each request (its admission);
    // later chunk continuations are not admissions.
    std::vector<int> admission;
    Seconds t = 0.0;
    while (batcher.hasWork()) {
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        for (const BatchEntry &e : plan.entries)
            if (e.prefillTokens > 0 &&
                std::find(admission.begin(), admission.end(),
                          e.requestId) == admission.end())
                admission.push_back(e.requestId);
        t += 0.1;
        batcher.applyStep(plan, t);
    }
    ASSERT_EQ(admission.size(), 4u);
    EXPECT_EQ(admission, (std::vector<int>{1, 3, 0, 2}));
}

TEST(Batcher, DecodeSchedulesBeforeNewPrefill)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 10;
    cfg.prefillChunk = 10;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 10, 5));
    batcher.applyStep(batcher.nextBatch(), 1.0); // prefill completes

    batcher.enqueue(makeRequest(1, 0.5, 10, 2));
    const BatchPlan plan = batcher.nextBatch();
    // Request 0's decode token must come first; the remaining budget
    // (9 tokens) partially prefills request 1.
    ASSERT_EQ(plan.entries.size(), 2u);
    EXPECT_EQ(plan.entries[0].requestId, 0);
    EXPECT_EQ(plan.entries[0].decodeTokens, 1);
    EXPECT_EQ(plan.entries[1].requestId, 1);
    EXPECT_EQ(plan.entries[1].prefillTokens, 9);
    EXPECT_EQ(plan.totalTokens(), 10);
}

TEST(Batcher, MaxRunningBoundsAdmission)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 10000;
    cfg.maxRunning = 3;
    ContinuousBatcher batcher(cfg);
    for (int i = 0; i < 10; ++i)
        batcher.enqueue(makeRequest(i, 0.0, 16, 4));
    batcher.nextBatch();
    EXPECT_EQ(batcher.runningCount(), 3);
    EXPECT_EQ(batcher.waitingCount(), 7);
}

TEST(Batcher, LifeCycleStampsFirstTokenAndFinish)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 8;
    cfg.prefillChunk = 8;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.25, 16, 3));

    batcher.applyStep(batcher.nextBatch(), 1.0); // prefill chunk 1
    EXPECT_EQ(batcher.find(0)->phase(), RequestPhase::Prefill);
    batcher.applyStep(batcher.nextBatch(), 2.0); // prefill done, token 1
    EXPECT_EQ(batcher.find(0)->phase(), RequestPhase::Decode);
    batcher.applyStep(batcher.nextBatch(), 3.0); // token 2
    batcher.applyStep(batcher.nextBatch(), 4.0); // token 3, finished

    const auto done = batcher.takeFinished();
    ASSERT_EQ(done.size(), 1u);
    const Request &r = done[0];
    EXPECT_DOUBLE_EQ(r.firstTokenTime, 2.0);
    EXPECT_DOUBLE_EQ(r.finishTime, 4.0);
    EXPECT_DOUBLE_EQ(r.ttft(), 1.75);
    EXPECT_DOUBLE_EQ(r.tpot(), 1.0); // (4 - 2) / (3 - 1)
}

// ---- metrics ---------------------------------------------------------------

Request
finishedRequest(Seconds arrival, Seconds first_token, Seconds finish,
                TokenCount decode)
{
    Request r = makeRequest(0, arrival, 8, decode);
    r.prefillDone = r.prefillTokens;
    r.decodeDone = decode;
    r.firstTokenTime = first_token;
    r.finishTime = finish;
    return r;
}

TEST(Metrics, PercentileAndGoodputAccounting)
{
    ServingMetrics m(0.5); // TTFT SLO: 500 ms
    // TTFTs: 0.1, 0.2, ..., 1.0; TPOT fixed at 0.05 for all.
    std::vector<double> ttfts;
    for (int i = 1; i <= 10; ++i) {
        const Seconds ttft = 0.1 * i;
        const TokenCount decode = 11;
        m.record(finishedRequest(0.0, ttft, ttft + 0.05 * 10, decode));
        ttfts.push_back(ttft);
    }
    EXPECT_EQ(m.completed(), 10);
    EXPECT_EQ(m.sloMet(), 5); // 0.1 .. 0.5 meet the SLO
    EXPECT_EQ(m.decodedTokens(), 110);
    EXPECT_EQ(m.goodTokens(), 55);
    EXPECT_NEAR(m.ttftPercentile(50.0), percentile(ttfts, 50.0), 1e-12);
    EXPECT_NEAR(m.ttftPercentile(99.0), percentile(ttfts, 99.0), 1e-12);
    EXPECT_NEAR(m.tpotPercentile(50.0), 0.05, 1e-12);
    EXPECT_NEAR(m.throughput(10.0), 11.0, 1e-12);
    EXPECT_NEAR(m.goodput(10.0), 5.5, 1e-12);
}

TEST(Metrics, SingleTokenRequestsHaveNoTpot)
{
    ServingMetrics m(1.0);
    Request r = makeRequest(0, 0.0, 8, 1);
    r.prefillDone = 8;
    r.decodeDone = 1;
    r.firstTokenTime = 0.2;
    r.finishTime = 0.2;
    m.record(r);
    EXPECT_EQ(m.completed(), 1);
    EXPECT_DOUBLE_EQ(m.tpotPercentile(50.0), 0.0);
}

// ---- end to end ------------------------------------------------------------

ServingConfig
smallServingConfig(ServingPolicy policy)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = policy;
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.ratePerSec = 20.0;
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.arrival.seed = 99;
    cfg.batcher.tokenBudget = 4096;
    cfg.routing = RoutingModel::wikitext(0, 0, 0, 0); // skew preset;
    cfg.retunePeriod = 8;                             // sizes refilled
    cfg.seed = 5;
    return cfg;
}

TEST(ServingSim, RunsToCompletionAndDrains)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    for (const ServingPolicy policy :
         {ServingPolicy::LaerServe, ServingPolicy::StaticEp,
          ServingPolicy::FlexMoe}) {
        ServingSimulator sim(cluster, smallServingConfig(policy));
        const ServingReport report = sim.run();
        EXPECT_GT(report.offered, 0) << servingPolicyName(policy);
        EXPECT_EQ(report.offered, report.completed)
            << servingPolicyName(policy);
        EXPECT_GT(report.steps, 0);
        EXPECT_GT(report.throughputTps, 0.0);
        EXPECT_GE(report.elapsed, cluster.numDevices() > 0
                      ? report.ttftP50 : 0.0);
        EXPECT_GE(report.ttftP99, report.ttftP50);
    }
}

TEST(ServingSim, DeterministicAcrossRuns)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator a(cluster, smallServingConfig(
                                    ServingPolicy::LaerServe));
    ServingSimulator b(cluster, smallServingConfig(
                                    ServingPolicy::LaerServe));
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_EQ(ra.offered, rb.offered);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.ttftP99, rb.ttftP99);
    EXPECT_DOUBLE_EQ(ra.tpotP99, rb.tpotP99);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
    ASSERT_EQ(a.stepResults().size(), b.stepResults().size());
    for (std::size_t i = 0; i < a.stepResults().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.stepResults()[i].duration,
                         b.stepResults()[i].duration);
        EXPECT_EQ(a.stepResults()[i].tokens,
                  b.stepResults()[i].tokens);
    }
}

TEST(ServingSim, LaerRetunesOnSchedule)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster, smallServingConfig(
                                      ServingPolicy::LaerServe));
    const ServingReport report = sim.run();
    EXPECT_GT(report.retunes, 0);
    EXPECT_DOUBLE_EQ(report.migrationTotal, 0.0); // FSEP hides moves
}

TEST(ServingSim, ThreadCountDoesNotChangeTheSimulation)
{
    // --threads only changes wall time: the per-layer fan-out and the
    // tuner's scheme evaluation write per-index slots and reduce in a
    // fixed order, so a multi-threaded run is step-identical to the
    // serial one.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig serial = smallServingConfig(
        ServingPolicy::LaerServe);
    ServingConfig parallel = serial;
    parallel.threads = 4;
    ServingSimulator a(cluster, serial);
    ServingSimulator b(cluster, parallel);
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.retunes, rb.retunes);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.ttftP99, rb.ttftP99);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
    ASSERT_EQ(a.stepResults().size(), b.stepResults().size());
    for (std::size_t i = 0; i < a.stepResults().size(); ++i)
        EXPECT_DOUBLE_EQ(a.stepResults()[i].duration,
                         b.stepResults()[i].duration);
}

TEST(ServingSim, ReplicaRunIsStepIdenticalAcrossThreadCounts)
{
    // The event core fans a multi-engine window out over the worker
    // pool and applies the buffered steps in (start, engine) order: a
    // 2-replica run must be step-for-step identical at 1 and 8
    // threads.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig base = smallServingConfig(ServingPolicy::LaerServe);
    base.replicas.replicaDevices = 4; // 2 replica engines
    base.arrival.ratePerSec = 40.0;
    ServingConfig threaded = base;
    threaded.threads = 8;
    ServingSimulator a(cluster, base);     // threads = 1: no pool
    ServingSimulator b(cluster, threaded); // 8 workers
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_GT(ra.offered, 0);
    EXPECT_EQ(ra.offered, ra.completed);
    EXPECT_EQ(ra.offered, rb.offered);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.retunes, rb.retunes);
    EXPECT_EQ(ra.preemptions, rb.preemptions);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.ttftP50, rb.ttftP50);
    EXPECT_DOUBLE_EQ(ra.ttftP99, rb.ttftP99);
    EXPECT_DOUBLE_EQ(ra.tpotP99, rb.tpotP99);
    EXPECT_DOUBLE_EQ(ra.throughputTps, rb.throughputTps);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
    // Event-for-event: the merged step sequences match exactly, in
    // order — start, pool, size and pricing.
    ASSERT_EQ(a.stepResults().size(), b.stepResults().size());
    for (std::size_t i = 0; i < a.stepResults().size(); ++i) {
        const ServingStepResult &sa = a.stepResults()[i];
        const ServingStepResult &sb = b.stepResults()[i];
        EXPECT_DOUBLE_EQ(sa.start, sb.start);
        EXPECT_EQ(sa.pool, sb.pool);
        EXPECT_EQ(sa.tokens, sb.tokens);
        EXPECT_EQ(sa.prefill, sb.prefill);
        EXPECT_EQ(sa.decode, sb.decode);
        EXPECT_DOUBLE_EQ(sa.duration, sb.duration);
        EXPECT_DOUBLE_EQ(sa.maxRelTokens, sb.maxRelTokens);
    }
}

TEST(ServingSim, RunEndsAtItsLastStepWhateverSinksAttach)
{
    // Tab. 5's serving configuration on 32 devices (perfbench
    // scale-256's at the default routing seed): one engine drains past
    // the horizon. A registry's snapshot grid ends windows but not the
    // run, which ends at its last step's end, not at a grid point.
    const Cluster cluster = Cluster::a100(4, 8);
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.capacity = 2;
    cfg.horizon = 2.5;
    cfg.arrival.ratePerSec = 40.0;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.seed = 7;
    cfg.batcher.tokenBudget = 16384;
    cfg.batcher.maxRunning = 512;
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.retunePeriod = 4;
    ServingSimulator bare(cluster, cfg);
    const ServingReport plain = bare.run();
    Seconds last_end = 0.0;
    for (const ServingStepResult &s : bare.stepResults())
        last_end = std::max(last_end, s.start + s.duration);
    EXPECT_EQ(plain.elapsed, last_end);
    EXPECT_NEAR(plain.elapsed, 3.1427, 1e-4);

    MetricsRegistry registry;
    cfg.metricsRegistry = &registry;
    cfg.snapshotInterval = 0.5;
    ServingSimulator observed(cluster, cfg);
    EXPECT_EQ(observed.run().elapsed, plain.elapsed);
}

TEST(ServingSim, RetuneWallTimesAndBudgetOverrunsAreReported)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    // An absurdly tight budget (well under any real solve) must flag
    // every retune; no budget flags none.
    ServingConfig tight = smallServingConfig(
        ServingPolicy::LaerServe);
    tight.tunerBudgetMs = 1e-9;
    ServingSimulator sim(cluster, tight);
    const ServingReport report = sim.run();
    ASSERT_GT(report.retunes, 0);
    EXPECT_EQ(static_cast<int>(report.retuneWall.size()),
              report.retunes);
    EXPECT_EQ(report.retuneBudgetOverruns, report.retunes);
    EXPECT_GT(report.retuneWallMeanMs, 0.0);
    EXPECT_GE(report.retuneWallMaxMs, report.retuneWallMeanMs);
    for (const RetuneWallSample &sample : report.retuneWall) {
        EXPECT_TRUE(sample.overBudget);
        EXPECT_GT(sample.wallMs, 0.0);
    }

    ServingConfig open = smallServingConfig(
        ServingPolicy::LaerServe);
    ServingSimulator unbudgeted(cluster, open);
    const ServingReport free_report = unbudgeted.run();
    EXPECT_EQ(free_report.retuneBudgetOverruns, 0);
    EXPECT_EQ(static_cast<int>(free_report.retuneWall.size()),
              free_report.retunes);
}

TEST(ServingSim, RetuneMetricsCountOneSamplePerRetune)
{
    // planner.retune_wall_ms holds one solver sample per retune (not
    // per layer), and the over-budget counter matches the report, with
    // and without a fan-out of the engines' windows.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    for (const int threads : {1, 4}) {
        ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
        cfg.replicas.replicaDevices = 4; // 2 replica engines
        cfg.threads = threads;
        cfg.tunerBudgetMs = 1e-9; // every retune overruns
        MetricsRegistry registry;
        cfg.metricsRegistry = &registry;
        ServingSimulator sim(cluster, cfg);
        const ServingReport report = sim.run();
        ASSERT_GT(report.retunes, 0) << "threads=" << threads;
        EXPECT_EQ(registry.histogram("planner.retune_wall_ms").count(),
                  report.retunes)
            << "threads=" << threads;
        EXPECT_EQ(registry.counter("planner.retune_over_budget").value(),
                  report.retuneBudgetOverruns)
            << "threads=" << threads;
        EXPECT_EQ(report.retuneBudgetOverruns, report.retunes);
    }
}

TEST(ServingSim, RejectsOversubscribedCluster)
{
    const Cluster tiny(1, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.capacity = 1; // 2 devices * 1 slot < 8 experts
    EXPECT_THROW(ServingSimulator(tiny, cfg), FatalError);
}

// ---- KV-cache memory model end to end --------------------------------------

ServingConfig
kvServingConfig(ServingPolicy policy)
{
    ServingConfig cfg = smallServingConfig(policy);
    // Direct pool sizing (bypassing HBM derivation) so the test
    // controls memory pressure precisely: room for ~3K cached tokens
    // against a stream of ~288-token contexts at 40 req/s.
    cfg.batcher.kvBudgetBytes =
        3000LL * kvBytesPerToken(cfg.model);
    cfg.batcher.kvBytesPerToken = kvBytesPerToken(cfg.model);
    cfg.batcher.kvBlockTokens = 16;
    cfg.arrival.ratePerSec = 40.0;
    return cfg;
}

TEST(ServingSim, KvPressurePreemptsAndConservesTheBudget)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster,
                         kvServingConfig(ServingPolicy::LaerServe));
    const ServingReport report = sim.run();

    EXPECT_GT(report.offered, 0);
    EXPECT_EQ(report.offered, report.completed); // drains despite evictions
    EXPECT_GT(report.preemptions, 0) << "no memory pressure simulated";
    EXPECT_GT(report.kvBudgetBytes, 0);

    // Conservation: reserved KV bytes never exceed the budget at any
    // step of the run.
    EXPECT_LE(report.peakKvUtilization, 1.0);
    EXPECT_GT(report.peakKvUtilization, 0.5); // pressure was real
    EXPECT_LE(report.meanKvUtilization, report.peakKvUtilization);
    for (const ServingStepResult &s : sim.stepResults()) {
        EXPECT_GE(s.kvUtilization, 0.0);
        EXPECT_LE(s.kvUtilization, 1.0);
    }

    // Per-class counts add up to the total.
    std::int64_t by_class = 0;
    for (const std::int64_t c : report.preemptionsByClass)
        by_class += c;
    EXPECT_EQ(by_class, report.preemptions);
    std::int64_t step_sum = 0;
    for (const ServingStepResult &s : sim.stepResults())
        step_sum += s.preemptions;
    EXPECT_EQ(step_sum, report.preemptions);
}

TEST(ServingSim, KvModelIsDeterministicAcrossRuns)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator a(cluster,
                       kvServingConfig(ServingPolicy::LaerServe));
    ServingSimulator b(cluster,
                       kvServingConfig(ServingPolicy::LaerServe));
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.preemptions, rb.preemptions);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.peakKvUtilization, rb.peakKvUtilization);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
}

TEST(ServingSim, HbmBudgetDerivesTheKvPool)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.hbmPerDevice = 32LL << 30;
    ServingSimulator sim(cluster, cfg);

    const ServingMemoryBudget mem = servingMemoryBudget(
        cfg.model, cluster.numDevices(), cfg.capacity, cfg.hbmPerDevice,
        std::max<TokenCount>(1, cfg.batcher.tokenBudget /
                                    cluster.numDevices()));
    const ServingReport report = sim.run();
    EXPECT_EQ(report.kvBudgetBytes, mem.kvPoolTotal);
    EXPECT_EQ(report.offered, report.completed);

    // HBM smaller than the resident model state is a config error.
    ServingConfig tiny = smallServingConfig(ServingPolicy::LaerServe);
    tiny.hbmPerDevice = 1LL << 30;
    EXPECT_THROW(ServingSimulator(cluster, tiny), FatalError);
}

TEST(ServingSim, KvDisabledKeepsLegacyMaxRunning)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.batcher.maxRunning = 4; // tight slot count, no KV model
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();
    EXPECT_EQ(report.kvBudgetBytes, 0);
    EXPECT_EQ(report.preemptions, 0);
    EXPECT_DOUBLE_EQ(report.peakKvUtilization, 0.0);
    EXPECT_EQ(report.offered, report.completed);
}

TEST(ServingSim, SplitControllerHoldsAnUnsplittableCluster)
{
    // One 4-device node split 2/2: the split controller moves whole
    // nodes, so it cannot shift a device without emptying a pool. It
    // holds the split under prefill-heavy pressure and the run ends.
    const Cluster cluster(1, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.capacity = 4;
    cfg.simulatedLayers = 1;
    cfg.horizon = 2.0;
    cfg.arrival.ratePerSec = 40.0;
    cfg.arrival.meanPrefillTokens = 1024;
    cfg.arrival.meanDecodeTokens = 8;
    cfg.arrival.seed = 3;
    cfg.batcher.tokenBudget = 2048;
    cfg.seed = 7;
    ServingSimulator sim(cluster, cfg);
    const int split = sim.prefillDevices();
    ControlLoopConfig loop_cfg;
    loop_cfg.interval = 0.25;
    loop_cfg.kind = AutoscalerKind::ThresholdHysteresis;
    ControlLoop loop(sim, loop_cfg);
    const ServingReport report = loop.run();

    EXPECT_GT(report.offered, 0);
    EXPECT_EQ(report.completed, report.offered);
    EXPECT_EQ(loop.actionsTaken(), 0);
    EXPECT_TRUE(report.scalingEvents.empty());
    EXPECT_EQ(sim.prefillDevices(), split);
}

} // namespace
} // namespace laer
