/**
 * @file
 * Tests for the multi-pool serving layer: DevicePoolSlice
 * partitioning (conservation, disjointness, sub-topology geometry),
 * inter-pool KV transfer costs against the cluster bandwidths,
 * admission pause (back-pressure), swap-style preemption mechanics
 * and its cost ordering against recompute, the disaggregated
 * policy end to end, and the closed-form step timeline against the
 * SimEngine graph it replaces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "comm/collectives.hh"
#include "core/error.hh"
#include "core/rng.hh"
#include "serve/batcher.hh"
#include "serve/device_pool.hh"
#include "serve/engine.hh"
#include "serve/kv_cache.hh"
#include "serve/serving_sim.hh"
#include "sim/engine.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

// ---- device pools ----------------------------------------------------------

TEST(DevicePool, PartitionConservesAndStaysDisjoint)
{
    const Cluster cluster = Cluster::a100(4); // 4x8 = 32 devices
    const auto slices = partitionCluster(cluster, {8, 16, 8},
                                         {"a", "b", "c"});
    ASSERT_EQ(slices.size(), 3u);

    // Conservation: every device appears in exactly one slice.
    int total = 0;
    DeviceId next = 0;
    for (const DevicePoolSlice &s : slices) {
        EXPECT_EQ(s.firstDevice, next); // contiguous => disjoint
        total += s.count;
        next = s.endDevice();
    }
    EXPECT_EQ(total, cluster.numDevices());
    EXPECT_EQ(next, cluster.numDevices());

    // Membership matches the ranges.
    EXPECT_TRUE(slices[0].contains(0));
    EXPECT_TRUE(slices[0].contains(7));
    EXPECT_FALSE(slices[0].contains(8));
    EXPECT_TRUE(slices[1].contains(8));
    EXPECT_TRUE(slices[2].contains(31));

    // Sub-topologies keep the node geometry and bandwidths.
    EXPECT_EQ(slices[0].topo.numDevices(), 8);
    EXPECT_EQ(slices[0].topo.numNodes(), 1);
    EXPECT_EQ(slices[1].topo.numNodes(), 2);
    EXPECT_EQ(slices[1].topo.devicesPerNode(), 8);
    EXPECT_DOUBLE_EQ(slices[1].topo.intraBw(), cluster.intraBw());
    EXPECT_DOUBLE_EQ(slices[1].topo.interBw(), cluster.interBw());
    EXPECT_EQ(slices[2].topo.numDevices(), 8);
}

TEST(DevicePool, PartitionSplitsInsideOneNode)
{
    const Cluster cluster(1, 8, 300e9, 12.5e9, 212e12);
    const auto slices =
        partitionCluster(cluster, {3, 5}, {"left", "right"});
    EXPECT_EQ(slices[0].topo.numDevices(), 3);
    EXPECT_EQ(slices[0].topo.numNodes(), 1);
    EXPECT_EQ(slices[1].topo.numDevices(), 5);
}

TEST(DevicePool, PartitionRejectsBadSplits)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    // Sizes must sum to the cluster.
    EXPECT_THROW(partitionCluster(cluster, {4, 3}, {"a", "b"}),
                 FatalError);
    // A slice straddling a node boundary with partial nodes has no
    // two-level geometry.
    EXPECT_THROW(partitionCluster(cluster, {2, 6}, {"a", "b"}),
                 FatalError);
    // One name per slice.
    EXPECT_THROW(partitionCluster(cluster, {4, 4}, {"a"}), FatalError);
}

TEST(DevicePool, WholeClusterSliceCoversEverything)
{
    const Cluster cluster = Cluster::a100(2);
    const DevicePoolSlice slice = wholeClusterSlice(cluster);
    EXPECT_EQ(slice.firstDevice, 0);
    EXPECT_EQ(slice.count, cluster.numDevices());
    EXPECT_EQ(slice.topo.numNodes(), cluster.numNodes());
    EXPECT_EQ(slice.topo.devicesPerNode(), cluster.devicesPerNode());
}

TEST(DevicePool, TransferCostFollowsTheTopology)
{
    const double intra = 300e9, inter = 12.5e9;
    const Bytes bytes = 1LL << 30;

    // Pools on different nodes: min(|src|, |dst|) NIC links in
    // parallel.
    const Cluster two_nodes(2, 4, intra, inter, 212e12);
    const auto cross =
        partitionCluster(two_nodes, {4, 4}, {"prefill", "decode"});
    EXPECT_DOUBLE_EQ(
        kvTransferTime(two_nodes, cross[0], cross[1], bytes),
        kCollectiveAlpha + static_cast<double>(bytes) / (4 * inter));

    // Uneven pools: the smaller side bounds the parallelism.
    const Cluster wide(4, 4, intra, inter, 212e12);
    const auto uneven =
        partitionCluster(wide, {12, 4}, {"prefill", "decode"});
    EXPECT_DOUBLE_EQ(
        kvTransferTime(wide, uneven[0], uneven[1], bytes),
        kCollectiveAlpha + static_cast<double>(bytes) / (4 * inter));

    // Pools inside one node move KV over NVLink.
    const Cluster one_node(1, 8, intra, inter, 212e12);
    const auto local =
        partitionCluster(one_node, {4, 4}, {"prefill", "decode"});
    EXPECT_DOUBLE_EQ(
        kvTransferTime(one_node, local[0], local[1], bytes),
        kCollectiveAlpha + static_cast<double>(bytes) / (4 * intra));

    // Zero bytes still pay the collective launch alpha.
    EXPECT_DOUBLE_EQ(kvTransferTime(two_nodes, cross[0], cross[1], 0),
                     kCollectiveAlpha);
}

// ---- admission pause (back-pressure valve) ---------------------------------

Request
makeRequest(int id, TokenCount prefill, TokenCount decode,
            int slo_class = 0)
{
    Request r;
    r.id = id;
    r.prefillTokens = prefill;
    r.decodeTokens = decode;
    r.sloClass = slo_class;
    return r;
}

TEST(Batcher, AdmissionPauseHaltsNewWorkOnly)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 100;
    cfg.prefillChunk = 100;
    ContinuousBatcher batcher(cfg);

    // One request runs to decode phase.
    batcher.enqueue(makeRequest(0, 10, 5));
    batcher.applyStep(batcher.nextBatch(), 1.0);
    ASSERT_EQ(batcher.find(0)->phase(), RequestPhase::Decode);

    // Paused: the waiting request is not admitted, but the running
    // sequence keeps decoding.
    batcher.enqueue(makeRequest(1, 10, 5));
    batcher.setAdmissionPaused(true);
    const BatchPlan paused = batcher.nextBatch();
    EXPECT_TRUE(paused.entries.empty());
    std::vector<int> decoders;
    batcher.forEachScheduledDecoder(
        paused, [&](int id) { decoders.push_back(id); });
    EXPECT_EQ(decoders, std::vector<int>{0});
    EXPECT_EQ(paused.decodeTokens(), 1);
    EXPECT_EQ(batcher.waitingCount(), 1);
    batcher.applyStep(paused, 2.0);

    // Resumed: admission proceeds.
    batcher.setAdmissionPaused(false);
    const BatchPlan resumed = batcher.nextBatch();
    EXPECT_EQ(batcher.waitingCount(), 0);
    bool admitted = false;
    for (const BatchEntry &e : resumed.entries)
        admitted |= e.requestId == 1 && e.prefillTokens > 0;
    EXPECT_TRUE(admitted);
}

TEST(Batcher, PauseWithOnlyWaitingWorkYieldsEmptyPlan)
{
    BatcherConfig cfg;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 10, 5));
    batcher.setAdmissionPaused(true);
    EXPECT_TRUE(batcher.nextBatch().empty());
    EXPECT_TRUE(batcher.hasWork());
}

TEST(Batcher, CanAdmitContextTracksPoolState)
{
    BatcherConfig cfg;
    cfg.kvBudgetBytes = 100;
    cfg.kvBytesPerToken = 1;
    cfg.kvBlockTokens = 1;
    ContinuousBatcher batcher(cfg);
    EXPECT_TRUE(batcher.canAdmitContext(100));
    EXPECT_FALSE(batcher.canAdmitContext(101));

    batcher.enqueue(makeRequest(0, 60, 10));
    // The waiting request's 60-byte demand is committed first (FIFO),
    // so only 40 bytes remain promisable.
    EXPECT_EQ(batcher.waitingKvDemand(), 60);
    EXPECT_TRUE(batcher.canAdmitContext(40));
    EXPECT_FALSE(batcher.canAdmitContext(41));
    batcher.applyStep(batcher.nextBatch(), 1.0); // admits, reserves 60
    EXPECT_EQ(batcher.waitingKvDemand(), 0);
    EXPECT_TRUE(batcher.canAdmitContext(40));
    EXPECT_FALSE(batcher.canAdmitContext(41));
}

// ---- swap-style preemption -------------------------------------------------

/** Outcome of driving a two-request workload under KV pressure. */
struct PressureRun
{
    TokenCount prefillScheduled = 0; //!< prefill tokens over all plans
    std::int64_t preemptions = 0;
    Bytes swapOut = 0;
    Bytes swapIn = 0;
    std::size_t finished = 0;
};

/** Drive two 40-prompt/20-decode requests through a tight pool. */
PressureRun
driveUnderPressure(PreemptionMode mode, Bytes budget)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 1000;
    cfg.prefillChunk = 1000;
    cfg.kvBudgetBytes = budget;
    cfg.kvBytesPerToken = 1;
    cfg.kvBlockTokens = 1;
    cfg.preemptionMode = mode;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 40, 20));
    batcher.enqueue(makeRequest(1, 40, 20));

    PressureRun run;
    Seconds t = 0.0;
    int guard = 0;
    while (batcher.hasWork() && ++guard < 10000) {
        const BatchPlan plan = batcher.nextBatch();
        run.prefillScheduled += plan.prefillTokens();
        run.swapOut += batcher.takeSwapOutBytes();
        run.swapIn += batcher.takeSwapInBytes();
        t += 0.1;
        batcher.applyStep(plan, t);
    }
    EXPECT_LT(guard, 10000) << "workload failed to drain";
    run.preemptions = batcher.totalPreemptions();
    run.finished = batcher.takeFinished().size();
    return run;
}

TEST(Batcher, SwapPreemptionKeepsPrefillProgress)
{
    // Pool of 100 token-bytes against two sequences growing to 60:
    // pressure forces eviction mid-decode.
    const PressureRun run = driveUnderPressure(PreemptionMode::Swap, 100);

    EXPECT_EQ(run.finished, 2u);
    EXPECT_GT(run.preemptions, 0);
    // No recompute: exactly the two prompts were prefilled, once.
    EXPECT_EQ(run.prefillScheduled, 80);
    // Every evicted byte came back from host on re-admission.
    EXPECT_GT(run.swapOut, 0);
    EXPECT_EQ(run.swapOut, run.swapIn);
}

TEST(Batcher, RecomputePreemptionReplaysPrefill)
{
    const PressureRun run =
        driveUnderPressure(PreemptionMode::Recompute, 100);

    // Recompute replays prompt + generated tokens: strictly more
    // prefill work than the two prompts — the cost ordering the swap
    // variant exists to beat.
    EXPECT_EQ(run.finished, 2u);
    EXPECT_GT(run.preemptions, 0);
    EXPECT_GT(run.prefillScheduled, 80);
    EXPECT_EQ(run.swapOut, 0);
    EXPECT_EQ(run.swapIn, 0);
}

ServingConfig
swapServingConfig(PreemptionMode mode)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::LaerServe;
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.ratePerSec = 40.0;
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.arrival.seed = 99;
    cfg.batcher.tokenBudget = 4096;
    cfg.batcher.kvBudgetBytes = 3000LL * kvBytesPerToken(cfg.model);
    cfg.batcher.kvBytesPerToken = kvBytesPerToken(cfg.model);
    cfg.batcher.kvBlockTokens = 16;
    cfg.batcher.preemptionMode = mode;
    cfg.routing = RoutingModel::wikitext(0, 0, 0, 0);
    cfg.retunePeriod = 8;
    cfg.seed = 5;
    return cfg;
}

TEST(ServingSim, SwapPreemptionRunsAndChargesTheHostLink)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator recompute(
        cluster, swapServingConfig(PreemptionMode::Recompute));
    ServingSimulator swap(cluster,
                          swapServingConfig(PreemptionMode::Swap));
    const ServingReport rr = recompute.run();
    const ServingReport rs = swap.run();

    ASSERT_GT(rr.preemptions, 0) << "no memory pressure simulated";
    ASSERT_GT(rs.preemptions, 0);
    EXPECT_EQ(rs.offered, rs.completed);

    // Swap moves bytes over the host link instead of replaying
    // prefill: the swap run schedules strictly less prefill work...
    TokenCount prefill_recompute = 0, prefill_swap = 0;
    for (const ServingStepResult &s : recompute.stepResults())
        prefill_recompute += s.prefill;
    for (const ServingStepResult &s : swap.stepResults())
        prefill_swap += s.prefill;
    EXPECT_LT(prefill_swap, prefill_recompute);

    // ...pays for it in host-link seconds...
    EXPECT_GT(rs.swapOutBytes, 0);
    EXPECT_GT(rs.swapInBytes, 0);
    EXPECT_GT(rs.swapSeconds, 0.0);
    EXPECT_EQ(rr.swapOutBytes, 0);
    EXPECT_DOUBLE_EQ(rr.swapSeconds, 0.0);

    // ...and the recompute mode stays the default.
    EXPECT_EQ(BatcherConfig{}.preemptionMode,
              PreemptionMode::Recompute);
}

// ---- disaggregated serving -------------------------------------------------

ServingConfig
disaggConfig(bool shared_layout)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.disagg.sharedLayout = shared_layout;
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.ratePerSec = 20.0;
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.arrival.seed = 99;
    cfg.batcher.tokenBudget = 4096;
    cfg.batcher.kvBudgetBytes = 6000LL * kvBytesPerToken(cfg.model);
    cfg.batcher.kvBytesPerToken = kvBytesPerToken(cfg.model);
    cfg.batcher.kvBlockTokens = 16;
    cfg.routing = RoutingModel::wikitext(0, 0, 0, 0);
    cfg.retunePeriod = 8;
    cfg.seed = 5;
    return cfg;
}

TEST(ServingSim, DisaggregatedRunsEndToEnd)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster, disaggConfig(false));
    const ServingReport report = sim.run();

    EXPECT_GT(report.offered, 0);
    EXPECT_EQ(report.offered, report.completed);
    EXPECT_GT(report.throughputTps, 0.0);

    // Two pools, splitting the cluster evenly by default.
    ASSERT_EQ(report.pools.size(), 2u);
    EXPECT_EQ(report.pools[0].name, "prefill");
    EXPECT_EQ(report.pools[1].name, "decode");
    EXPECT_EQ(report.pools[0].devices + report.pools[1].devices,
              cluster.numDevices());
    EXPECT_GT(report.pools[0].steps, 0);
    EXPECT_GT(report.pools[1].steps, 0);
    EXPECT_EQ(report.pools[0].steps + report.pools[1].steps,
              report.steps);

    // Multi-token contexts migrated and their KV crossed the wire.
    EXPECT_GT(report.migrated, 0);
    EXPECT_LE(report.migrated, report.completed);
    EXPECT_GT(report.kvTransferBytes, 0);
    EXPECT_GT(report.kvTransferSeconds, 0.0);
    // Every migration pays at least the collective alpha.
    EXPECT_GE(report.kvTransferSeconds,
              report.migrated * kCollectiveAlpha);

    // The pools' KV budgets split the configured total by device
    // share.
    EXPECT_EQ(report.pools[0].kvBudgetBytes,
              report.pools[1].kvBudgetBytes);
    EXPECT_EQ(report.kvBudgetBytes, report.pools[0].kvBudgetBytes +
                                        report.pools[1].kvBudgetBytes);
}

TEST(ServingSim, DisaggregatedIsDeterministic)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator a(cluster, disaggConfig(false));
    ServingSimulator b(cluster, disaggConfig(false));
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.migrated, rb.migrated);
    EXPECT_EQ(ra.kvTransferBytes, rb.kvTransferBytes);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.ttftP99, rb.ttftP99);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
    EXPECT_DOUBLE_EQ(ra.transferStallSeconds, rb.transferStallSeconds);
}

TEST(ServingSim, DisaggregatedSharedLayoutTunesOnceForBothPools)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster, disaggConfig(true));
    const ServingReport report = sim.run();
    EXPECT_EQ(report.offered, report.completed);
    // Only the decode pool (leader) runs the tuner; the prefill pool
    // adopts its layouts.
    EXPECT_EQ(sim.engine(0).retunes(), 0);
    EXPECT_GT(sim.engine(1).retunes(), 0);
    EXPECT_EQ(report.retunes, sim.engine(1).retunes());
}

TEST(ServingSim, DecodePoolBackPressureStallsTransfers)
{
    // Starve the decode pool: a pool barely larger than the largest
    // single context forces transferred sequences to queue at the
    // door, which in turn pauses prefill admission.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = disaggConfig(false);
    cfg.arrival.ratePerSec = 60.0;
    cfg.batcher.kvBudgetBytes = 8000LL * kvBytesPerToken(cfg.model);
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();

    EXPECT_EQ(report.offered, report.completed); // drains despite stalls
    EXPECT_GT(report.migrated, 0);
    EXPECT_GT(report.transferStallSeconds, 0.0)
        << "decode pool never pushed back";
    // Decode-pool pressure, not prefill-pool pressure, is the binding
    // constraint: the decode pool saturates harder.
    EXPECT_GE(report.pools[1].peakKvUtilization,
              report.pools[0].peakKvUtilization);
}

TEST(ServingSim, DisaggregatedRejectsImpossiblePools)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    // 7/1 split: a 1-device decode pool cannot host 8 experts at
    // capacity 2.
    ServingConfig cfg = disaggConfig(false);
    cfg.disagg.prefillDevices = 7;
    EXPECT_THROW(ServingSimulator(cluster, cfg), FatalError);

    // Shared layouts need equal pools: 6/2 is out (and 2 devices
    // could not host the experts anyway).
    ServingConfig uneven = disaggConfig(true);
    uneven.disagg.prefillDevices = 6;
    EXPECT_THROW(ServingSimulator(cluster, uneven), FatalError);
}

// ---- step timeline ---------------------------------------------------------

/** The step as a general task graph: per layer and device, attention
 * on the compute stream, a dispatch barrier, the expert FFN and a
 * combine barrier. */
Seconds
stepOnSimEngine(Seconds attn, const std::vector<Seconds> &dispatch,
                const std::vector<Seconds> &combine,
                const std::vector<std::vector<TokenCount>> &recv,
                Flops flops_per_token, double compute_flops)
{
    const int n = static_cast<int>(recv.front().size());
    SimEngine eng(n);
    std::vector<TaskId> prev(n, -1);
    for (std::size_t l = 0; l < recv.size(); ++l) {
        std::vector<TaskId> attn_ids(n), disp_ids(n), expert_ids(n);
        for (DeviceId d = 0; d < n; ++d) {
            const std::vector<TaskId> deps =
                prev[d] < 0 ? std::vector<TaskId>{}
                            : std::vector<TaskId>{prev[d]};
            attn_ids[d] = eng.addTask("attn", d, StreamKind::Compute,
                                      attn, deps, "attn");
        }
        for (DeviceId d = 0; d < n; ++d)
            disp_ids[d] = eng.addTask("dispatch", d, StreamKind::Dispatch,
                                      dispatch[l], attn_ids, "a2a");
        for (DeviceId d = 0; d < n; ++d) {
            const Seconds dur = static_cast<double>(recv[l][d]) *
                                flops_per_token / compute_flops;
            expert_ids[d] = eng.addTask("expert", d, StreamKind::Compute,
                                        dur, {disp_ids[d]}, "expert");
        }
        for (DeviceId d = 0; d < n; ++d)
            prev[d] = eng.addTask("combine", d, StreamKind::Dispatch,
                                  combine[l], expert_ids, "a2a");
    }
    eng.run();
    return eng.makespan();
}

/** A duration of random magnitude; zero a third of the time. */
Seconds
randomDuration(Rng &rng)
{
    if (rng.uniformInt(0, 2) == 0)
        return 0.0;
    return rng.uniform() * std::pow(10.0, rng.uniformInt(-7, 0));
}

TEST(StepTimeline, ClosedFormMatchesSimEngine)
{
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        Rng rng(seed);
        const int n = rng.uniformInt(1, 64);
        const int layers = rng.uniformInt(1, 8);
        const Flops flops = 6.0 * rng.uniformInt(1, 8192) *
                            rng.uniformInt(1, 16384);
        const double rate = rng.uniform(1e12, 1e15);
        const Seconds attn = randomDuration(rng);
        std::vector<Seconds> dispatch, combine;
        std::vector<std::vector<TokenCount>> recv(layers);
        for (auto &layer : recv) {
            dispatch.push_back(randomDuration(rng));
            combine.push_back(randomDuration(rng));
            const bool idle = rng.uniformInt(0, 9) == 0;
            for (int d = 0; d < n; ++d)
                layer.push_back(idle || rng.uniformInt(0, 4) == 0
                                    ? 0
                                    : rng.uniformInt(1, 50000));
        }
        EXPECT_EQ(stepTimelineMakespan(attn, dispatch, combine, recv,
                                       flops, rate),
                  stepOnSimEngine(attn, dispatch, combine, recv, flops,
                                  rate))
            << "seed " << seed;
    }
}

TEST(StepTimeline, RejectsNegativeAndNanDurations)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<Seconds> ok{1e-4, 2e-4};
    const std::vector<std::vector<TokenCount>> recv{{3, 0}, {1, 7}};
    EXPECT_GT(stepTimelineMakespan(1e-3, ok, ok, recv, 1e9, 1e12), 0.0);

    EXPECT_THROW(stepTimelineMakespan(-1e-3, ok, ok, recv, 1e9, 1e12),
                 FatalError);
    EXPECT_THROW(stepTimelineMakespan(nan, ok, ok, recv, 1e9, 1e12),
                 FatalError);
    EXPECT_THROW(stepTimelineMakespan(1e-3, {1e-4, -2e-4}, ok, recv,
                                      1e9, 1e12),
                 FatalError);
    EXPECT_THROW(stepTimelineMakespan(1e-3, ok, {nan, 2e-4}, recv, 1e9,
                                      1e12),
                 FatalError);
    // A negative or NaN expert time on a device that is not the
    // slowest must not be dropped by the max: -7 tokens, and 0 x inf
    // flops beside a device at 3 x inf.
    EXPECT_THROW(stepTimelineMakespan(1e-3, ok, ok, {{3, 0}, {1, -7}},
                                      1e9, 1e12),
                 FatalError);
    EXPECT_THROW(stepTimelineMakespan(1e-3, ok, ok, recv, inf, 1e12),
                 FatalError);
    EXPECT_THROW(stepTimelineMakespan(1e-3, ok, ok, recv, 1e9, nan),
                 FatalError);
}

} // namespace
} // namespace laer
