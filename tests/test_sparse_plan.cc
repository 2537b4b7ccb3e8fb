/**
 * @file
 * Tests for RoutingPlanSparse and the sparse step-pricing path
 * against the dense reference formulations (tests/oracle/): dense
 * round-trips, lite-routing and StaticEP-routing equivalence,
 * bit-identical All-to-All and Eq. 2 pricing, and the plan-free
 * kernel liteRoutingLoads against the plan it replaces.
 */

#include <gtest/gtest.h>

#include "baselines/static_ep.hh"
#include "core/rng.hh"
#include "difftest/diff.hh"
#include "difftest/scenario_gen.hh"
#include "oracle/dense_plan.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"
#include "planner/routing_plan_sparse.hh"
#include "trace/routing_generator.hh"

namespace laer
{
namespace
{

Cluster
cluster24()
{
    return Cluster(2, 4, 100e9, 10e9, 1e12);
}

RoutingMatrix
randomRouting(int n, int e, std::uint64_t seed, TokenCount scale)
{
    Rng rng(seed);
    RoutingMatrix r(n, e);
    const auto pop = rng.dirichlet(e, 0.4);
    for (DeviceId d = 0; d < n; ++d) {
        const auto counts = rng.multinomial(scale, pop);
        for (ExpertId j = 0; j < e; ++j)
            r.at(d, j) = counts[j];
    }
    return r;
}

ExpertLayout
randomFeasibleLayout(const Cluster &c, int e, int capacity,
                     std::uint64_t seed)
{
    Rng rng(seed);
    const RoutingMatrix r =
        randomRouting(c.numDevices(), e, seed + 77, 2048);
    std::vector<TokenCount> loads = r.expertLoads();
    std::vector<int> replicas =
        replicaAllocation(loads, c.numDevices(), capacity);
    for (int moves = rng.uniformInt(0, 3); moves > 0; --moves)
        replicas =
            perturbAllocation(replicas, rng, c.numDevices());
    return expertRelocation(c, replicas, loads, capacity);
}

bool
densePlansEqual(const RoutingPlan &a, const RoutingPlan &b)
{
    if (a.numDevices() != b.numDevices() ||
        a.numExperts() != b.numExperts())
        return false;
    for (DeviceId i = 0; i < a.numDevices(); ++i)
        for (ExpertId j = 0; j < a.numExperts(); ++j)
            for (DeviceId k = 0; k < a.numDevices(); ++k)
                if (a.at(i, j, k) != b.at(i, j, k))
                    return false;
    return true;
}

TEST(RoutingPlanSparse, DenseRoundTripOnRandomPlans)
{
    const Cluster c = cluster24();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const ExpertLayout layout =
            randomFeasibleLayout(c, 6, 2, seed);
        const RoutingMatrix r =
            randomRouting(c.numDevices(), 6, seed, 1000);
        const RoutingPlan dense = liteRouting(c, r, layout);
        const RoutingPlanSparse sparse =
            RoutingPlanSparse::fromDense(dense);
        EXPECT_TRUE(densePlansEqual(toDense(sparse), dense))
            << "seed " << seed;
        EXPECT_EQ(sparse.receivedTokens(), receivedTokens(dense));
    }
}

TEST(RoutingPlanSparse, LiteRoutingSparseMatchesDense)
{
    const Cluster c = cluster24();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const ExpertLayout layout =
            randomFeasibleLayout(c, 8, 2, seed);
        const RoutingMatrix r =
            randomRouting(c.numDevices(), 8, seed + 13, 777);
        const RoutingPlan dense = liteRouting(c, r, layout);
        const ReplicaIndex index(c, layout);
        RoutingPlanSparse sparse;
        liteRoutingSparse(c, r, index, sparse);
        EXPECT_TRUE(densePlansEqual(toDense(sparse), dense))
            << "seed " << seed;
        EXPECT_TRUE(conservesTokens(toDense(sparse), r, layout));
    }
}

TEST(RoutingPlanSparse, StaticEpRoutingSparseMatchesDense)
{
    // The sparse StaticEP plan is exactly the dense plan compressed:
    // the same triples, row by row and in order, so the serving step
    // prices it through the port-load fold bit-for-bit.
    const Cluster c = cluster24();
    const EpGrouping grouping(c, 4, true);
    const ExpertLayout layout = staticEpLayout(c, 8, grouping);
    RoutingPlanSparse sparse; // reused across seeds, like the engine
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const RoutingMatrix r =
            randomRouting(c.numDevices(), 8, seed + 29, 500);
        staticEpRoutingSparse(r, grouping, layout, sparse);
        const RoutingPlanSparse expected = RoutingPlanSparse::fromDense(
            staticEpRouting(r, grouping, layout));
        ASSERT_EQ(sparse.nnz(), expected.nnz()) << "seed " << seed;
        for (DeviceId i = 0; i < c.numDevices(); ++i) {
            std::size_t got_n = 0, want_n = 0;
            const RoutingPlanSparse::Entry *got = sparse.row(i, got_n);
            const RoutingPlanSparse::Entry *want =
                expected.row(i, want_n);
            ASSERT_EQ(got_n, want_n) << "seed " << seed << " row " << i;
            for (std::size_t t = 0; t < got_n; ++t) {
                EXPECT_EQ(got[t].expert, want[t].expert);
                EXPECT_EQ(got[t].dst, want[t].dst);
                EXPECT_EQ(got[t].tokens, want[t].tokens);
            }
        }
    }
}

/**
 * Price one (routing, layout) pair both ways, one checkpoint per side:
 * the oracle's dense plan through its volume matrices, and the sparse
 * plan through port loads; both through Eq. 2.
 */
void
pricePair(const Cluster &c, const RoutingMatrix &r,
          const ExpertLayout &layout, Bytes token_bytes,
          SnapshotStream &dense_stream, SnapshotStream &sparse_stream)
{
    const RoutingPlan dense = liteRouting(c, r, layout);
    const VolumeMatrix vol = dispatchVolume(dense, token_bytes);
    RoutingPlanSparse sparse;
    liteRoutingSparse(c, r, ReplicaIndex(c, layout), sparse);
    A2aPortLoads loads;
    sparse.portLoads(c, token_bytes, loads);
    EXPECT_EQ(dispatchVolume(sparse, token_bytes), vol);
    EXPECT_EQ(sparse.receivedTokens(), receivedTokens(dense));

    CostParams params;
    params.commBytesPerToken = token_bytes;
    params.compFlopsPerToken = 3.5e8;
    const CostBreakdown dense_cost = timeCost(c, params, dense);
    const CostBreakdown sparse_cost = timeCost(c, params, sparse);

    CounterSnapshot ds, ss;
    ds.simTime = ss.simTime =
        static_cast<Seconds>(dense_stream.snapshots.size());
    ds.values = {
        {"dispatch_s", a2aBottleneckTime(c, vol)},
        {"combine_s", a2aBottleneckTime(c, transposeVolume(vol))},
        {"comm_s", dense_cost.comm},
        {"comp_s", dense_cost.comp},
    };
    ss.values = {
        {"dispatch_s", a2aBottleneckTimeFromLoads(c, loads)},
        {"combine_s", a2aBottleneckTimeFromLoads(c, loads, true)},
        {"comm_s", sparse_cost.comm},
        {"comp_s", sparse_cost.comp},
    };
    dense_stream.snapshots.push_back(ds);
    sparse_stream.snapshots.push_back(ss);
}

TEST(RoutingPlanSparse, PortLoadPricingIsBitIdenticalToDense)
{
    const Bytes token_bytes = 8192;
    // Bit-identity through the diff harness: one checkpoint per priced
    // pair on each side; a regression reports the first diverging
    // pair and quantity instead of a bare EXPECT_EQ failure.
    SnapshotStream dense_stream, sparse_stream;
    const Cluster c = cluster24();
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        pricePair(c, randomRouting(c.numDevices(), 8, seed + 29, 513),
                  randomFeasibleLayout(c, 8, 2, seed), token_bytes,
                  dense_stream, sparse_stream);

    // The ctest difftest campaign's 12 scenarios (difftest_fuzz,
    // seeds 20260808 + i): 12 steps of drifting routing on each
    // scenario's cluster and model, re-laid out every 4 steps.
    for (std::uint64_t run = 0; run < 12; ++run) {
        const Scenario s = generateScenario(20260808 + run);
        const Cluster cluster = s.makeCluster();
        const int capacity = s.serving.capacity;
        RoutingModel model = s.serving.routing;
        model.numDevices = cluster.numDevices();
        model.numExperts = s.serving.model.numExperts;
        model.topK = s.serving.model.topK;
        model.tokensPerDevice = 512;
        model.seed = s.serving.seed;
        RoutingGenerator gen(model);
        ExpertLayout layout;
        for (int step = 0; step < 12; ++step) {
            const RoutingMatrix r = gen.next();
            if (step % 4 == 0) {
                const std::vector<TokenCount> loads = r.expertLoads();
                layout = expertRelocation(
                    cluster,
                    replicaAllocation(loads, cluster.numDevices(),
                                      capacity),
                    loads, capacity);
            }
            pricePair(cluster, r, layout, token_bytes, dense_stream,
                      sparse_stream);
        }
    }
    // Exact comparison: the folds are exact integer arithmetic on
    // both sides, and Eq. 2 adds its pair terms in the same order, so
    // every priced time must be bit-identical, not just close.
    const DiffReport report =
        diffStreams(dense_stream, sparse_stream);
    EXPECT_TRUE(report.identical()) << report.toText();
    EXPECT_EQ(report.comparisons, 4 * dense_stream.snapshots.size());
}

/**
 * A layout with replica multiplicity and sparse coverage: every device
 * takes 1..3 slots drawn over a few popular experts (so one device may
 * host several replicas of one expert, and many (node, expert) cells
 * host none and fall back to the global list), then every expert left
 * without a replica gets one.
 */
ExpertLayout
multiplicityLayout(const Cluster &c, int e, Rng &rng)
{
    ExpertLayout layout(c.numDevices(), e);
    const int popular = rng.uniformInt(1, e);
    for (DeviceId d = 0; d < c.numDevices(); ++d)
        for (int slots = rng.uniformInt(1, 3); slots > 0; --slots)
            ++layout.at(d, rng.uniformInt(0, popular - 1));
    for (ExpertId j = 0; j < e; ++j)
        if (layout.replicaCount(j) == 0)
            ++layout.at(rng.uniformInt(0, c.numDevices() - 1), j);
    return layout;
}

/** Routing with zero rows, zero cells and row totals from 0 to 1e5. */
RoutingMatrix
fuzzRouting(int n, int e, Rng &rng)
{
    RoutingMatrix r(n, e);
    const auto pop = rng.dirichlet(e, 0.3);
    for (DeviceId d = 0; d < n; ++d) {
        const int shape = rng.uniformInt(0, 3);
        if (shape == 0)
            continue; // zero row
        const TokenCount total =
            shape == 1 ? rng.uniformInt(0, 2 * e)
            : shape == 2 ? rng.uniformInt(0, 5000)
                         : rng.uniformInt(0, 100000);
        const auto counts = rng.multinomial(total, pop);
        for (ExpertId j = 0; j < e; ++j)
            r.at(d, j) = counts[j];
    }
    return r;
}

TEST(LiteRoutingLoads, MatchesThePlanOnEveryVectorExactly)
{
    // The plan-free kernel against the CSR plan it replaces on the
    // step path: received tokens and all four port-load vectors, exact.
    Rng rng(20261020);
    LiteRoutingScratch scratch; // reused across shapes, like a layer
    std::vector<TokenCount> recv;
    A2aPortLoads loads;
    RoutingPlanSparse plan;
    A2aPortLoads want;
    int fallback_cells = 0, multiple = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const int nodes = rng.uniformInt(1, 32);
        const int per_node = rng.uniformInt(1, nodes > 8 ? 4 : 8);
        const int e = rng.uniformInt(1, 12);
        const Cluster c(nodes, per_node, 100e9, 10e9, 1e12);
        const ExpertLayout layout = multiplicityLayout(c, e, rng);
        const RoutingMatrix r = fuzzRouting(c.numDevices(), e, rng);
        const ReplicaIndex index(c, layout);
        const Bytes token_bytes = rng.uniformInt(1, 8192);
        for (NodeId m = 0; m < nodes; ++m)
            for (ExpertId j = 0; j < e; ++j)
                fallback_cells += index.intraCount(m, j) == 0;
        for (DeviceId d = 0; d < c.numDevices(); ++d)
            for (ExpertId j = 0; j < e; ++j)
                multiple += layout.at(d, j) > 1;

        liteRoutingLoads(c, r, index, token_bytes, scratch, recv, loads);
        liteRoutingSparse(c, r, index, plan);
        plan.portLoads(c, token_bytes, want);
        ASSERT_EQ(recv, plan.receivedTokens()) << "trial " << trial;
        ASSERT_EQ(loads.sendIntra, want.sendIntra) << "trial " << trial;
        ASSERT_EQ(loads.sendInter, want.sendInter) << "trial " << trial;
        ASSERT_EQ(loads.recvIntra, want.recvIntra) << "trial " << trial;
        ASSERT_EQ(loads.recvInter, want.recvInter) << "trial " << trial;
    }
    // The fuzz reached the cases it exists for.
    EXPECT_GT(fallback_cells, 0);
    EXPECT_GT(multiple, 0);
}

TEST(RoutingPlanSparse, EmptyRowsAndRankOrderDiscipline)
{
    RoutingPlanSparse plan(4, 2);
    EXPECT_EQ(plan.nnz(), 0u);
    std::size_t count = 123;
    plan.row(2, count);
    EXPECT_EQ(count, 0u);

    plan.add(1, 0, 3, 10);
    plan.add(3, 1, 0, 5);
    EXPECT_EQ(plan.nnz(), 2u);
    plan.row(0, count);
    EXPECT_EQ(count, 0u);
    const auto *row1 = plan.row(1, count);
    ASSERT_EQ(count, 1u);
    EXPECT_EQ(row1[0].dst, 3);
    plan.row(2, count);
    EXPECT_EQ(count, 0u);
    const auto *row3 = plan.row(3, count);
    ASSERT_EQ(count, 1u);
    EXPECT_EQ(row3[0].tokens, 5);

    const RoutingPlan dense = toDense(plan);
    EXPECT_EQ(dense.at(1, 0, 3), 10);
    EXPECT_EQ(dense.at(3, 1, 0), 5);
}

TEST(ReplicaIndex, MatchesLayoutListsAndRebuildReusesStorage)
{
    const Cluster c = cluster24();
    const ExpertLayout a = randomFeasibleLayout(c, 6, 2, 3);
    ReplicaIndex index(c, a);
    for (ExpertId j = 0; j < 6; ++j) {
        // Global list: device-ascending with multiplicity.
        std::vector<DeviceId> expect;
        for (DeviceId d = 0; d < c.numDevices(); ++d)
            for (int rep = 0; rep < a.at(d, j); ++rep)
                expect.push_back(d);
        ASSERT_EQ(index.allCount(j), expect.size());
        for (std::size_t t = 0; t < expect.size(); ++t)
            EXPECT_EQ(index.all(j)[t], expect[t]);
        // Intra lists partition the global list by node.
        std::size_t intra_total = 0;
        for (NodeId m = 0; m < c.numNodes(); ++m)
            intra_total += index.intraCount(m, j);
        EXPECT_EQ(intra_total, expect.size());
    }
    // Rebuild on a different layout matches a fresh index.
    const ExpertLayout b = randomFeasibleLayout(c, 6, 2, 4);
    index.rebuild(c, b);
    const ReplicaIndex fresh(c, b);
    for (ExpertId j = 0; j < 6; ++j) {
        ASSERT_EQ(index.allCount(j), fresh.allCount(j));
        for (std::size_t t = 0; t < fresh.allCount(j); ++t)
            EXPECT_EQ(index.all(j)[t], fresh.all(j)[t]);
    }
}

} // namespace
} // namespace laer
