/**
 * @file
 * Tests for RoutingPlanSparse and the sparse step-pricing path:
 * dense round-trips, lite-routing and StaticEP-routing equivalence,
 * and bit-identical All-to-All pricing from port loads.
 */

#include <gtest/gtest.h>

#include "baselines/static_ep.hh"
#include "core/rng.hh"
#include "difftest/diff.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"
#include "planner/routing_plan_sparse.hh"

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
        EXPECT_TRUE(densePlansEqual(sparse.toDense(), dense))
            << "seed " << seed;
        EXPECT_EQ(sparse.receivedTokens(), dense.receivedTokens());
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
        EXPECT_TRUE(densePlansEqual(sparse.toDense(), dense))
            << "seed " << seed;
        EXPECT_TRUE(sparse.toDense().conservesTokens(r, layout));
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

TEST(RoutingPlanSparse, PortLoadPricingIsBitIdenticalToDense)
{
    const Cluster c = cluster24();
    const Bytes token_bytes = 8192;
    // Bit-identity through the diff harness: one checkpoint per seed
    // on each side; a regression reports the first diverging seed and
    // quantity instead of a bare EXPECT_EQ failure.
    SnapshotStream dense_stream, sparse_stream;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const ExpertLayout layout =
            randomFeasibleLayout(c, 8, 2, seed);
        const RoutingMatrix r =
            randomRouting(c.numDevices(), 8, seed + 29, 513);
        const RoutingPlan dense = liteRouting(c, r, layout);

        const VolumeMatrix vol = dense.dispatchVolume(token_bytes);
        VolumeMatrix combine = zeroVolume(dense.numDevices());
        for (std::size_t i = 0; i < vol.size(); ++i)
            for (std::size_t k = 0; k < vol.size(); ++k)
                combine[k][i] = vol[i][k];

        const ReplicaIndex index(c, layout);
        RoutingPlanSparse sparse;
        liteRoutingSparse(c, r, index, sparse);
        A2aPortLoads loads;
        sparse.portLoads(c, token_bytes, loads);

        CounterSnapshot ds, ss;
        ds.simTime = ss.simTime = static_cast<Seconds>(seed);
        ds.values = {
            {"dispatch_s", a2aBottleneckTime(c, vol)},
            {"combine_s", a2aBottleneckTime(c, combine)},
        };
        ss.values = {
            {"dispatch_s", a2aBottleneckTimeFromLoads(c, loads)},
            {"combine_s",
             a2aBottleneckTimeFromLoads(c, loads, true)},
        };
        dense_stream.snapshots.push_back(ds);
        sparse_stream.snapshots.push_back(ss);

        EXPECT_EQ(sparse.dispatchVolume(token_bytes), vol);
    }
    // Exact comparison: the fold is exact integer
    // arithmetic on both sides, so every priced time must be
    // bit-identical, not just close.
    const DiffReport report =
        diffStreams(dense_stream, sparse_stream);
    EXPECT_TRUE(report.identical()) << report.toText();
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

    const RoutingPlan dense = plan.toDense();
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
