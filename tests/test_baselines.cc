/**
 * @file
 * Tests for the baseline systems: static EP grouping/routing, the
 * FlexMoE reimplementation and the SmartMoE periodic relocator.
 */

#include <gtest/gtest.h>

#include "baselines/flexmoe.hh"
#include "baselines/smartmoe.hh"
#include "baselines/static_ep.hh"
#include "core/rng.hh"
#include "core/stats.hh"
#include "planner/lite_routing.hh"

namespace laer
{
namespace
{

Cluster
cluster44()
{
    // 4 nodes x 4 devices = 16.
    return Cluster(4, 4, 100e9, 10e9, 1e12);
}

RoutingMatrix
hotExpertRouting(int n, int e, ExpertId hot, TokenCount per_device)
{
    RoutingMatrix r(n, e);
    for (DeviceId d = 0; d < n; ++d) {
        r.at(d, hot) = per_device / 2;
        const TokenCount rest = per_device - per_device / 2;
        const TokenCount share = rest / (e - 1);
        TokenCount assigned = 0;
        for (ExpertId j = 0; j < e; ++j) {
            if (j == hot)
                continue;
            r.at(d, j) = share;
            assigned += share;
        }
        r.at(d, (hot + 1) % e) += rest - assigned;
    }
    return r;
}

TEST(EpGrouping, SpanNodesPutsGroupMembersOnDistinctNodes)
{
    const Cluster c = cluster44();
    const EpGrouping g(c, 4, /*span_nodes=*/true);
    EXPECT_EQ(g.numGroups(), 4);
    for (int grp = 0; grp < 4; ++grp) {
        std::vector<bool> node_used(4, false);
        for (int rank = 0; rank < 4; ++rank) {
            const DeviceId d = g.deviceAt(grp, rank);
            EXPECT_EQ(g.groupOf(d), grp);
            EXPECT_EQ(g.rankInGroup(d), rank);
            EXPECT_FALSE(node_used[c.node(d)])
                << "two group members share node " << c.node(d);
            node_used[c.node(d)] = true;
        }
    }
}

TEST(EpGrouping, BlockMappingKeepsGroupsContiguous)
{
    const Cluster c = cluster44();
    const EpGrouping g(c, 4, /*span_nodes=*/false);
    EXPECT_EQ(g.groupOf(0), 0);
    EXPECT_EQ(g.groupOf(3), 0);
    EXPECT_EQ(g.groupOf(4), 1);
    EXPECT_EQ(g.deviceAt(2, 3), 11);
}

TEST(StaticEp, LayoutIsFeasibleAndReplicatedPerGroup)
{
    const Cluster c = cluster44();
    const EpGrouping g(c, 4, true);
    const ExpertLayout a = staticEpLayout(c, 8, g);
    EXPECT_TRUE(a.feasible(2)); // 8 experts / 4 ranks = C=2
    // Every expert has one replica per group.
    for (ExpertId j = 0; j < 8; ++j)
        EXPECT_EQ(a.replicaCount(j), g.numGroups());
}

TEST(StaticEp, RoutingStaysWithinOwnGroupAndConserves)
{
    const Cluster c = cluster44();
    const EpGrouping g(c, 4, true);
    const ExpertLayout a = staticEpLayout(c, 8, g);
    Rng rng(3);
    RoutingMatrix r(16, 8);
    for (DeviceId d = 0; d < 16; ++d)
        for (ExpertId j = 0; j < 8; ++j)
            r.at(d, j) = rng.uniformInt(0, 100);
    const RoutingPlan s = staticEpRouting(r, g, a);
    EXPECT_TRUE(s.conservesTokens(r, a));
    for (DeviceId i = 0; i < 16; ++i)
        for (ExpertId j = 0; j < 8; ++j)
            for (DeviceId k = 0; k < 16; ++k)
                if (s.at(i, j, k) > 0) {
                    EXPECT_EQ(g.groupOf(i), g.groupOf(k));
                }
}

TEST(StaticEp, HotExpertOverloadsOneDevicePerGroup)
{
    // The defining pathology the paper attacks: static EP
    // concentrates a hot expert's tokens on single devices.
    const Cluster c = cluster44();
    const EpGrouping g(c, 4, true);
    const ExpertLayout a = staticEpLayout(c, 8, g);
    const RoutingMatrix r = hotExpertRouting(16, 8, 0, 1000);
    const RoutingPlan s = staticEpRouting(r, g, a);
    const auto recv = s.receivedTokens();
    std::vector<double> loads(recv.begin(), recv.end());
    EXPECT_GT(imbalanceFactor(loads), 1.5);
}

FlexMoeConfig
flexConfig()
{
    FlexMoeConfig cfg;
    cfg.capacity = 2;
    cfg.expertBytes = 1000; // tiny => low penalty in tests
    cfg.cost.commBytesPerToken = 8192;
    cfg.cost.compFlopsPerToken = 3.5e8;
    return cfg;
}

TEST(FlexMoe, StartsFeasibleAndStaysFeasible)
{
    const Cluster c = cluster44();
    FlexMoePlanner planner(c, 8, flexConfig());
    EXPECT_TRUE(planner.layout().feasible(2));
    const RoutingMatrix r = hotExpertRouting(16, 8, 2, 1000);
    for (int i = 0; i < 5; ++i) {
        planner.update(r);
        EXPECT_TRUE(planner.layout().feasible(2));
    }
}

TEST(FlexMoe, GrowsReplicasOfHotExpert)
{
    const Cluster c = cluster44();
    FlexMoePlanner planner(c, 8, flexConfig());
    const int before = planner.layout().replicaCount(2);
    const RoutingMatrix r = hotExpertRouting(16, 8, 2, 4000);
    for (int i = 0; i < 10; ++i)
        planner.update(r);
    EXPECT_GT(planner.layout().replicaCount(2), before);
}

TEST(FlexMoe, HighPenaltyFreezesLayout)
{
    const Cluster c = cluster44();
    FlexMoeConfig cfg = flexConfig();
    cfg.expertBytes = static_cast<Bytes>(1e15); // absurd migration
    FlexMoePlanner planner(c, 8, cfg);
    const ExpertLayout before = planner.layout();
    const RoutingMatrix r = hotExpertRouting(16, 8, 1, 4000);
    const FlexMoeStep step = planner.update(r);
    EXPECT_EQ(step.movesApplied, 0);
    EXPECT_TRUE(planner.layout() == before);
}

TEST(FlexMoe, ChargesMigrationTime)
{
    const Cluster c = cluster44();
    FlexMoePlanner planner(c, 8, flexConfig());
    const RoutingMatrix r = hotExpertRouting(16, 8, 2, 4000);
    const FlexMoeStep step = planner.update(r);
    if (step.movesApplied > 0) {
        EXPECT_GT(step.migrationTime, 0.0);
    }
    EXPECT_LE(step.movesApplied, 2);
}

TEST(SmartMoe, OnlyRelayoutsOnPeriod)
{
    const Cluster c = cluster44();
    SmartMoeConfig cfg;
    cfg.capacity = 2;
    cfg.period = 5;
    cfg.expertBytes = 1000;
    SmartMoePlanner planner(c, 8, cfg);
    const RoutingMatrix r = hotExpertRouting(16, 8, 3, 4000);
    int relayouts = 0;
    for (int i = 0; i < 10; ++i)
        relayouts += planner.observe(r).relayouted ? 1 : 0;
    EXPECT_LE(relayouts, 2);
    EXPECT_TRUE(planner.layout().feasible(2));
}

TEST(SmartMoe, KeepsEvenReplicaCounts)
{
    // SmartMoE relocates but never changes replica multiplicity.
    const Cluster c = cluster44();
    SmartMoeConfig cfg;
    cfg.capacity = 2;
    cfg.period = 2;
    cfg.expertBytes = 1000;
    SmartMoePlanner planner(c, 8, cfg);
    const RoutingMatrix r = hotExpertRouting(16, 8, 0, 4000);
    planner.observe(r);
    planner.observe(r); // triggers re-layout
    for (ExpertId j = 0; j < 8; ++j)
        EXPECT_EQ(planner.layout().replicaCount(j), 4);
}

} // namespace
} // namespace laer
