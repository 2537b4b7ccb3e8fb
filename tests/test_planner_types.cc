/**
 * @file
 * Tests for the planner data types R, A and S.
 */

#include <gtest/gtest.h>

#include "oracle/dense_plan.hh"
#include "planner/types.hh"

namespace laer
{
namespace
{

TEST(RoutingMatrix, AccessAndSums)
{
    RoutingMatrix r(3, 2);
    r.at(0, 0) = 5;
    r.at(1, 1) = 7;
    r.at(2, 0) = 3;
    EXPECT_EQ(r.expertLoads(), (std::vector<TokenCount>{8, 7}));
    EXPECT_EQ(r.deviceTokens(), (std::vector<TokenCount>{5, 7, 3}));
    EXPECT_EQ(r.totalTokens(), 15);
}

TEST(ExpertLayout, ReplicaQueries)
{
    ExpertLayout a(4, 3);
    a.at(0, 1) = 1;
    a.at(2, 1) = 1;
    a.at(3, 0) = 2;
    EXPECT_EQ(a.replicaCount(1), 2);
    EXPECT_EQ(a.replicaCount(0), 2);
    EXPECT_EQ(a.replicaDevices(1), (std::vector<DeviceId>{0, 2}));
    EXPECT_EQ(a.slotsUsed(3), 2);
}

TEST(ExpertLayout, FeasibilityRequiresFullSlotsAndCoverage)
{
    // 2 devices, 2 experts, capacity 1.
    ExpertLayout a(2, 2);
    a.at(0, 0) = 1;
    a.at(1, 1) = 1;
    EXPECT_TRUE(a.feasible(1));
    // A device with spare capacity fails.
    ExpertLayout b(2, 2);
    b.at(0, 0) = 1;
    EXPECT_FALSE(b.feasible(1));
    // An uncovered expert fails even with full slots.
    ExpertLayout c(2, 2);
    c.at(0, 0) = 1;
    c.at(1, 0) = 1;
    EXPECT_FALSE(c.feasible(1));
}

TEST(RoutingPlan, ReceivedTokens)
{
    RoutingPlan s(2, 2);
    s.at(0, 0, 1) = 4;
    s.at(1, 1, 1) = 6;
    s.at(1, 0, 0) = 1;
    EXPECT_EQ(receivedTokens(s), (std::vector<TokenCount>{1, 10}));
}

TEST(RoutingPlan, ConservationDetectsMismatch)
{
    RoutingMatrix r(2, 1);
    r.at(0, 0) = 5;
    r.at(1, 0) = 5;
    ExpertLayout a(2, 1);
    a.at(0, 0) = 1;

    RoutingPlan ok(2, 1);
    ok.at(0, 0, 0) = 5;
    ok.at(1, 0, 0) = 5;
    EXPECT_TRUE(conservesTokens(ok, r, a));

    RoutingPlan missing(2, 1);
    missing.at(0, 0, 0) = 5;
    missing.at(1, 0, 0) = 4; // lost one token
    EXPECT_FALSE(conservesTokens(missing, r, a));

    RoutingPlan misplaced(2, 1);
    misplaced.at(0, 0, 1) = 5; // device 1 does not host expert 0
    misplaced.at(1, 0, 0) = 5;
    EXPECT_FALSE(conservesTokens(misplaced, r, a));
}

TEST(RoutingPlan, DispatchVolumeUsesTokenBytes)
{
    RoutingPlan s(2, 1);
    s.at(0, 0, 1) = 3;
    s.at(1, 0, 1) = 2; // local (diagonal) traffic
    const VolumeMatrix v = dispatchVolume(s, 100);
    EXPECT_EQ(v[0][1], 300);
    EXPECT_EQ(v[1][1], 200);
    EXPECT_EQ(v[1][0], 0);
}

} // namespace
} // namespace laer
