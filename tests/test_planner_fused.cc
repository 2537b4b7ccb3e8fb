/**
 * @file
 * Equivalence tests for the fused route-and-score fast path: for any
 * feasible (routing, layout) pair, scoreLiteRouting must report the
 * objective value of timeCost(liteRouting(...)) up to summation order
 * (the comm term within 1e-9 relative; it is bit-identical only to the
 * tuner's per-share order) — it is a performance optimisation, never
 * a semantic change.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/rng.hh"
#include "oracle/dense_plan.hh"
#include "planner/layout_tuner.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"

namespace laer
{
namespace
{

// (nodes, devices/node, experts, capacity, alpha, seed)
using Shape = std::tuple<int, int, int, int, double, std::uint64_t>;

class FusedScoring : public ::testing::TestWithParam<Shape>
{
  protected:
    void
    SetUp() override
    {
        const auto [nodes, dpn, experts, capacity, alpha, seed] =
            GetParam();
        cluster_ = std::make_unique<Cluster>(nodes, dpn, 100e9, 10e9,
                                             1e12);
        capacity_ = capacity;
        Rng rng(seed);
        routing_ = RoutingMatrix(cluster_->numDevices(), experts);
        const auto pop = rng.dirichlet(experts, alpha);
        for (DeviceId d = 0; d < cluster_->numDevices(); ++d) {
            const auto counts = rng.multinomial(3000 + seed, pop);
            for (ExpertId j = 0; j < experts; ++j)
                routing_.at(d, j) = counts[j];
        }
        const auto loads = routing_.expertLoads();
        layout_ = expertRelocation(
            *cluster_,
            replicaAllocation(loads, cluster_->numDevices(), capacity),
            loads, capacity);
        cost_.commBytesPerToken = 8192;
        cost_.compFlopsPerToken = 3.5e8;
    }

    std::unique_ptr<Cluster> cluster_;
    RoutingMatrix routing_;
    ExpertLayout layout_;
    CostParams cost_;
    int capacity_ = 0;
};

TEST_P(FusedScoring, CostMatchesDensePath)
{
    // Identical maths up to floating-point summation order (the
    // fused path accumulates per share, the dense path per pair).
    const LiteRoutingScore fused =
        scoreLiteRouting(*cluster_, routing_, layout_, cost_);
    const RoutingPlan dense =
        liteRouting(*cluster_, routing_, layout_);
    const CostBreakdown reference = timeCost(*cluster_, cost_, dense);
    EXPECT_NEAR(fused.cost.comm, reference.comm,
                1e-9 * reference.comm + 1e-18);
    EXPECT_DOUBLE_EQ(fused.cost.comp, reference.comp);
}

TEST_P(FusedScoring, ReceivedTokensMatchDensePath)
{
    const LiteRoutingScore fused =
        scoreLiteRouting(*cluster_, routing_, layout_, cost_);
    const RoutingPlan dense =
        liteRouting(*cluster_, routing_, layout_);
    EXPECT_EQ(fused.recv, receivedTokens(dense));
}

TEST_P(FusedScoring, RecvConservesAllTokens)
{
    const LiteRoutingScore fused =
        scoreLiteRouting(*cluster_, routing_, layout_, cost_);
    TokenCount total = 0;
    for (TokenCount r : fused.recv)
        total += r;
    EXPECT_EQ(total, routing_.totalTokens());
}

TEST_P(FusedScoring, TunerCostIsRealizedByItsLayout)
{
    TunerConfig config;
    config.capacity = capacity_;
    config.cost = cost_;
    const LayoutDecision a = tuneExpertLayout(*cluster_, routing_, config);
    // Routing the decision's layout must actually realise its cost.
    RoutingPlanSparse plan;
    liteRoutingSparse(*cluster_, routing_, ReplicaIndex(*cluster_, a.layout),
                      plan);
    const CostBreakdown realized = timeCost(*cluster_, cost_, plan);
    EXPECT_NEAR(realized.total(), a.cost.total(),
                1e-12 * a.cost.total());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedScoring,
    ::testing::Values(Shape{1, 4, 4, 1, 0.3, 11},
                      Shape{2, 4, 8, 2, 0.2, 12},
                      Shape{2, 8, 8, 2, 1.0, 13},
                      Shape{4, 8, 8, 2, 0.4, 14},
                      Shape{4, 8, 16, 4, 0.3, 15},
                      Shape{8, 8, 16, 2, 0.6, 16},
                      Shape{2, 2, 6, 3, 0.15, 17},
                      Shape{3, 4, 12, 3, 0.5, 18}),
    [](const auto &info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "x" +
               std::to_string(std::get<1>(info.param)) + "_e" +
               std::to_string(std::get<2>(info.param)) + "_c" +
               std::to_string(std::get<3>(info.param)) + "_s" +
               std::to_string(std::get<5>(info.param));
    });

} // namespace
} // namespace laer
