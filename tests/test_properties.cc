/**
 * @file
 * Property-based sweeps (parameterised gtest) over cluster shapes,
 * expert counts, capacities and skew levels, asserting the planner's
 * structural invariants everywhere:
 *  - tuned layouts are always feasible;
 *  - lite routing always conserves tokens and respects layouts;
 *  - the tuner never does worse than the naive even layout it starts
 *    from;
 *  - FSEP unshard traffic always equals the analytic volume.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/rng.hh"
#include "fsep/sharded_experts.hh"
#include "fsep/volume.hh"
#include "oracle/dense_plan.hh"
#include "planner/layout_tuner.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"
#include "planner/routing_plan_sparse.hh"

namespace laer
{
namespace
{

// (nodes, devices/node, experts, capacity, skew_alpha, seed)
using Shape = std::tuple<int, int, int, int, double, std::uint64_t>;

class PlannerProperty : public ::testing::TestWithParam<Shape>
{
  protected:
    void
    SetUp() override
    {
        const auto [nodes, dpn, experts, capacity, alpha, seed] =
            GetParam();
        cluster_ = std::make_unique<Cluster>(nodes, dpn, 100e9, 10e9,
                                             1e12);
        experts_ = experts;
        capacity_ = capacity;
        Rng rng(seed);
        routing_ = RoutingMatrix(cluster_->numDevices(), experts);
        const auto pop = rng.dirichlet(experts, alpha);
        for (DeviceId d = 0; d < cluster_->numDevices(); ++d) {
            const auto counts = rng.multinomial(2048, pop);
            for (ExpertId j = 0; j < experts; ++j)
                routing_.at(d, j) = counts[j];
        }
        cost_.commBytesPerToken = 8192;
        cost_.compFlopsPerToken = 3.5e8;
    }

    std::unique_ptr<Cluster> cluster_;
    RoutingMatrix routing_;
    CostParams cost_;
    int experts_ = 0;
    int capacity_ = 0;
};

TEST_P(PlannerProperty, TunedLayoutIsFeasible)
{
    TunerConfig cfg;
    cfg.capacity = capacity_;
    cfg.cost = cost_;
    const LayoutDecision dec =
        tuneExpertLayout(*cluster_, routing_, cfg);
    EXPECT_TRUE(dec.layout.feasible(capacity_));
}

TEST_P(PlannerProperty, LiteRoutingConservesTokens)
{
    TunerConfig cfg;
    cfg.capacity = capacity_;
    cfg.cost = cost_;
    const LayoutDecision dec =
        tuneExpertLayout(*cluster_, routing_, cfg);
    EXPECT_TRUE(conservesTokens(liteRouting(*cluster_, routing_, dec.layout),
                                routing_, dec.layout));
}

TEST_P(PlannerProperty, TunerNeverWorseThanEvenLayout)
{
    TunerConfig cfg;
    cfg.capacity = capacity_;
    cfg.cost = cost_;
    const LayoutDecision dec =
        tuneExpertLayout(*cluster_, routing_, cfg);

    const std::vector<TokenCount> loads = routing_.expertLoads();
    const ExpertLayout even = expertRelocation(
        *cluster_,
        evenAllocation(loads, cluster_->numDevices(), capacity_),
        loads, capacity_);
    RoutingPlanSparse even_plan;
    liteRoutingSparse(*cluster_, routing_, ReplicaIndex(*cluster_, even),
                      even_plan);
    const Seconds even_cost =
        timeCost(*cluster_, cost_, even_plan).total();
    EXPECT_LE(dec.cost.total(), even_cost * 1.0001);
}

TEST_P(PlannerProperty, ReplicaAllocationFillsBudget)
{
    const std::vector<TokenCount> loads = routing_.expertLoads();
    const auto rep = replicaAllocation(
        loads, cluster_->numDevices(), capacity_);
    int total = 0;
    for (int r : rep) {
        EXPECT_GE(r, 1);
        total += r;
    }
    EXPECT_EQ(total, cluster_->numDevices() * capacity_);
}

TEST_P(PlannerProperty, RelocationSpreadsReplicasOverNodes)
{
    const std::vector<TokenCount> loads = routing_.expertLoads();
    const auto rep = replicaAllocation(
        loads, cluster_->numDevices(), capacity_);
    const ExpertLayout layout =
        expertRelocation(*cluster_, rep, loads, capacity_);
    // Node-balance invariant of Alg. 1: per-node replica counts of
    // any expert differ by at most one... unless capacity pressure on
    // full nodes forces an exception; allow slack of one extra.
    for (ExpertId j = 0; j < experts_; ++j) {
        int mn = 1 << 30, mx = 0;
        for (NodeId nd = 0; nd < cluster_->numNodes(); ++nd) {
            int cnt = 0;
            for (int l = 0; l < cluster_->devicesPerNode(); ++l)
                cnt += layout.at(cluster_->firstDeviceOf(nd) + l, j);
            mn = std::min(mn, cnt);
            mx = std::max(mx, cnt);
        }
        EXPECT_LE(mx - mn, 2) << "expert " << j;
    }
}

TEST_P(PlannerProperty, FsepTrafficMatchesAnalyticVolume)
{
    const int n = cluster_->numDevices();
    // Use a tiny parameter size divisible by every n in the sweep.
    const int size = 3 * 64; // 192 divisible by 2,4,6,8,12,16,24,32? no
    // Choose lcm-friendly size: 2^5 * 3 = 96... use 480 (divisible by
    // 2,4,6,8,12,16,24,32? 480/32=15 yes, /24=20 yes, /12=40 yes).
    (void)size;
    const int psize = 480;
    if (psize % n != 0)
        GTEST_SKIP() << "size not divisible by n=" << n;
    Rng rng(99);
    ExpertWeights w(experts_, std::vector<float>(psize));
    for (auto &expert : w)
        for (auto &v : expert)
            v = static_cast<float>(rng.gaussian());
    const ShardedExperts sharded(w, n);

    TunerConfig cfg;
    cfg.capacity = capacity_;
    cfg.cost = cost_;
    const LayoutDecision dec =
        tuneExpertLayout(*cluster_, routing_, cfg);
    const UnshardResult result = sharded.unshard(dec.layout);
    const Bytes expected = fsepUnshardVolume(
        n, capacity_, static_cast<Bytes>(psize) * sizeof(float));
    for (DeviceId d = 0; d < n; ++d) {
        Bytes recv = 0;
        for (DeviceId src = 0; src < n; ++src)
            if (src != d)
                recv += result.traffic[src][d];
        EXPECT_EQ(recv, expected);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerProperty,
    ::testing::Values(
        Shape{1, 4, 4, 1, 0.3, 1},   // single node, tight capacity
        Shape{1, 8, 8, 2, 0.3, 2},   // single node, replicas
        Shape{2, 4, 8, 2, 0.2, 3},   // two nodes, skewed
        Shape{2, 4, 8, 2, 5.0, 4},   // two nodes, near-uniform
        Shape{4, 4, 8, 2, 0.3, 5},   // paper-like small
        Shape{4, 8, 8, 2, 0.5, 6},   // paper cluster shape
        Shape{4, 8, 16, 4, 0.3, 7},  // e16k4 shape
        Shape{2, 8, 16, 2, 0.2, 8},  // capacity-tight e16
        Shape{8, 4, 16, 4, 1.0, 9},  // wide cluster
        Shape{4, 4, 4, 2, 0.1, 10}), // extreme skew, few experts
    [](const auto &info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "x" +
               std::to_string(std::get<1>(info.param)) + "_e" +
               std::to_string(std::get<2>(info.param)) + "_c" +
               std::to_string(std::get<3>(info.param)) + "_s" +
               std::to_string(std::get<5>(info.param));
    });

/** Lite-routing invariants across random layouts (not just tuned). */
class LiteRoutingProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LiteRoutingProperty, ConservationUnderRandomFeasibleLayouts)
{
    const Cluster cluster(2, 4, 100e9, 10e9, 1e12);
    Rng rng(GetParam());
    const int n = 8, e = 8, cap = 2;

    // Random feasible layout: shuffle a multiset of replicas into
    // device slots.
    std::vector<int> rep(e, 1);
    for (int extra = 0; extra < n * cap - e; ++extra)
        ++rep[rng.uniformInt(0, e - 1)];
    std::vector<ExpertId> slots;
    for (ExpertId j = 0; j < e; ++j)
        for (int r = 0; r < rep[j]; ++r)
            slots.push_back(j);
    const auto perm = rng.permutation(static_cast<int>(slots.size()));
    ExpertLayout layout(n, e);
    for (std::size_t i = 0; i < slots.size(); ++i)
        ++layout.at(static_cast<DeviceId>(i / cap), slots[perm[i]]);
    ASSERT_TRUE(layout.feasible(cap));

    RoutingMatrix routing(n, e);
    const auto pop = rng.dirichlet(e, 0.4);
    for (DeviceId d = 0; d < n; ++d) {
        const auto counts = rng.multinomial(1024, pop);
        for (ExpertId j = 0; j < e; ++j)
            routing.at(d, j) = counts[j];
    }
    const RoutingPlan plan = liteRouting(cluster, routing, layout);
    EXPECT_TRUE(conservesTokens(plan, routing, layout));

    // Intra-node preference: if a node hosts a replica, no token from
    // that node crosses nodes for that expert.
    for (DeviceId i = 0; i < n; ++i) {
        for (ExpertId j = 0; j < e; ++j) {
            bool intra_replica = false;
            for (DeviceId d = 0; d < n; ++d)
                if (layout.at(d, j) > 0 && cluster.sameNode(i, d))
                    intra_replica = true;
            if (!intra_replica)
                continue;
            for (DeviceId k = 0; k < n; ++k)
                if (!cluster.sameNode(i, k)) {
                    EXPECT_EQ(plan.at(i, j, k), 0)
                        << "token leaked across nodes";
                }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiteRoutingProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

} // namespace
} // namespace laer
