/**
 * @file
 * Tests for the expert layout tuner (paper Alg. 2) and the exhaustive
 * reference solver.
 */

#include <gtest/gtest.h>

#include "baselines/static_ep.hh"
#include "core/error.hh"
#include "core/rng.hh"
#include "planner/layout_tuner.hh"
#include "oracle/reference_solver.hh"
#include "planner/lite_routing.hh"

namespace laer
{
namespace
{

CostParams
toyCost()
{
    CostParams p;
    p.commBytesPerToken = 8192;   // 4K hidden, bf16
    p.compFlopsPerToken = 3.5e8;  // SwiGLU-ish
    p.checkpointing = false;
    return p;
}

RoutingMatrix
skewedRouting(int n, int e, std::uint64_t seed)
{
    Rng rng(seed);
    RoutingMatrix r(n, e);
    const auto pop = rng.dirichlet(e, 0.3);
    for (DeviceId d = 0; d < n; ++d) {
        const auto counts = rng.multinomial(4096, pop);
        for (ExpertId j = 0; j < e; ++j)
            r.at(d, j) = counts[j];
    }
    return r;
}

TEST(LayoutTuner, ProducesFeasibleLayoutAndConservingPlan)
{
    const Cluster c(2, 4, 100e9, 10e9, 1e12);
    const RoutingMatrix r = skewedRouting(8, 8, 1);
    TunerConfig cfg;
    cfg.capacity = 2;
    cfg.cost = toyCost();
    const LayoutDecision dec = tuneExpertLayout(c, r, cfg);
    EXPECT_TRUE(dec.layout.feasible(2));
    EXPECT_TRUE(dec.plan.conservesTokens(r, dec.layout));
    EXPECT_EQ(dec.schemesTried, cfg.setSize);
}

TEST(LayoutTuner, BeatsStaticLayoutUnderSkew)
{
    const Cluster c(2, 4, 100e9, 10e9, 1e12);
    TunerConfig cfg;
    cfg.capacity = 2;
    cfg.cost = toyCost();
    const EpGrouping grouping(c, 4, true);
    const ExpertLayout static_layout = staticEpLayout(c, 8, grouping);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const RoutingMatrix r = skewedRouting(8, 8, seed);
        const LayoutDecision dec = tuneExpertLayout(c, r, cfg);
        const RoutingPlan static_plan =
            staticEpRouting(r, grouping, static_layout);
        const Seconds static_cost =
            timeCost(c, cfg.cost, static_plan).total();
        EXPECT_LE(dec.cost.total(), static_cost * 1.0001)
            << "seed " << seed;
    }
}

TEST(LayoutTuner, MoreSchemesNeverHurt)
{
    const Cluster c(2, 4, 100e9, 10e9, 1e12);
    const RoutingMatrix r = skewedRouting(8, 8, 3);
    TunerConfig small;
    small.capacity = 2;
    small.cost = toyCost();
    small.setSize = 2;
    TunerConfig large = small;
    large.setSize = 16;
    const Seconds t_small =
        tuneExpertLayout(c, r, small).cost.total();
    const Seconds t_large =
        tuneExpertLayout(c, r, large).cost.total();
    EXPECT_LE(t_large, t_small + 1e-12);
}

TEST(LayoutTuner, DeterministicForSeed)
{
    const Cluster c(2, 4, 100e9, 10e9, 1e12);
    const RoutingMatrix r = skewedRouting(8, 8, 4);
    TunerConfig cfg;
    cfg.capacity = 2;
    cfg.cost = toyCost();
    cfg.seed = 99;
    const LayoutDecision a = tuneExpertLayout(c, r, cfg);
    const LayoutDecision b = tuneExpertLayout(c, r, cfg);
    EXPECT_TRUE(a.layout == b.layout);
    EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
}

TEST(LayoutTuner, AblationFlagsAreRespected)
{
    const Cluster c(2, 4, 100e9, 10e9, 1e12);
    const RoutingMatrix r = skewedRouting(8, 8, 5);
    TunerConfig pq_only;
    pq_only.capacity = 2;
    pq_only.cost = toyCost();
    pq_only.useEven = false;
    pq_only.setSize = 1;
    TunerConfig even_only = pq_only;
    even_only.usePq = false;
    even_only.useEven = true;
    const LayoutDecision a = tuneExpertLayout(c, r, pq_only);
    const LayoutDecision b = tuneExpertLayout(c, r, even_only);
    EXPECT_EQ(a.schemesTried, 1);
    EXPECT_EQ(b.schemesTried, 1);
    // Even allocation assigns identical replica counts to everyone.
    for (ExpertId j = 1; j < 8; ++j)
        EXPECT_EQ(b.layout.replicaCount(j), b.layout.replicaCount(0));

    TunerConfig none = pq_only;
    none.usePq = false;
    none.useEven = false;
    EXPECT_THROW(tuneExpertLayout(c, r, none), FatalError);
}

TEST(LayoutTuner, NearOptimalOnTinyInstances)
{
    // Compare against exhaustive search over all layouts (the same
    // lite-routing family) on 4 devices / 3 experts / capacity 2.
    const Cluster c(2, 2, 100e9, 10e9, 1e12);
    for (std::uint64_t seed = 10; seed < 16; ++seed) {
        const RoutingMatrix r = skewedRouting(4, 3, seed);
        TunerConfig cfg;
        cfg.capacity = 2;
        cfg.cost = toyCost();
        cfg.setSize = 8;
        const LayoutDecision greedy = tuneExpertLayout(c, r, cfg);
        const LayoutDecision best =
            exhaustiveLayoutSearch(c, r, cfg.cost, 2);
        EXPECT_LE(greedy.cost.total(), best.cost.total() * 1.25)
            << "seed " << seed;
        EXPECT_GE(greedy.cost.total(), best.cost.total() - 1e-12)
            << "exhaustive must be a lower bound (seed " << seed
            << ")";
    }
}

TEST(ReferenceSolver, FindsObviousOptimum)
{
    // 2 devices (one node), 2 experts, capacity 1: all load on expert
    // 0 from device 0 — optimal layout keeps expert 0 local.
    const Cluster c(1, 2, 100e9, 10e9, 1e12);
    RoutingMatrix r(2, 2);
    r.at(0, 0) = 1000;
    r.at(1, 1) = 10;
    const LayoutDecision best =
        exhaustiveLayoutSearch(c, r, toyCost(), 1);
    EXPECT_TRUE(best.layout.feasible(1));
    EXPECT_EQ(best.layout.at(0, 0), 1);
    EXPECT_EQ(best.layout.at(1, 1), 1);
}

TEST(ReferenceSolver, RefusesHugeInstances)
{
    const Cluster c = Cluster::a100(4);
    const RoutingMatrix r = skewedRouting(32, 8, 1);
    EXPECT_THROW(exhaustiveLayoutSearch(c, r, toyCost(), 2),
                 FatalError);
}

TEST(CostModel, CommTermUsesPairBandwidth)
{
    const Cluster c(2, 2, 100e9, 10e9, 1e12);
    CostParams p;
    p.commBytesPerToken = 1000;
    p.compFlopsPerToken = 0.0;
    RoutingPlan s(4, 1);
    s.at(0, 0, 1) = 10; // intra
    s.at(0, 0, 2) = 10; // inter
    const CostBreakdown cost = timeCost(c, p, s);
    // 4 * V * (10/100e9 + 10/10e9) * 1000 bytes
    EXPECT_NEAR(cost.comm, 4.0 * 1000 * (10 / 100e9 + 10 / 10e9),
                1e-15);
    EXPECT_DOUBLE_EQ(cost.comp, 0.0);
}

TEST(CostModel, CompTermIsMaxOverDevicesTimesFactor)
{
    const Cluster c(1, 4, 100e9, 10e9, 1e12);
    CostParams p;
    p.commBytesPerToken = 0;
    p.compFlopsPerToken = 1e9;
    RoutingPlan s(4, 1);
    s.at(0, 0, 1) = 30; // device 1 receives the most
    s.at(2, 0, 3) = 10;
    CostBreakdown cost = timeCost(c, p, s);
    EXPECT_NEAR(cost.comp, 3.0 * 30 * 1e9 / 1e12, 1e-12);
    p.checkpointing = true;
    cost = timeCost(c, p, s);
    EXPECT_NEAR(cost.comp, 4.0 * 30 * 1e9 / 1e12, 1e-12);
}

TEST(CostModel, FastPathMatchesFullEvaluation)
{
    const Cluster c(2, 2, 100e9, 10e9, 1e12);
    CostParams p;
    p.commBytesPerToken = 512;
    p.compFlopsPerToken = 1e8;
    RoutingPlan s(4, 2);
    s.at(0, 0, 1) = 7;
    s.at(1, 1, 2) = 9;
    s.at(3, 0, 1) = 2;
    const CostBreakdown full = timeCost(c, p, s);

    Seconds pair_sum = 0.0;
    for (DeviceId i = 0; i < 4; ++i)
        for (DeviceId k = 0; k < 4; ++k) {
            if (i == k)
                continue;
            TokenCount t = 0;
            for (ExpertId j = 0; j < 2; ++j)
                t += s.at(i, j, k);
            pair_sum += static_cast<double>(t) / c.bw(i, k);
        }
    const CostBreakdown fast =
        timeCostFromSums(c, p, s.receivedTokens(), pair_sum);
    EXPECT_NEAR(full.comm, fast.comm, 1e-15);
    EXPECT_NEAR(full.comp, fast.comp, 1e-15);
}

} // namespace
} // namespace laer
