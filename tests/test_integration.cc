/**
 * @file
 * Integration tests: the full training simulator across systems, and
 * the FSEP executor driven by planner layouts over multiple
 * iterations.
 */

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "fsep/sharded_experts.hh"
#include "planner/layout_tuner.hh"
#include "planner/lite_routing.hh"
#include "runtime/training_sim.hh"

namespace laer
{
namespace
{

SimulatorConfig
baseConfig(SystemKind system)
{
    SimulatorConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.system = system;
    cfg.capacity = 2;
    cfg.seqLen = 4096;
    cfg.tokensPerDevice = 8192;
    cfg.globalBatchTokens = 8192LL * 16 * 2; // two micro-steps
    cfg.simulatedLayers = 4;
    cfg.routing.skew = 1.3;
    cfg.routing.drift = 0.97;
    cfg.tpDegree = 4;
    cfg.seed = 11;
    return cfg;
}

Cluster
testCluster()
{
    return Cluster(2, 8, 300e9, 12.5e9, 140e12);
}

TEST(TrainingSimulator, RunsEverySystem)
{
    const Cluster c = testCluster();
    for (SystemKind sys :
         {SystemKind::Laer, SystemKind::FsdpEp, SystemKind::Megatron,
          SystemKind::FlexMoe, SystemKind::SmartMoe}) {
        TrainingSimulator sim(c, baseConfig(sys));
        const auto results = sim.run(3);
        ASSERT_EQ(results.size(), 3u);
        for (const auto &r : results) {
            EXPECT_GT(r.time, 0.0) << systemName(sys);
            EXPECT_GT(r.tokensPerSecond, 0.0) << systemName(sys);
            EXPECT_GE(r.maxRelTokens, 1.0) << systemName(sys);
        }
    }
}

TEST(TrainingSimulator, LaerBeatsStaticBaselinesUnderSkew)
{
    const Cluster c = testCluster();
    TrainingSimulator laer(c, baseConfig(SystemKind::Laer));
    TrainingSimulator fsdp(c, baseConfig(SystemKind::FsdpEp));
    // Skip the cold-start iteration (LAER needs one observation).
    laer.step();
    fsdp.step();
    const Seconds t_laer = TrainingSimulator::meanTime(laer.run(6));
    const Seconds t_fsdp = TrainingSimulator::meanTime(fsdp.run(6));
    EXPECT_LT(t_laer, t_fsdp);
}

TEST(TrainingSimulator, LaerBalancesTokenLoads)
{
    const Cluster c = testCluster();
    TrainingSimulator laer(c, baseConfig(SystemKind::Laer));
    TrainingSimulator fsdp(c, baseConfig(SystemKind::FsdpEp));
    laer.step();
    fsdp.step();
    double imb_laer = 0.0, imb_fsdp = 0.0;
    for (int i = 0; i < 6; ++i) {
        imb_laer += laer.step().maxRelTokens;
        imb_fsdp += fsdp.step().maxRelTokens;
    }
    EXPECT_LT(imb_laer, imb_fsdp);
    EXPECT_LT(imb_laer / 6, 1.5); // near-balanced
}

TEST(TrainingSimulator, PlannerWallTimeIsRecorded)
{
    const Cluster c = testCluster();
    TrainingSimulator sim(c, baseConfig(SystemKind::Laer));
    sim.step(); // cold start: no solve yet
    const IterationResult r = sim.step();
    EXPECT_GT(r.plannerWall, 0.0);
    EXPECT_LT(r.plannerWall, 1.0); // well under a second for 16 dev
}

TEST(TrainingSimulator, FlexMoeChargesMigration)
{
    const Cluster c = testCluster();
    SimulatorConfig cfg = baseConfig(SystemKind::FlexMoe);
    cfg.routing.skew = 1.8;
    TrainingSimulator sim(c, cfg);
    double migration = 0.0;
    for (int i = 0; i < 6; ++i)
        migration += sim.step().migration;
    EXPECT_GT(migration, 0.0);
}

TEST(TrainingSimulator, NoCommOptIsSlower)
{
    const Cluster c = testCluster();
    SimulatorConfig opt = baseConfig(SystemKind::Laer);
    SimulatorConfig no_opt = opt;
    no_opt.flags = ScheduleFlags::none();
    TrainingSimulator a(c, opt), b(c, no_opt);
    a.step();
    b.step();
    EXPECT_LT(TrainingSimulator::meanTime(a.run(4)),
              TrainingSimulator::meanTime(b.run(4)));
}

TEST(TrainingSimulator, ThroughputConsistentWithTime)
{
    const Cluster c = testCluster();
    TrainingSimulator sim(c, baseConfig(SystemKind::Laer));
    const IterationResult r = sim.step();
    EXPECT_NEAR(r.tokensPerSecond * r.time,
                static_cast<double>(
                    sim.config().globalBatchTokens),
                1.0);
}

/**
 * Numeric end-to-end: drive the data-level FSEP executor with layouts
 * produced by the tuner across several simulated iterations, checking
 * the parameters remain consistent with a single-device reference
 * under SGD.
 */
TEST(FsepPlannerLoop, MultiIterationTrainingMatchesReference)
{
    const int n = 4, e = 4, size = 32;
    const Cluster c(2, 2, 100e9, 10e9, 1e12);
    Rng rng(21);

    ExpertWeights weights(e, std::vector<float>(size));
    for (auto &w : weights)
        for (auto &v : w)
            v = static_cast<float>(rng.gaussian());
    ExpertWeights reference = weights;
    ShardedExperts sharded(weights, n);

    TunerConfig tc;
    tc.capacity = 2;
    tc.cost.commBytesPerToken = 64;
    tc.cost.compFlopsPerToken = 1e6;

    const float lr = 0.05f;
    for (int iter = 0; iter < 5; ++iter) {
        // Synthetic routing.
        RoutingMatrix routing(n, e);
        for (DeviceId d = 0; d < n; ++d) {
            const auto pop = rng.dirichlet(e, 0.4);
            const auto counts = rng.multinomial(256, pop);
            for (ExpertId j = 0; j < e; ++j)
                routing.at(d, j) = counts[j];
        }
        const LayoutDecision dec = tuneExpertLayout(c, routing, tc);
        ASSERT_TRUE(dec.layout.feasible(2));

        // Unshard, verify restored params match the reference.
        const UnshardResult restored = sharded.unshard(dec.layout);
        for (DeviceId d = 0; d < n; ++d)
            for (const auto &[expert, params] : restored.restored[d])
                for (int i = 0; i < size; ++i)
                    ASSERT_FLOAT_EQ(params[i], reference[expert][i]);

        // Every replica contributes a deterministic pseudo-gradient;
        // under lite routing the SUM over replicas must equal the
        // logical expert gradient.
        std::vector<std::vector<std::pair<ExpertId,
                                          std::vector<float>>>>
            grads(n);
        std::vector<std::vector<float>> logical(
            e, std::vector<float>(size, 0.0f));
        const RoutingPlan plan = liteRouting(c, routing, dec.layout);
        for (DeviceId d = 0; d < n; ++d) {
            for (const auto &[expert, params] : restored.restored[d]) {
                // Tokens this replica computed for this expert.
                TokenCount t = 0;
                for (DeviceId i = 0; i < n; ++i)
                    t += plan.at(i, expert, d);
                std::vector<float> g(size);
                for (int i = 0; i < size; ++i)
                    g[i] = 1e-3f * static_cast<float>(t) *
                           params[i];
                for (int i = 0; i < size; ++i)
                    logical[expert][i] += g[i];
                grads[d].emplace_back(expert, std::move(g));
            }
        }
        sharded.applyGrad(sharded.reshard(dec.layout, grads), lr);
        for (ExpertId j = 0; j < e; ++j)
            for (int i = 0; i < size; ++i)
                reference[j][i] -= lr * logical[j][i];
    }

    const ExpertWeights final_weights = sharded.gatherFull();
    for (ExpertId j = 0; j < e; ++j)
        for (int i = 0; i < size; ++i)
            EXPECT_NEAR(final_weights[j][i], reference[j][i], 1e-5f);
}

} // namespace
} // namespace laer
