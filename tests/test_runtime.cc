/**
 * @file
 * Tests for the iteration graph builder and its timing behaviour.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "comm/collectives.hh"
#include "core/error.hh"
#include "core/rng.hh"
#include "model/config.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"
#include "runtime/iteration.hh"
#include "runtime/training_sim.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

Cluster
smallCluster()
{
    return Cluster(2, 4, 300e9, 12.5e9, 140e12);
}

/** Balanced plan: device d sends everything to its ring neighbour, so
 * every device receives the same load but the wire stays busy. */
RoutingPlan
balancedPlan(const Cluster &c, int e, TokenCount per_device)
{
    RoutingPlan plan(c.numDevices(), e);
    for (DeviceId d = 0; d < c.numDevices(); ++d)
        plan.at(d, d % e, (d + 1) % c.numDevices()) = per_device;
    return plan;
}

/** Skewed plan: everything lands on device 0. */
RoutingPlan
hotDevicePlan(const Cluster &c, int e, TokenCount per_device)
{
    RoutingPlan plan(c.numDevices(), e);
    for (DeviceId d = 0; d < c.numDevices(); ++d)
        plan.at(d, 0, 0) = per_device;
    return plan;
}

IterationSpec
baseSpec(const ModelConfig &model,
         const std::vector<const RoutingPlan *> &plans)
{
    IterationSpec spec;
    spec.model = &model;
    spec.system = SystemKind::Laer;
    spec.flags = ScheduleFlags::all();
    spec.seqLen = 4096;
    spec.tokensPerDevice = 8192;
    spec.capacityHint = 2;
    spec.layerPlans = plans;
    return spec;
}

TEST(Iteration, SkewedPlanIsSlowerThanBalanced)
{
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    const RoutingPlan hot = hotDevicePlan(c, 8, 16384);
    std::vector<const RoutingPlan *> pb{&balanced, &balanced};
    std::vector<const RoutingPlan *> ph{&hot, &hot};
    const auto rb = simulateMicroBatch(c, baseSpec(model, pb));
    const auto rh = simulateMicroBatch(c, baseSpec(model, ph));
    EXPECT_GT(rh.makespan, 2.0 * rb.makespan);
}

TEST(Iteration, CommOptimisationsReduceMakespan)
{
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&balanced, &balanced,
                                           &balanced, &balanced};
    IterationSpec opt = baseSpec(model, plans);
    IterationSpec no_opt = opt;
    no_opt.flags = ScheduleFlags::none();
    const auto with_opt = simulateMicroBatch(c, opt);
    const auto without = simulateMicroBatch(c, no_opt);
    EXPECT_LT(with_opt.makespan, without.makespan);
    // The unoptimised schedule exposes prefetch time.
    EXPECT_GT(without.exposedPrefetch, with_opt.exposedPrefetch);
}

TEST(Iteration, DelayedGradSyncHidesReshard)
{
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&balanced, &balanced,
                                           &balanced};
    IterationSpec delayed = baseSpec(model, plans);
    IterationSpec eager = delayed;
    eager.flags.delayedGradSync = false;
    const auto rd = simulateMicroBatch(c, delayed);
    const auto re = simulateMicroBatch(c, eager);
    EXPECT_LE(rd.makespan, re.makespan);
}

TEST(Iteration, GradSyncOnlyWhenRequested)
{
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&balanced};
    IterationSpec with = baseSpec(model, plans);
    IterationSpec without = with;
    without.withGradSync = false;
    const auto rw = simulateMicroBatch(c, with);
    const auto ro = simulateMicroBatch(c, without);
    EXPECT_GE(rw.makespan, ro.makespan);
    EXPECT_DOUBLE_EQ(ro.exposedGradSync, 0.0);
}

TEST(Iteration, MegatronHasNoPrefetch)
{
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&balanced, &balanced};
    IterationSpec spec = baseSpec(model, plans);
    spec.system = SystemKind::Megatron;
    spec.tpDegree = 4;
    const auto r = simulateMicroBatch(c, spec);
    EXPECT_DOUBLE_EQ(r.exposedPrefetch, 0.0);
    EXPECT_GT(r.makespan, 0.0);
}

TEST(Iteration, BreakdownComponentsArePositive)
{
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&balanced, &balanced};
    const auto r = simulateMicroBatch(c, baseSpec(model, plans));
    EXPECT_GT(r.a2aBusy, 0.0);
    EXPECT_GT(r.expertBusy, 0.0);
    EXPECT_GT(r.othersBusy, 0.0);
    // Busy components cannot exceed the makespan per stream class.
    EXPECT_LE(r.expertBusy + r.othersBusy, r.makespan * 1.0001);
}

TEST(Iteration, CheckpointingAddsExpertRecompute)
{
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&balanced, &balanced};
    IterationSpec ckpt = baseSpec(model, plans);
    IterationSpec plain = ckpt;
    plain.checkpointing = false;
    const auto rc = simulateMicroBatch(c, ckpt);
    const auto rp = simulateMicroBatch(c, plain);
    EXPECT_GT(rc.expertBusy, rp.expertBusy);
}

TEST(Iteration, RecomputeModesOrderCorrectly)
{
    // Sec. 4: expert-only recompute avoids the extra All-to-All of
    // full recompute; no recompute is the compute floor.
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&balanced, &balanced};
    IterationSpec spec = baseSpec(model, plans);

    auto time_of = [&](bool ckpt, RecomputeMode mode) {
        IterationSpec s = spec;
        s.checkpointing = ckpt;
        s.recompute = mode;
        return simulateMicroBatch(c, s).makespan;
    };
    const Seconds none = time_of(false, RecomputeMode::None);
    const Seconds expert_only =
        time_of(true, RecomputeMode::ExpertOnly);
    const Seconds full = time_of(true, RecomputeMode::Full);
    EXPECT_LT(none, expert_only);
    EXPECT_LT(expert_only, full);
}

TEST(Iteration, AttentionRecomputeChargesOthersNotExperts)
{
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&balanced, &balanced};
    IterationSpec expert_spec = baseSpec(model, plans);
    expert_spec.recompute = RecomputeMode::ExpertOnly;
    IterationSpec attn_spec = expert_spec;
    attn_spec.recompute = RecomputeMode::AttentionOnly;
    const auto re = simulateMicroBatch(c, expert_spec);
    const auto ra = simulateMicroBatch(c, attn_spec);
    EXPECT_GT(ra.othersBusy, re.othersBusy);
    EXPECT_LT(ra.expertBusy, re.expertBusy);
}

TEST(Iteration, MegatronExpertTpSharesTail)
{
    // Expert TP splits the hot device's expert work across its
    // intra-node block, shrinking the tail.
    const Cluster c = smallCluster();
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan hot = hotDevicePlan(c, 8, 16384);
    std::vector<const RoutingPlan *> plans{&hot, &hot};
    IterationSpec spec = baseSpec(model, plans);
    spec.system = SystemKind::Megatron;
    spec.tpDegree = 2;
    spec.expertTpDegree = 1;
    const auto no_etp = simulateMicroBatch(c, spec);
    spec.expertTpDegree = 4;
    const auto etp = simulateMicroBatch(c, spec);
    EXPECT_LT(etp.makespan, no_etp.makespan);
}

TEST(Iteration, OptimizerTimeScalesInverselyWithDevices)
{
    const ModelConfig model = mixtral8x7bE8K2();
    EXPECT_NEAR(optimizerStepTime(model, 8),
                4.0 * optimizerStepTime(model, 32), 1e-9);
    EXPECT_GT(optimizerStepTime(model, 32), 0.0);
}

TEST(Iteration, LmHeadTimeShrinksWithTp)
{
    const ModelConfig model = mixtral8x7bE8K2();
    EXPECT_NEAR(lmHeadForwardTime(model, 1024, 4, 1e12) * 4.0,
                lmHeadForwardTime(model, 1024, 1, 1e12), 1e-12);
}

TEST(Iteration, SpecValidation)
{
    const Cluster c = smallCluster();
    IterationSpec spec;
    EXPECT_THROW(simulateMicroBatch(c, spec), FatalError);
}

/** Random sparse plan: a few entries per source row, with local
 * (diagonal) traffic, repeated (expert, destination) cells and the
 * odd zero-token entry. */
RoutingPlanSparse
randomSparsePlan(int n, int e, Rng &rng)
{
    RoutingPlanSparse plan(n, e);
    for (DeviceId i = 0; i < n; ++i) {
        for (int t = rng.uniformInt(0, 2 * e); t > 0; --t) {
            const DeviceId dst = rng.uniformInt(0, 3) == 0
                                     ? i
                                     : rng.uniformInt(0, n - 1);
            plan.add(i, rng.uniformInt(0, e - 1), dst,
                     rng.uniformInt(0, 9) == 0 ? 0
                                               : rng.uniformInt(1, 5000));
        }
    }
    return plan;
}

/** The dense formula the micro-batch timeline priced a layer with
 * before it moved onto port loads: dispatch volume, expert-TP blur,
 * then the bottleneck fold of the volume and of its transpose. */
struct DenseLayerTraffic
{
    Seconds dispatch = 0.0;
    Seconds combine = 0.0;
};

DenseLayerTraffic
denseLayerTraffic(const Cluster &c, const RoutingPlan &plan,
                  Bytes bytes_per_token, int blur)
{
    const int n = c.numDevices();
    VolumeMatrix volume = plan.dispatchVolume(bytes_per_token);
    if (blur > 1) {
        VolumeMatrix blurred = zeroVolume(n);
        for (DeviceId i = 0; i < n; ++i)
            for (DeviceId k = 0; k < n; ++k) {
                const DeviceId base = (k / blur) * blur;
                for (int p = 0; p < blur; ++p)
                    blurred[i][base + p] += volume[i][k] / blur;
            }
        volume = std::move(blurred);
    }
    VolumeMatrix reverse = zeroVolume(n);
    for (DeviceId i = 0; i < n; ++i)
        for (DeviceId k = 0; k < n; ++k)
            reverse[k][i] = volume[i][k];
    return {a2aBottleneckTime(c, volume), a2aBottleneckTime(c, reverse)};
}

TEST(Iteration, PortLoadTrafficMatchesDenseFormula)
{
    const Bytes bytes_per_token = mixtral8x7bE8K2().tokenBytes();
    Rng rng(4242);
    for (const int nodes : {2, 4}) {
        for (const int per_node : {4, 8}) {
            const Cluster c(nodes, per_node, 300e9, 12.5e9, 140e12);
            const int n = c.numDevices();
            for (int trial = 0; trial < 20; ++trial) {
                const RoutingPlanSparse sparse =
                    randomSparsePlan(n, 8, rng);
                const RoutingPlan dense = sparse.toDense();
                EXPECT_EQ(sparse.receivedTokens(),
                          dense.receivedTokens());
                for (const int blur : {1, 2, 4, 8}) {
                    A2aPortLoads loads;
                    expertTpPortLoads(c, sparse, bytes_per_token, blur,
                                      loads);
                    const DenseLayerTraffic want = denseLayerTraffic(
                        c, dense, bytes_per_token, blur);
                    EXPECT_EQ(a2aBottleneckTimeFromLoads(c, loads),
                              want.dispatch)
                        << nodes << "x" << per_node << " blur " << blur;
                    EXPECT_EQ(a2aBottleneckTimeFromLoads(c, loads, true),
                              want.combine)
                        << nodes << "x" << per_node << " blur " << blur;
                }
            }
        }
    }
}

TEST(Iteration, DenseAndSparseSpecsPriceIdentically)
{
    const Cluster c(2, 8, 300e9, 12.5e9, 140e12);
    const ModelConfig model = mixtral8x7bE8K2();
    Rng rng(77);
    std::vector<RoutingPlanSparse> sparse;
    std::vector<RoutingPlan> dense;
    for (int l = 0; l < 3; ++l) {
        sparse.push_back(randomSparsePlan(c.numDevices(), 8, rng));
        dense.push_back(sparse.back().toDense());
    }
    for (const SystemKind system :
         {SystemKind::Laer, SystemKind::FsdpEp, SystemKind::Megatron}) {
        for (const int etp : {1, 2, 4}) {
            IterationSpec spec = baseSpec(model, {});
            spec.system = system;
            spec.tpDegree = 2;
            spec.expertTpDegree = etp;
            for (const RoutingPlan &p : dense)
                spec.layerPlans.push_back(&p);
            const MicroBatchResult from_dense =
                simulateMicroBatch(c, spec);
            spec.layerPlans.clear();
            for (const RoutingPlanSparse &p : sparse)
                spec.layerSparse.push_back(&p);
            const MicroBatchResult from_sparse =
                simulateMicroBatch(c, spec);
            EXPECT_EQ(from_dense.makespan, from_sparse.makespan);
            EXPECT_EQ(from_dense.a2aBusy, from_sparse.a2aBusy);
            EXPECT_EQ(from_dense.expertBusy, from_sparse.expertBusy);
            EXPECT_EQ(from_dense.othersBusy, from_sparse.othersBusy);
            EXPECT_EQ(from_dense.exposedPrefetch,
                      from_sparse.exposedPrefetch);
            EXPECT_EQ(from_dense.exposedGradSync,
                      from_sparse.exposedGradSync);
            // Both forms at once are ambiguous.
            spec.layerPlans.push_back(&dense[0]);
            EXPECT_THROW(simulateMicroBatch(c, spec), FatalError);
        }
    }
}

/** `%.17g` of the per-field sums of a run: equal strings mean every
 * summed quantity is bit-identical, which a table rounded to 0.1 ms
 * cannot show. */
std::string
trainingDigest(SystemKind system)
{
    const Cluster c = Cluster::a100(2, 8);
    SimulatorConfig cfg;
    cfg.model = mixtral8x7bE16K4();
    cfg.system = system;
    cfg.capacity = 4;
    cfg.seqLen = 4096;
    cfg.tokensPerDevice = 4096;
    cfg.globalBatchTokens = 2 * 4096 * c.numDevices();
    cfg.tpDegree = 2;
    cfg.megatronExpertTp = 2;
    cfg.simulatedLayers = 4;
    cfg.smartPeriod = 2;
    cfg.routing = RoutingModel::wikitext(c.numDevices(),
                                         cfg.model.numExperts,
                                         cfg.model.topK,
                                         cfg.tokensPerDevice);
    cfg.seed = 7;
    TrainingSimulator sim(c, cfg);
    double time = 0.0, a2a = 0.0, expert = 0.0, prefetch = 0.0,
           gradsync = 0.0, imbalance = 0.0;
    for (const IterationResult &r : sim.run(4)) {
        time += r.time;
        a2a += r.a2a;
        expert += r.expert;
        prefetch += r.exposedPrefetch;
        gradsync += r.exposedGradSync;
        imbalance += r.maxRelTokens;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%.17g %.17g %.17g %.17g %.17g %.17g",
                  time, a2a, expert, prefetch, gradsync, imbalance);
    return buf;
}

TEST(TrainingSimulator, PinnedDigestPerSystem)
{
    // Recorded before training moved onto the sparse routing plan; a
    // change that alters any priced time must re-record these on
    // purpose.
    EXPECT_EQ(trainingDigest(SystemKind::Laer),
              "18.94324604172742 1.3263481758870577 10.447848046740276 "
              "3.472874062583891 1.7746485988720369 5.1896209716796875");
    EXPECT_EQ(trainingDigest(SystemKind::FsdpEp),
              "25.01478059475982 11.317973922111129 10.447848046740271 "
              "0.0033815106258823571 1.324049957638376 "
              "6.269744873046875");
    EXPECT_EQ(trainingDigest(SystemKind::Megatron),
              "23.960838286748384 9.5385253777259731 10.447848046740273 "
              "0 2.0089566026830799 6.269744873046875");
    EXPECT_EQ(trainingDigest(SystemKind::FlexMoe),
              "21.226067959520723 2.3647511197857014 10.447848046740273 "
              "3.6169887993947509 2.7903956673158379 6.2389373779296875");
    EXPECT_EQ(trainingDigest(SystemKind::SmartMoe),
              "20.622684181175021 1.6761760165762891 10.447848046740273 "
              "3.4834645268850677 2.0155645331692296 5.4921722412109375");
}

} // namespace
} // namespace laer
