/**
 * @file
 * Tests for the iteration graph builder and its timing behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "comm/collectives.hh"
#include "core/error.hh"
#include "core/rng.hh"
#include "model/config.hh"
#include "oracle/dense_plan.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"
#include "runtime/iteration.hh"
#include "runtime/training_sim.hh"
#include "sim/engine.hh"
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

    // A negative token count gives attention and the LM head negative
    // durations, which the stream replay rejects.
    const ModelConfig model = mixtral8x7bE8K2();
    const RoutingPlan balanced = balancedPlan(c, 8, 1024);
    spec = baseSpec(model, {&balanced});
    spec.tokensPerDevice = -1;
    EXPECT_THROW(simulateMicroBatch(c, spec), FatalError);
}

/** Random sparse plan: a few entries per source row, with local
 * (diagonal) traffic, repeated (expert, destination) cells and the
 * odd zero-token entry. Tokens land only on devices [0, reach), so
 * with reach < n the others receive nothing. */
RoutingPlanSparse
randomSparsePlan(int n, int e, int reach, Rng &rng)
{
    RoutingPlanSparse plan(n, e);
    for (DeviceId i = 0; i < n; ++i) {
        for (int t = rng.uniformInt(0, 2 * e); t > 0; --t) {
            const DeviceId dst = (rng.uniformInt(0, 3) == 0
                                      ? i
                                      : rng.uniformInt(0, reach - 1)) %
                                 reach;
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
    VolumeMatrix volume = dispatchVolume(plan, bytes_per_token);
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
    return {a2aBottleneckTime(c, volume),
            a2aBottleneckTime(c, transposeVolume(volume))};
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
                    randomSparsePlan(n, 8, n, rng);
                const RoutingPlan dense = toDense(sparse);
                EXPECT_EQ(sparse.receivedTokens(), receivedTokens(dense));
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
        sparse.push_back(
            randomSparsePlan(c.numDevices(), 8, c.numDevices(), rng));
        dense.push_back(toDense(sparse.back()));
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

/* ---- The task-graph oracle ------------------------------------------ */

/** True for systems running on the FSEP executor. */
bool
usesFsep(SystemKind kind)
{
    return kind == SystemKind::Laer || kind == SystemKind::FlexMoe ||
           kind == SystemKind::SmartMoe;
}

/** Devices of the node hosting `d` (the FSDP shard group). */
std::vector<DeviceId>
nodeGroup(const Cluster &cluster, DeviceId d)
{
    std::vector<DeviceId> group;
    const DeviceId first = cluster.firstDeviceOf(cluster.node(d));
    for (int i = 0; i < cluster.devicesPerNode(); ++i)
        group.push_back(first + i);
    return group;
}

/** All device ids. */
std::vector<DeviceId>
allDevices(const Cluster &cluster)
{
    std::vector<DeviceId> group(cluster.numDevices());
    for (DeviceId d = 0; d < cluster.numDevices(); ++d)
        group[d] = d;
    return group;
}

/**
 * The micro-batch timeline as it was priced before the per-stream
 * clock replay: the same durations laid out as a SimEngine task graph
 * (about 4·layers·N tasks, each barrier depending on every device),
 * run, and read back by category. Takes sparse plans only.
 */
MicroBatchResult
microBatchOnTaskGraph(const Cluster &cluster, const IterationSpec &spec)
{
    const std::vector<const RoutingPlanSparse *> &plans = spec.layerSparse;
    const ModelConfig &model = *spec.model;
    const int n = cluster.numDevices();
    const int layers = static_cast<int>(plans.size());
    const double bcomp = cluster.computeFlops();
    const TokenCount s = spec.tokensPerDevice;
    const bool fsep = usesFsep(spec.system);
    const bool is_megatron = spec.system == SystemKind::Megatron;
    const int tp = is_megatron ? std::max(1, spec.tpDegree) : 1;

    // Contention applies unless prefetch is both relaxed and ordered
    // behind the token All-to-All (Fig. 5(a)/(c) "slowdown").
    const bool contended =
        !is_megatron &&
        !(spec.flags.relaxedPrefetch && spec.flags.prefetchAfterA2A);
    const double contention = contended ? kChannelContention : 1.0;

    // ---- Fixed durations -------------------------------------------------
    // Attention (+gate) per device; Megatron adds TP activation
    // all-reduces (two per layer in forward).
    Seconds attn_fwd = static_cast<double>(s) *
                       (model.attnFlopsPerToken(spec.seqLen) +
                        2.0 * model.numExperts * model.hiddenDim) /
                       bcomp;
    if (is_megatron)
        attn_fwd *= 1.0 + kTpInefficiency * (tp - 1);
    if (is_megatron) {
        const Bytes act_bytes = static_cast<Bytes>(s) * tp *
                                model.tokenBytes();
        const std::vector<DeviceId> node0 = nodeGroup(cluster, 0);
        LAER_CHECK(tp <= static_cast<int>(node0.size()),
                   "TP degree exceeds the node width");
        const std::vector<DeviceId> tp_group(node0.begin(),
                                             node0.begin() + tp);
        attn_fwd += 2.0 * allReduceTime(cluster, tp_group, act_bytes);
    }

    // LM head once per micro-batch (sharded by TP when present).
    const Seconds head_fwd = lmHeadForwardTime(model, s, tp, bcomp);

    // Expert parameter prefetch (unshard) per layer.
    Seconds prefetch_dur = 0.0;
    const Bytes expert_bytes = model.expertParamBytes();
    const int cap = spec.capacityHint;

    if (fsep) {
        const Bytes per_pair = cap * expert_bytes / n;
        prefetch_dur =
            a2aUniformTime(cluster, allDevices(cluster), per_pair);
    } else if (spec.system == SystemKind::FsdpEp) {
        prefetch_dur = allGatherTime(cluster, nodeGroup(cluster, 0),
                                     static_cast<Bytes>(cap) *
                                         expert_bytes);
    }
    // Attention parameters ride the same prefetch stream (FSDP-style
    // AllGather within the node group); Megatron keeps them resident.
    if (!is_megatron)
        prefetch_dur += allGatherTime(
            cluster, nodeGroup(cluster, 0),
            model.nonExpertParamsPerLayer() * kBytesPerParam);
    prefetch_dur *= contention;

    // Per-layer gradient synchronisation (reshard) duration.
    Seconds gradsync_dur = 0.0;
    if (fsep) {
        gradsync_dur = a2aUniformTime(cluster, allDevices(cluster),
                                      cap * expert_bytes / n) +
                       reduceScatterTime(
                           cluster, nodeGroup(cluster, 0),
                           model.nonExpertParamsPerLayer() *
                               kBytesPerParam);
    } else if (spec.system == SystemKind::FsdpEp) {
        gradsync_dur =
            reduceScatterTime(cluster, nodeGroup(cluster, 0),
                              static_cast<Bytes>(cap) * expert_bytes) +
            reduceScatterTime(cluster, nodeGroup(cluster, 0),
                              model.nonExpertParamsPerLayer() *
                                  kBytesPerParam);
    } else {
        // Megatron: expert grads all-reduce across the replicas of the
        // expert set (one device per EP group = the node group), and
        // attention grads all-reduce across DP ranks (cross-node).
        std::vector<DeviceId> dp_group;
        for (NodeId nd = 0; nd < cluster.numNodes(); ++nd)
            dp_group.push_back(cluster.firstDeviceOf(nd));
        gradsync_dur =
            allReduceTime(cluster, nodeGroup(cluster, 0),
                          static_cast<Bytes>(cap) * expert_bytes) +
            allReduceTime(cluster, dp_group,
                          model.nonExpertParamsPerLayer() *
                              kBytesPerParam / tp);
    }

    // ---- Per-layer traffic and expert compute --------------------------
    // Expert TP shares each expert's GEMMs across the contiguous
    // intra-node block of etp devices: the block's combined token load
    // is computed jointly, and its receive buffer is striped over the
    // block, spreading the hotspot.
    const int etp = is_megatron ? std::max(1, spec.expertTpDegree) : 1;
    LAER_CHECK(n % etp == 0,
               "expert TP degree must divide the device count");
    const Flops expert_flops = model.expertFlopsPerToken();
    std::vector<Seconds> dispatch_dur(layers), combine_dur(layers);
    std::vector<std::vector<Seconds>> expert_fwd(layers);
    A2aPortLoads loads;
    std::vector<TokenCount> recv;
    for (int l = 0; l < layers; ++l) {
        const RoutingPlanSparse &plan = *plans[l];
        expertTpPortLoads(cluster, plan, model.tokenBytes(), etp, loads);
        dispatch_dur[l] =
            a2aBottleneckTimeFromLoads(cluster, loads) * contention;
        combine_dur[l] = a2aBottleneckTimeFromLoads(cluster, loads,
                                                    /*transpose=*/true);
        plan.receivedTokens(recv);
        expert_fwd[l].resize(n);
        for (DeviceId d = 0; d < n; ++d) {
            TokenCount block = 0;
            const DeviceId base = (d / etp) * etp;
            for (int p = 0; p < etp; ++p)
                block += recv[base + p];
            expert_fwd[l][d] = static_cast<double>(block) *
                               expert_flops / (bcomp * etp);
        }
    }

    // ---- Build the task graph --------------------------------------------
    SimEngine engine(n);
    auto barrier = [&](const std::string &name, StreamKind stream,
                       Seconds dur, const std::vector<TaskId> &deps,
                       const std::string &cat) {
        std::vector<TaskId> ids(n);
        for (DeviceId d = 0; d < n; ++d)
            ids[d] = engine.addTask(name, d, stream, dur, deps, cat);
        return ids;
    };

    std::vector<std::vector<TaskId>> attn(layers), dispatch(layers),
        expert(layers), combine(layers), pf(layers);

    // Forward pass.
    for (int l = 0; l < layers; ++l) {
        // Expert parameter prefetch for this layer.
        if (prefetch_dur > 0.0) {
            pf[l].resize(n);
            for (DeviceId d = 0; d < n; ++d) {
                std::vector<TaskId> deps;
                if (l > 0) {
                    if (spec.flags.relaxedPrefetch &&
                        spec.flags.prefetchAfterA2A)
                        deps.push_back(dispatch[l - 1][d]);
                    else if (spec.flags.relaxedPrefetch)
                        deps.push_back(attn[l - 1][d]);
                    else
                        deps.push_back(combine[l - 1][d]);
                }
                pf[l][d] = engine.addTask("pf_fwd", d,
                                          StreamKind::Prefetch,
                                          prefetch_dur, deps,
                                          "prefetch");
            }
        }

        attn[l].resize(n);
        for (DeviceId d = 0; d < n; ++d) {
            std::vector<TaskId> deps;
            if (l > 0)
                deps.push_back(combine[l - 1][d]);
            attn[l][d] = engine.addTask("attn_fwd", d,
                                        StreamKind::Compute, attn_fwd,
                                        deps, "others");
        }

        std::vector<TaskId> a2a_deps;
        for (DeviceId d = 0; d < n; ++d)
            a2a_deps.push_back(attn[l][d]);
        dispatch[l] = barrier("dispatch_fwd", StreamKind::Dispatch,
                              dispatch_dur[l], a2a_deps, "a2a");

        expert[l].resize(n);
        for (DeviceId d = 0; d < n; ++d) {
            std::vector<TaskId> deps{dispatch[l][d]};
            if (!pf[l].empty())
                deps.push_back(pf[l][d]);
            expert[l][d] = engine.addTask("expert_fwd", d,
                                          StreamKind::Compute,
                                          expert_fwd[l][d], deps,
                                          "expert");
        }

        std::vector<TaskId> comb_deps;
        for (DeviceId d = 0; d < n; ++d)
            comb_deps.push_back(expert[l][d]);
        combine[l] = barrier("combine_fwd", StreamKind::Dispatch,
                             combine_dur[l], comb_deps, "a2a");
    }

    // LM head forward + backward (the turnaround point).
    std::vector<TaskId> head_fwd_ids(n), head_bwd_ids(n);
    for (DeviceId d = 0; d < n; ++d)
        head_fwd_ids[d] =
            engine.addTask("head_fwd", d, StreamKind::Compute, head_fwd,
                           {combine[layers - 1][d]}, "others");
    for (DeviceId d = 0; d < n; ++d)
        head_bwd_ids[d] =
            engine.addTask("head_bwd", d, StreamKind::Compute,
                           2.0 * head_fwd, {head_fwd_ids[d]}, "others");

    // Backward pass (layer order reversed). Recompute granularity
    // (Sec. 4): expert-only re-runs the expert GEMMs using the tokens
    // already dispatched; full recompute must re-issue the token
    // All-to-All as well — the overhead LAER-MoE's fine-grained option
    // exists to avoid.
    const bool recompute_expert =
        spec.checkpointing &&
        (spec.recompute == RecomputeMode::ExpertOnly ||
         spec.recompute == RecomputeMode::Full);
    const bool recompute_attn =
        spec.checkpointing &&
        (spec.recompute == RecomputeMode::AttentionOnly ||
         spec.recompute == RecomputeMode::Full);
    const bool recompute_a2a =
        spec.checkpointing && spec.recompute == RecomputeMode::Full;

    std::vector<TaskId> prev_attn_bwd = head_bwd_ids;
    std::vector<std::vector<TaskId>> bwd_dispatch(layers),
        bwd_pf(layers);
    for (int l = layers - 1; l >= 0; --l) {
        // Backward unshard prefetch for this layer's experts.
        if (prefetch_dur > 0.0) {
            bwd_pf[l].resize(n);
            for (DeviceId d = 0; d < n; ++d) {
                std::vector<TaskId> deps;
                if (l < layers - 1) {
                    if (spec.flags.relaxedPrefetch)
                        deps.push_back(bwd_dispatch[l + 1][d]);
                    else
                        deps.push_back(prev_attn_bwd[d]);
                }
                bwd_pf[l][d] = engine.addTask("pf_bwd", d,
                                              StreamKind::Prefetch,
                                              prefetch_dur, deps,
                                              "prefetch");
            }
        }

        std::vector<TaskId> grad_in_deps = prev_attn_bwd;
        bwd_dispatch[l] = barrier("dispatch_bwd", StreamKind::Dispatch,
                                  combine_dur[l], grad_in_deps, "a2a");

        // Full recompute re-dispatches the forward tokens before the
        // expert pass can be replayed.
        std::vector<TaskId> expert_ready = bwd_dispatch[l];
        if (recompute_a2a)
            expert_ready = barrier("recomp_dispatch",
                                   StreamKind::Dispatch,
                                   dispatch_dur[l], expert_ready,
                                   "a2a");

        // Expert backward: 2x forward, +1x when experts recompute.
        const double bwd_factor = 2.0 + (recompute_expert ? 1.0 : 0.0);
        std::vector<TaskId> expert_bwd(n);
        for (DeviceId d = 0; d < n; ++d) {
            std::vector<TaskId> deps{expert_ready[d]};
            if (!bwd_pf[l].empty())
                deps.push_back(bwd_pf[l][d]);
            expert_bwd[d] = engine.addTask(
                "expert_bwd", d, StreamKind::Compute,
                bwd_factor * expert_fwd[l][d], deps, "expert");
        }

        // Gradient resharding / synchronisation.
        if (spec.withGradSync && gradsync_dur > 0.0) {
            for (DeviceId d = 0; d < n; ++d) {
                const StreamKind stream = spec.flags.delayedGradSync
                                              ? StreamKind::GradSync
                                              : StreamKind::Compute;
                engine.addTask("gradsync", d, stream, gradsync_dur,
                               {expert_bwd[d]}, "gradsync");
            }
        }

        std::vector<TaskId> comb_deps = expert_bwd;
        const std::vector<TaskId> bwd_combine =
            barrier("combine_bwd", StreamKind::Dispatch,
                    dispatch_dur[l], comb_deps, "a2a");

        const double attn_bwd_factor =
            2.0 + (recompute_attn ? 1.0 : 0.0);
        std::vector<TaskId> attn_bwd(n);
        for (DeviceId d = 0; d < n; ++d)
            attn_bwd[d] = engine.addTask("attn_bwd", d,
                                         StreamKind::Compute,
                                         attn_bwd_factor * attn_fwd,
                                         {bwd_combine[d]}, "others");
        prev_attn_bwd = attn_bwd;
    }

    engine.run();

    MicroBatchResult result;
    result.makespan = engine.makespan();
    const auto busy = engine.categoryBusyPerDevice();
    auto get = [&](const char *key) {
        const auto it = busy.find(key);
        return it == busy.end() ? 0.0 : it->second;
    };
    result.a2aBusy = get("a2a");
    result.expertBusy = get("expert");
    result.othersBusy = get("others");
    result.exposedPrefetch = engine.exposedTime("prefetch");
    result.exposedGradSync = engine.exposedTime("gradsync");
    return result;
}

TEST(Iteration, ClockReplayMatchesTaskGraph)
{
    const ModelConfig model = mixtral8x7bE8K2();
    const Cluster clusters[] = {Cluster(1, 4, 300e9, 12.5e9, 140e12),
                                Cluster(2, 4, 300e9, 12.5e9, 140e12),
                                Cluster(2, 8, 300e9, 12.5e9, 140e12)};
    const RecomputeMode modes[] = {
        RecomputeMode::None, RecomputeMode::ExpertOnly,
        RecomputeMode::AttentionOnly, RecomputeMode::Full};
    // Megatron has no prefetch; expert TP is Megatron's alone.
    const std::pair<SystemKind, int> systems[] = {
        {SystemKind::Laer, 1},     {SystemKind::FsdpEp, 1},
        {SystemKind::Megatron, 1}, {SystemKind::Megatron, 2},
        {SystemKind::Megatron, 4}};
    const TokenCount tokens[] = {0, 1024, 8192};
    const int kCases = 8 * 4 * 2 * 2 * 5 * 4;
    Rng rng(22);
    for (int k = 0; k < kCases; ++k) {
        // Digit by digit, k picks one combination of schedule flags,
        // recompute mode, checkpointing, grad sync, system and layer
        // count, so every combination runs once.
        int rest = k;
        const auto digit = [&rest](int radix) {
            const int v = rest % radix;
            rest /= radix;
            return v;
        };
        const int bits = digit(8);
        const RecomputeMode mode = modes[digit(4)];
        const bool ckpt = digit(2) == 1;
        const bool grad_sync = digit(2) == 1;
        const auto [system, etp] = systems[digit(5)];
        const int layers = 1 + digit(4);

        const Cluster &c = clusters[rng.uniformInt(0, 2)];
        const int n = c.numDevices();
        std::vector<RoutingPlanSparse> plans;
        for (int l = 0; l < layers; ++l)
            plans.push_back(randomSparsePlan(n, model.numExperts,
                                             rng.uniformInt(1, n), rng));
        IterationSpec spec;
        spec.model = &model;
        spec.system = system;
        spec.flags = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
        spec.checkpointing = ckpt;
        spec.recompute = mode;
        spec.seqLen = 4096;
        spec.tokensPerDevice = tokens[rng.uniformInt(0, 2)];
        spec.tpDegree = 2;
        spec.expertTpDegree = etp;
        spec.capacityHint = rng.uniformInt(1, 3);
        spec.withGradSync = grad_sync;
        for (const RoutingPlanSparse &p : plans)
            spec.layerSparse.push_back(&p);

        const MicroBatchResult got = simulateMicroBatch(c, spec);
        const MicroBatchResult want = microBatchOnTaskGraph(c, spec);
        const std::string where =
            "case " + std::to_string(k) + " (" + systemName(system) +
            ", " + std::to_string(n) + " devices)";
        EXPECT_EQ(got.makespan, want.makespan) << where;
        EXPECT_EQ(got.a2aBusy, want.a2aBusy) << where;
        EXPECT_EQ(got.expertBusy, want.expertBusy) << where;
        EXPECT_EQ(got.othersBusy, want.othersBusy) << where;
        EXPECT_EQ(got.exposedPrefetch, want.exposedPrefetch) << where;
        EXPECT_EQ(got.exposedGradSync, want.exposedGradSync) << where;
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
