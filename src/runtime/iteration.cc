#include "runtime/iteration.hh"

#include <algorithm>

#include "comm/collectives.hh"
#include "core/error.hh"
#include "model/memory.hh"

namespace laer
{

const char *
systemName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Laer:
        return "LAER-MoE";
      case SystemKind::FsdpEp:
        return "FSDP+EP";
      case SystemKind::Megatron:
        return "Megatron";
      case SystemKind::FlexMoe:
        return "FlexMoE";
      case SystemKind::SmartMoe:
        return "SmartMoE";
    }
    return "?";
}

namespace
{

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

} // namespace

void
expertTpPortLoads(const Cluster &cluster, const RoutingPlanSparse &plan,
                  Bytes bytes_per_token, int etp, A2aPortLoads &out)
{
    const int n = plan.numDevices();
    LAER_ASSERT(etp >= 1 && n % etp == 0 && cluster.numDevices() == n,
                "expert TP blocks do not tile the cluster");
    out.reset(n);
    std::vector<Bytes> to(static_cast<std::size_t>(n), 0);
    for (DeviceId i = 0; i < n; ++i) {
        std::size_t count = 0;
        const RoutingPlanSparse::Entry *entries = plan.row(i, count);
        // Bytes this source sends each destination, over all experts.
        for (std::size_t t = 0; t < count; ++t)
            to[static_cast<std::size_t>(entries[t].dst)] +=
                entries[t].tokens * bytes_per_token;
        // Split each destination's sum over its block once, at its
        // first entry, and zero it for the next row.
        for (std::size_t t = 0; t < count; ++t) {
            const DeviceId k = entries[t].dst;
            Bytes &sum = to[static_cast<std::size_t>(k)];
            if (sum == 0)
                continue;
            const Bytes share = sum / etp;
            sum = 0;
            const DeviceId base = (k / etp) * etp;
            for (DeviceId peer = base; peer < base + etp; ++peer)
                if (peer != i)
                    out.add(cluster, i, peer, share);
        }
    }
}

Seconds
lmHeadForwardTime(const ModelConfig &model, TokenCount tokens,
                  int tp_degree, double compute_flops)
{
    return static_cast<double>(tokens) * 2.0 * model.hiddenDim *
           model.vocabSize / (compute_flops * tp_degree);
}

Seconds
optimizerStepTime(const ModelConfig &model, int n_devices)
{
    // Fully sharded Adam sweep: read+write params, grads, moments.
    const double bytes =
        static_cast<double>(model.totalParams()) * 2.0 *
        (model.bytesPerParam + kOptimizerBytesPerParam) / n_devices;
    return bytes / kHbmBandwidth;
}

MicroBatchResult
simulateMicroBatch(const Cluster &cluster, const IterationSpec &spec)
{
    LAER_CHECK(spec.model != nullptr, "spec needs a model");
    LAER_CHECK(spec.layerSparse.empty() != spec.layerPlans.empty(),
               "spec needs layer plans, sparse or dense");
    std::vector<RoutingPlanSparse> compressed;
    std::vector<const RoutingPlanSparse *> plans = spec.layerSparse;
    if (plans.empty()) {
        compressed.reserve(spec.layerPlans.size());
        for (const RoutingPlan *dense : spec.layerPlans) {
            compressed.push_back(RoutingPlanSparse::fromDense(*dense));
            plans.push_back(&compressed.back());
        }
    }
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
            model.nonExpertParamsPerLayer() * model.bytesPerParam);
    prefetch_dur *= contention;

    // Per-layer gradient synchronisation (reshard) duration.
    Seconds gradsync_dur = 0.0;
    if (fsep) {
        gradsync_dur = a2aUniformTime(cluster, allDevices(cluster),
                                      cap * expert_bytes / n) +
                       reduceScatterTime(
                           cluster, nodeGroup(cluster, 0),
                           model.nonExpertParamsPerLayer() *
                               model.bytesPerParam);
    } else if (spec.system == SystemKind::FsdpEp) {
        gradsync_dur =
            reduceScatterTime(cluster, nodeGroup(cluster, 0),
                              static_cast<Bytes>(cap) * expert_bytes) +
            reduceScatterTime(cluster, nodeGroup(cluster, 0),
                              model.nonExpertParamsPerLayer() *
                                  model.bytesPerParam);
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
                              model.bytesPerParam / tp);
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

} // namespace laer
