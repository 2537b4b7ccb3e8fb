#include "runtime/iteration.hh"

#include <algorithm>

#include "comm/collectives.hh"
#include "core/error.hh"
#include "model/memory.hh"
#include "sim/engine.hh"

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

/** Wire-op inflation of the spec's schedule: contention applies
 * unless prefetch is both relaxed and ordered behind the token
 * All-to-All (Fig. 5(a)/(c) "slowdown"); Megatron prefetches nothing. */
double
channelContention(const IterationSpec &spec)
{
    const bool contended =
        spec.system != SystemKind::Megatron &&
        !(spec.flags.relaxedPrefetch && spec.flags.prefetchAfterA2A);
    return contended ? kChannelContention : 1.0;
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
        (kBytesPerParam + kOptimizerBytesPerParam) / n_devices;
    return bytes / kHbmBandwidth;
}

int
expertTpDegree(const IterationSpec &spec, int n_devices)
{
    const int etp = spec.system == SystemKind::Megatron
                        ? std::max(1, spec.expertTpDegree)
                        : 1;
    LAER_CHECK(n_devices % etp == 0,
               "expert TP degree must divide the device count");
    return etp;
}

void
priceLayer(const Cluster &cluster, const IterationSpec &spec,
           const std::vector<TokenCount> &recv, const A2aPortLoads &loads,
           LayerTiming &out)
{
    LAER_CHECK(spec.model != nullptr, "spec needs a model");
    const int n = cluster.numDevices();
    // Expert TP shares each expert's GEMMs across the contiguous
    // intra-node block of etp devices: the block's combined token load
    // is computed jointly, and its receive buffer is striped over the
    // block (expertTpPortLoads), spreading the hotspot.
    const int etp = expertTpDegree(spec, n);
    const double bcomp = cluster.computeFlops();
    const Flops expert_flops = spec.model->expertFlopsPerToken();
    out.dispatch = a2aBottleneckTimeFromLoads(cluster, loads) *
                   channelContention(spec);
    out.combine = a2aBottleneckTimeFromLoads(cluster, loads,
                                             /*transpose=*/true);
    out.expertFwd.resize(static_cast<std::size_t>(n));
    for (DeviceId d = 0; d < n; ++d) {
        TokenCount block = 0;
        const DeviceId base = (d / etp) * etp;
        for (int p = 0; p < etp; ++p)
            block += recv[base + p];
        out.expertFwd[d] =
            static_cast<double>(block) * expert_flops / (bcomp * etp);
    }
}

namespace
{

/** priceLayer on every layer plan of `spec` (layerSparse, or
 * layerPlans compressed once). Throws FatalError for a spec without
 * exactly one of them. */
std::vector<LayerTiming>
priceLayers(const Cluster &cluster, const IterationSpec &spec)
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
    const int etp = expertTpDegree(spec, cluster.numDevices());
    std::vector<LayerTiming> timings(plans.size());
    A2aPortLoads loads;
    std::vector<TokenCount> recv;
    for (std::size_t l = 0; l < plans.size(); ++l) {
        expertTpPortLoads(cluster, *plans[l], spec.model->tokenBytes(), etp,
                          loads);
        plans[l]->receivedTokens(recv);
        priceLayer(cluster, spec, recv, loads, timings[l]);
    }
    return timings;
}

} // namespace

MicroBatchResult
simulateMicroBatch(const Cluster &cluster, const IterationSpec &spec)
{
    return replayMicroBatch(cluster, spec, priceLayers(cluster, spec));
}

MicroBatchResult
replayMicroBatch(const Cluster &cluster, const IterationSpec &spec,
                 const std::vector<LayerTiming> &timings)
{
    LAER_CHECK(spec.model != nullptr, "spec needs a model");
    const ModelConfig &model = *spec.model;
    const int n = cluster.numDevices();
    const int layers = static_cast<int>(timings.size());
    const double bcomp = cluster.computeFlops();
    const TokenCount s = spec.tokensPerDevice;
    const bool fsep = usesFsep(spec.system);
    const bool is_megatron = spec.system == SystemKind::Megatron;
    const int tp = is_megatron ? std::max(1, spec.tpDegree) : 1;
    const double contention = channelContention(spec);

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

    // ---- Replay the launch order on per-stream clocks -------------------
    // Each device runs in-order streams (Fig. 5): a task starts at
    // max(latest dependency, its stream's tail) and its finish becomes
    // the tail. Every device enters and leaves each All-to-All barrier
    // together, so one clock is the dispatch stream of all of them.
    // Busy sums add one term per task in launch order, n per barrier,
    // so they round exactly as a per-task sum does.
    std::vector<Seconds> compute(n, 0.0), prefetch(n, 0.0),
        gradsync(n, 0.0);
    Seconds a2a = 0.0;
    Seconds a2a_sum = 0.0, expert_sum = 0.0, others_sum = 0.0;
    // Every busy list's length is known from the layer count: per
    // device at most attention and expert per forward layer, the head
    // twice, and expert, attention and an inline gradient sync per
    // backward layer (the stride of the flat compute array); n
    // prefetches per layer each way; n syncs per layer.
    DeviceBusy compute_busy(n, 5 * static_cast<std::size_t>(layers) + 2);
    std::vector<BusyInterval> prefetch_busy, gradsync_busy;
    const auto layer_tasks = static_cast<std::size_t>(layers) *
                             static_cast<std::size_t>(n);
    if (prefetch_dur > 0.0)
        prefetch_busy.reserve(2 * layer_tasks);
    if (spec.withGradSync && gradsync_dur > 0.0)
        gradsync_busy.reserve(layer_tasks);
    auto launch = [](Seconds &tail, Seconds ready, Seconds dur) {
        LAER_CHECK(dur >= 0.0, "negative task duration");
        const Seconds start = std::max(ready, tail);
        tail = start + dur;
        return BusyInterval{start, tail};
    };
    auto run_compute = [&](DeviceId d, Seconds ready, Seconds dur) {
        const BusyInterval iv = launch(compute[d], ready, dur);
        if (dur > 0.0)
            compute_busy.push(d, iv);
        return iv.hi;
    };
    auto run_prefetch = [&](DeviceId d, Seconds ready) {
        prefetch_busy.push_back(launch(prefetch[d], ready, prefetch_dur));
        return prefetch_busy.back().hi;
    };
    // An All-to-All on every device once the last of them is ready.
    auto barrier = [&](Seconds ready, Seconds dur) {
        launch(a2a, ready, dur);
        for (DeviceId d = 0; d < n; ++d)
            a2a_sum += dur;
        return a2a;
    };

    // Forward pass. `pf` stays 0 without prefetch, which no task
    // waits on.
    std::vector<Seconds> attn(n), pf(n, 0.0);
    Seconds dispatch = 0.0, combine = 0.0;
    for (int l = 0; l < layers; ++l) {
        // Expert parameter prefetch for this layer.
        if (prefetch_dur > 0.0) {
            for (DeviceId d = 0; d < n; ++d) {
                Seconds ready = 0.0;
                if (l > 0) {
                    if (spec.flags.relaxedPrefetch &&
                        spec.flags.prefetchAfterA2A)
                        ready = dispatch;
                    else if (spec.flags.relaxedPrefetch)
                        ready = attn[d];
                    else
                        ready = combine;
                }
                pf[d] = run_prefetch(d, ready);
            }
        }

        Seconds ready = 0.0;
        for (DeviceId d = 0; d < n; ++d) {
            attn[d] = run_compute(d, combine, attn_fwd);
            others_sum += attn_fwd;
            ready = std::max(ready, attn[d]);
        }
        dispatch = barrier(ready, timings[l].dispatch);

        ready = 0.0;
        for (DeviceId d = 0; d < n; ++d) {
            ready = std::max(ready,
                             run_compute(d, std::max(dispatch, pf[d]),
                                         timings[l].expertFwd[d]));
            expert_sum += timings[l].expertFwd[d];
        }
        combine = barrier(ready, timings[l].combine);
    }

    // LM head forward + backward (the turnaround point). From here
    // `done` holds each device's latest compute finish.
    std::vector<Seconds> done(n);
    for (DeviceId d = 0; d < n; ++d) {
        done[d] = run_compute(d, combine, head_fwd);
        others_sum += head_fwd;
    }
    for (DeviceId d = 0; d < n; ++d) {
        done[d] = run_compute(d, done[d], 2.0 * head_fwd);
        others_sum += 2.0 * head_fwd;
    }

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
    // Expert backward: 2x forward, +1x when experts recompute.
    const double bwd_factor = 2.0 + (recompute_expert ? 1.0 : 0.0);
    const double attn_bwd_factor = 2.0 + (recompute_attn ? 1.0 : 0.0);

    Seconds bwd_dispatch = 0.0;
    for (int l = layers - 1; l >= 0; --l) {
        // Backward unshard prefetch for this layer's experts.
        if (prefetch_dur > 0.0) {
            for (DeviceId d = 0; d < n; ++d) {
                Seconds ready = 0.0;
                if (l < layers - 1)
                    ready = spec.flags.relaxedPrefetch ? bwd_dispatch
                                                       : done[d];
                pf[d] = run_prefetch(d, ready);
            }
        }

        Seconds ready = 0.0;
        for (DeviceId d = 0; d < n; ++d)
            ready = std::max(ready, done[d]);
        bwd_dispatch = barrier(ready, timings[l].combine);

        // Full recompute re-dispatches the forward tokens before the
        // expert pass can be replayed.
        Seconds expert_ready = bwd_dispatch;
        if (recompute_a2a)
            expert_ready = barrier(expert_ready, timings[l].dispatch);

        ready = 0.0;
        for (DeviceId d = 0; d < n; ++d) {
            const Seconds dur = bwd_factor * timings[l].expertFwd[d];
            done[d] = run_compute(d, std::max(expert_ready, pf[d]), dur);
            expert_sum += dur;
            ready = std::max(ready, done[d]);
        }

        // Gradient resharding / synchronisation: delayed, on its own
        // stream; otherwise it holds up the compute stream.
        const bool own_stream = spec.flags.delayedGradSync;
        if (spec.withGradSync && gradsync_dur > 0.0) {
            for (DeviceId d = 0; d < n; ++d) {
                gradsync_busy.push_back(
                    launch(own_stream ? gradsync[d] : compute[d], done[d],
                           gradsync_dur));
                if (!own_stream)
                    compute_busy.push(d, gradsync_busy.back());
            }
        }

        const Seconds bwd_combine = barrier(ready, timings[l].dispatch);
        for (DeviceId d = 0; d < n; ++d) {
            done[d] = run_compute(d, bwd_combine,
                                  attn_bwd_factor * attn_fwd);
            others_sum += attn_bwd_factor * attn_fwd;
        }
    }

    // Each stream's tail is its latest finish.
    Seconds end = a2a;
    for (DeviceId d = 0; d < n; ++d)
        end = std::max({end, compute[d], prefetch[d], gradsync[d]});

    MicroBatchResult result;
    result.makespan = end;
    result.a2aBusy = a2a_sum / n;
    result.expertBusy = expert_sum / n;
    result.othersBusy = others_sum / n;
    result.exposedPrefetch =
        foldExposedTime(prefetch_busy, compute_busy, end);
    result.exposedGradSync =
        foldExposedTime(gradsync_busy, compute_busy, end);
    return result;
}

} // namespace laer
