#include "serve/engine.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "comm/collectives.hh"
#include "core/error.hh"
#include "core/stats.hh"
#include "core/thread_pool.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "runtime/iteration.hh"

namespace laer
{

const char *
engineStateName(EngineState state)
{
    switch (state) {
      case EngineState::Loading:
        return "loading";
      case EngineState::Active:
        return "active";
      case EngineState::Draining:
        return "draining";
      case EngineState::Stopped:
        return "stopped";
    }
    return "?";
}

const char *
servingPolicyName(ServingPolicy policy)
{
    switch (policy) {
      case ServingPolicy::LaerServe:
        return "LAER";
      case ServingPolicy::StaticEp:
        return "StaticEP";
      case ServingPolicy::FlexMoe:
        return "FlexMoE";
      case ServingPolicy::Disaggregated:
        return "Disagg";
    }
    return "?";
}

Seconds
stepTimelineMakespan(Seconds attn, const std::vector<Seconds> &dispatch,
                     const std::vector<Seconds> &combine,
                     const std::vector<std::vector<TokenCount>> &recv,
                     Flops expert_flops_per_token, double compute_flops)
{
    Seconds clock = 0.0;
    for (std::size_t l = 0; l < recv.size(); ++l) {
        bool valid = attn >= 0.0 && dispatch[l] >= 0.0 && combine[l] >= 0.0;
        Seconds slowest = 0.0;
        for (TokenCount tokens : recv[l]) {
            const Seconds expert = static_cast<double>(tokens) *
                                   expert_flops_per_token / compute_flops;
            valid = valid && expert >= 0.0;
            slowest = std::max(slowest, expert);
        }
        LAER_CHECK(valid, "negative or NaN step duration in layer " << l);
        clock += attn;
        clock += dispatch[l];
        clock += slowest;
        clock += combine[l];
    }
    return clock;
}

namespace
{

/** Scheduler + kernel-launch cost charged per engine step. */
constexpr Seconds kStepOverhead = 2e-3;

/** EP group structure (only meaningful for the StaticEp policy). */
EpGrouping
makeGrouping(const Cluster &topo, const EngineConfig &config)
{
    if (config.policy != ServingPolicy::StaticEp)
        return EpGrouping(topo, 1, false);
    const int experts = config.model.numExperts;
    LAER_CHECK(experts % config.capacity == 0,
               "StaticEP needs capacity to divide the expert count");
    const int ep_degree = experts / config.capacity;
    LAER_CHECK(topo.numDevices() % ep_degree == 0,
               "StaticEP needs the EP degree to divide the pool");
    return EpGrouping(topo, ep_degree, true);
}

} // namespace

ServingEngine::ServingEngine(const DevicePoolSlice &slice,
                             const EngineConfig &config,
                             EngineState initial)
    : slice_(slice), config_(config), batcher_(config.batcher),
      state_(initial), grouping_(makeGrouping(slice_.topo, config_))
{
    LAER_CHECK(initial == EngineState::Active ||
                   initial == EngineState::Loading,
               "an engine is born Active or Loading, not "
                   << engineStateName(initial));
    LAER_CHECK(config_.policy != ServingPolicy::Disaggregated,
               "Disaggregated is a simulator topology, not a pool "
               "layout policy");
    const int experts = config_.model.numExperts;
    for (int l = 0; l < config_.simulatedLayers; ++l) {
        RoutingModel m = config_.routing;
        m.seed = config_.seed + 7919ULL * static_cast<std::uint64_t>(l);
        generators_.emplace_back(m);
        aggRouting_.emplace_back(slice_.numDevices(), experts);
    }

    // Per-layer hot-path scratch (engine.hh: sparse step pricing).
    const auto layers =
        static_cast<std::size_t>(config_.simulatedLayers);
    replicaIndex_.resize(layers);
    indexDirty_.assign(layers, 1);
    sparsePlans_.resize(layers);
    liteScratch_.resize(layers);
    portLoads_.resize(layers);
    recvTokens_.resize(layers);
    recvDouble_.resize(layers);
    layerDispatch_.assign(layers, 0.0);
    layerCombine_.assign(layers, 0.0);
    layerImbalance_.assign(layers, 0.0);

    switch (config_.policy) {
      case ServingPolicy::StaticEp:
        layouts_.assign(config_.simulatedLayers,
                        staticEpLayout(slice_.topo, experts, grouping_));
        break;
      case ServingPolicy::LaerServe:
        layouts_.assign(config_.simulatedLayers,
                        evenLayout(slice_.topo, experts,
                                   config_.capacity));
        break;
      case ServingPolicy::FlexMoe: {
        FlexMoeConfig fc;
        fc.capacity = config_.capacity;
        fc.expertBytes = config_.model.expertParamBytes();
        fc.cost = config_.tuner.cost;
        for (int l = 0; l < config_.simulatedLayers; ++l) {
            flexPlanners_.push_back(std::make_unique<FlexMoePlanner>(
                slice_.topo, experts, fc));
            layouts_.push_back(flexPlanners_.back()->layout());
        }
        break;
      }
      case ServingPolicy::Disaggregated:
        break; // rejected above
    }
}

ServingEngine::~ServingEngine() = default;

void
ServingEngine::setReady()
{
    LAER_CHECK(state_ == EngineState::Loading,
               "setReady on a " << engineStateName(state_)
                                << " engine");
    state_ = EngineState::Active;
}

void
ServingEngine::beginDrain()
{
    LAER_CHECK(accepting(), "beginDrain on a " << engineStateName(state_)
                                               << " engine");
    state_ = EngineState::Draining;
    batcher_.setAdmissionPaused(true);
}

std::vector<Request>
ServingEngine::drain()
{
    if (state_ != EngineState::Draining)
        beginDrain();
    std::vector<Request> evicted = batcher_.drainAll();
    state_ = EngineState::Stopped;
    return evicted;
}

void
ServingEngine::setLayouts(const std::vector<ExpertLayout> &layouts)
{
    LAER_CHECK(layouts.size() == layouts_.size(),
               "layout layer count mismatch");
    for (const ExpertLayout &layout : layouts)
        LAER_CHECK(layout.numDevices() == slice_.numDevices() &&
                       layout.numExperts() == config_.model.numExperts,
                   "adopted layout does not match the pool geometry");
    layouts_ = layouts;
    invalidateIndexes();
}

void
ServingEngine::invalidateIndexes()
{
    std::fill(indexDirty_.begin(), indexDirty_.end(), 1);
}

void
ServingEngine::runLayers(const std::function<void(int)> &fn)
{
    if (config_.pool != nullptr) {
        config_.pool->parallelFor(config_.simulatedLayers, fn);
        return;
    }
    for (int l = 0; l < config_.simulatedLayers; ++l)
        fn(l);
}

void
ServingEngine::addExternalRouting(
    const std::vector<RoutingMatrix> &routing)
{
    LAER_CHECK(routing.size() == aggRouting_.size(),
               "external routing layer count mismatch");
    for (int l = 0; l < config_.simulatedLayers; ++l) {
        LAER_CHECK(routing[l].numDevices() == slice_.numDevices() &&
                       routing[l].numExperts() ==
                           config_.model.numExperts,
                   "external routing does not match the pool geometry");
        aggRouting_[l].accumulate(routing[l]);
    }
}

Seconds
ServingEngine::updateLayouts(const std::vector<RoutingMatrix> &routing,
                             ServingStepResult &result)
{
    switch (config_.policy) {
      case ServingPolicy::StaticEp:
        return 0.0;

      case ServingPolicy::LaerServe: {
        // Asynchronous re-tune from the PREVIOUS window's aggregated
        // routing (paper Fig. 7): the CPU solver works off observed
        // traffic while steps keep executing, and FSEP restores the
        // new replicas from parameter shards without a stall. A
        // follower engine (shared-layout disaggregation) skips the
        // tune and waits for setLayouts(). Layers tune independently,
        // so the solve fans out over the configured pool; each layer
        // writes only its own slots, keeping the outcome identical
        // for any thread count.
        if (config_.tuningEnabled && stepIndex_ > 0 &&
            stepIndex_ % config_.retunePeriod == 0) {
            const auto wall_start =
                std::chrono::steady_clock::now();
            runLayers([&](int l) {
                const auto li = static_cast<std::size_t>(l);
                LayoutDecision dec = tuneExpertLayout(
                    slice_.topo, aggRouting_[li], config_.tuner);
                layouts_[li] = std::move(dec.layout);
                replicaIndex_[li] = std::move(dec.index);
                indexDirty_[li] = 0;
                aggRouting_[li].clear();
            });
            lastRetune_.simTime = result.start;
            lastRetune_.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
            lastRetune_.overBudget =
                config_.tunerBudgetMs > 0.0 &&
                lastRetune_.wallMs > config_.tunerBudgetMs;
            result.retuned = true;
            ++retunes_;
        }
        for (int l = 0; l < config_.simulatedLayers; ++l)
            aggRouting_[l].accumulate(routing[l]);
        return 0.0;
      }

      case ServingPolicy::FlexMoe: {
        // Incremental adjustment; the migration time lands on the
        // serving critical path (no FSEP to hide behind).
        Seconds migration = 0.0;
        for (int l = 0; l < config_.simulatedLayers; ++l) {
            migration += flexPlanners_[l]->update(routing[l])
                             .migrationTime;
            layouts_[l] = flexPlanners_[l]->layout();
        }
        invalidateIndexes();
        return migration;
      }

      case ServingPolicy::Disaggregated:
        break; // unreachable: rejected at construction
    }
    return 0.0;
}

StepWork
stepWork(const ModelConfig &model, const BatchPlan &plan)
{
    StepWork work;
    work.decode = plan.decoders;
    work.sampled = plan.decoders;
    work.attnFlops =
        static_cast<double>(plan.decoders) * model.attnFlopsPerToken(0) +
        2.0 * model.numHeads * model.headDim *
            static_cast<double>(plan.decodeContext);
    for (const BatchEntry &e : plan.entries) {
        work.prefill += e.prefillTokens;
        work.decode += e.decodeTokens;
        work.attnFlops +=
            static_cast<double>(e.prefillTokens + e.decodeTokens) *
            model.attnFlopsPerToken(static_cast<int>(e.context));
        work.sampled += e.emitsToken ? 1 : 0;
    }
    work.tokens = work.prefill + work.decode;
    LAER_ASSERT(work.attnFlops < 0x1p53,
                "attention flops " << work.attnFlops
                                   << " leave the exact-integer range");
    return work;
}

ServingStepResult
ServingEngine::executeStep(const BatchPlan &plan, Seconds start)
{
    const Cluster &topo = slice_.topo;
    const int n = topo.numDevices();
    const int layers = config_.simulatedLayers;
    const ModelConfig &model = config_.model;

    ServingStepResult res;
    res.start = start;

    // The token counts and the attention work of the step (the batch
    // is data parallel; only expert work is layout dependent).
    // Sequences emitting a token this step also pay one LM-head
    // forward.
    const StepWork work = stepWork(model, plan);
    res.tokens = work.tokens;
    res.prefill = work.prefill;
    res.decode = work.decode;
    Flops attn_flops = work.attnFlops;

    // Data-parallel batch shard: spread tokens over devices, rotating
    // the remainder so no device systematically runs long.
    std::vector<TokenCount> share(n, res.tokens / n);
    for (TokenCount i = 0; i < res.tokens % n; ++i)
        share[(stepIndex_ + static_cast<int>(i)) % n] += 1;

    // Per-layer gating under the drifting popularity model. Each
    // layer owns its generator, so the draw fans out over the pool.
    lastRouting_.assign(static_cast<std::size_t>(layers),
                        RoutingMatrix());
    runLayers([&](int l) {
        lastRouting_[static_cast<std::size_t>(l)] =
            generators_[static_cast<std::size_t>(l)].nextForTokens(
                share);
    });
    const std::vector<RoutingMatrix> &routing = lastRouting_;

    res.migration = updateLayouts(routing, res);

    // Per-layer route + price fan-out into the reusable scratch
    // slots: received tokens and dispatch port loads per layer (the
    // dense S and volume matrices never exist). The lite-routed
    // policies price straight from the layout's replica index with the
    // plan-free kernel; StaticEp routes its fixed in-group rule into a
    // sparse plan. All sums are exact integers, so the priced times
    // are bit-identical to the dense formulation.
    runLayers([&](int l) {
        const auto li = static_cast<std::size_t>(l);
        if (config_.policy == ServingPolicy::StaticEp) {
            staticEpRoutingSparse(routing[li], grouping_, layouts_[li],
                                  sparsePlans_[li]);
            sparsePlans_[li].portLoads(topo, model.tokenBytes(),
                                       portLoads_[li]);
            sparsePlans_[li].receivedTokens(recvTokens_[li]);
        } else {
            if (indexDirty_[li]) {
                replicaIndex_[li].rebuild(topo, layouts_[li]);
                indexDirty_[li] = 0;
            }
            liteRoutingLoads(topo, routing[li], replicaIndex_[li],
                             model.tokenBytes(), liteScratch_[li],
                             recvTokens_[li], portLoads_[li]);
        }
        // Known defect: the fold already adds kCollectiveAlpha once.
        layerDispatch_[li] =
            kCollectiveAlpha +
            a2aBottleneckTimeFromLoads(topo, portLoads_[li]);
        layerCombine_[li] =
            kCollectiveAlpha +
            a2aBottleneckTimeFromLoads(topo, portLoads_[li],
                                       /*transpose=*/true);
        recvDouble_[li].assign(recvTokens_[li].begin(),
                               recvTokens_[li].end());
        layerImbalance_[li] = imbalanceFactor(recvDouble_[li]);
    });

    // Attention + gate work of the step, sharded evenly.
    attn_flops += static_cast<double>(res.tokens) * 2.0 *
                  model.numExperts * model.hiddenDim;
    const Seconds attn_dur = attn_flops / n / topo.computeFlops();

    const double layer_scale =
        static_cast<double>(model.layers) / layers;
    const Seconds head = lmHeadForwardTime(model, work.sampled, 1,
                                           topo.computeFlops());
    res.duration =
        stepTimelineMakespan(attn_dur, layerDispatch_, layerCombine_,
                             recvTokens_, model.expertFlopsPerToken(),
                             topo.computeFlops()) *
            layer_scale +
        head + kStepOverhead + res.migration;

    // Swap-style preemption traffic recorded while planning this step
    // drains over the host link and serialises with the step.
    res.swapOutBytes = batcher_.takeSwapOutBytes();
    res.swapInBytes = batcher_.takeSwapInBytes();
    res.swapTime = static_cast<double>(res.swapOutBytes +
                                       res.swapInBytes) /
                   kHostLinkBw;
    res.duration += res.swapTime;

    res.maxRelTokens = mean(layerImbalance_);
    ++stepIndex_;
    return res;
}

} // namespace laer
