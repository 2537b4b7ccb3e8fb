#include "runtime/training_sim.hh"

#include <chrono>
#include <cmath>
#include <utility>

#include "core/error.hh"
#include "core/stats.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"

namespace laer
{

namespace
{

/** Expert slots per device for the static EP grouping. */
int
epCapacityOf(const SimulatorConfig &config)
{
    if (config.system == SystemKind::Megatron &&
        config.megatronCapacity > 0)
        return config.megatronCapacity;
    return config.capacity;
}

} // namespace

TrainingSimulator::TrainingSimulator(const Cluster &cluster,
                                     const SimulatorConfig &config)
    : cluster_(cluster), config_(config),
      grouping_(cluster,
                config.model.numExperts / epCapacityOf(config),
                /*span_nodes=*/true),
      staticLayout_(staticEpLayout(cluster, config.model.numExperts,
                                   grouping_))
{
    config_.model.validate();
    LAER_CHECK(config_.capacity >= 1, "capacity must be positive");
    LAER_CHECK(config_.model.numExperts % config_.capacity == 0,
               "experts must divide by per-device capacity");
    LAER_CHECK(config_.simulatedLayers >= 1, "need at least one layer");

    const TokenCount per_step =
        static_cast<TokenCount>(cluster_.numDevices()) *
        config_.tokensPerDevice;
    microSteps_ = static_cast<int>(
        (config_.globalBatchTokens + per_step - 1) / per_step);

    for (int l = 0; l < config_.simulatedLayers; ++l) {
        RoutingModel rm = config_.routing;
        rm.numDevices = cluster_.numDevices();
        rm.numExperts = config_.model.numExperts;
        rm.topK = config_.model.topK;
        rm.tokensPerDevice = config_.tokensPerDevice;
        rm.seed = config_.seed + 1000003ULL * l;
        generators_.emplace_back(rm);
    }
    const auto layers = static_cast<std::size_t>(config_.simulatedLayers);
    currentLayouts_.assign(layers, evenLayout(cluster_,
                                              config_.model.numExperts,
                                              config_.capacity));
    replicaIndex_.resize(layers);
    plans_.resize(layers);

    if (config_.system == SystemKind::FlexMoe) {
        FlexMoeConfig fc;
        fc.capacity = config_.capacity;
        fc.expertBytes = config_.model.expertParamBytes();
        fc.cost.commBytesPerToken = config_.model.tokenBytes();
        fc.cost.compFlopsPerToken = config_.model.expertFlopsPerToken();
        fc.cost.checkpointing = config_.checkpointing;
        for (int l = 0; l < config_.simulatedLayers; ++l)
            flexPlanners_.push_back(std::make_unique<FlexMoePlanner>(
                cluster_, config_.model.numExperts, fc));
    }
    if (config_.system == SystemKind::SmartMoe) {
        SmartMoeConfig sc;
        sc.capacity = config_.capacity;
        sc.period = config_.smartPeriod;
        sc.expertBytes = config_.model.expertParamBytes();
        for (int l = 0; l < config_.simulatedLayers; ++l)
            smartPlanners_.push_back(std::make_unique<SmartMoePlanner>(
                cluster_, config_.model.numExperts, sc));
    }
}

TrainingSimulator::~TrainingSimulator() = default;

IterationResult
TrainingSimulator::step()
{
    const int sim_layers = config_.simulatedLayers;
    const int n = cluster_.numDevices();
    IterationResult result;

    // 1. Gate outputs of this iteration.
    std::vector<RoutingMatrix> routing;
    routing.reserve(sim_layers);
    for (int l = 0; l < sim_layers; ++l)
        routing.push_back(generators_[l].next());

    // 2. Expert layouts per the active system. The LAER tuner hands
    // over each winner's replica index with its layout.
    bool index_adopted = false;
    if (config_.system == SystemKind::Laer && iteration_ > 0) {
        // Asynchronous tuner: solves from the PREVIOUS iteration's
        // routing (Fig. 7); we measure the real wall-clock it takes.
        TunerConfig tc = config_.tuner;
        tc.capacity = config_.capacity;
        tc.cost.commBytesPerToken = config_.model.tokenBytes();
        tc.cost.compFlopsPerToken = config_.model.expertFlopsPerToken();
        tc.cost.checkpointing = config_.checkpointing;
        const auto t0 = std::chrono::steady_clock::now();
        for (int l = 0; l < sim_layers; ++l) {
            tc.seed = config_.seed + 7919ULL * iteration_ + l;
            LayoutDecision dec =
                tuneExpertLayout(cluster_, prevRouting_[l], tc);
            currentLayouts_[l] = std::move(dec.layout);
            replicaIndex_[l] = std::move(dec.index);
        }
        index_adopted = true;
        const auto t1 = std::chrono::steady_clock::now();
        result.plannerWall =
            std::chrono::duration<double>(t1 - t0).count();
    } else if (config_.system == SystemKind::FlexMoe && iteration_ > 0) {
        for (int l = 0; l < sim_layers; ++l) {
            const FlexMoeStep fs =
                flexPlanners_[l]->update(prevRouting_[l]);
            result.migration += fs.migrationTime;
            currentLayouts_[l] = flexPlanners_[l]->layout();
        }
    } else if (config_.system == SystemKind::SmartMoe &&
               iteration_ > 0) {
        for (int l = 0; l < sim_layers; ++l) {
            const SmartMoeStep ss =
                smartPlanners_[l]->observe(prevRouting_[l]);
            result.migration += ss.migrationTime;
            currentLayouts_[l] = smartPlanners_[l]->layout();
        }
    } else if (config_.system == SystemKind::FsdpEp ||
               config_.system == SystemKind::Megatron) {
        for (int l = 0; l < sim_layers; ++l)
            currentLayouts_[l] = staticLayout_;
    }

    // 3. Token dispatch on the current iteration's routing, straight
    // into the sparse plan: the dense N x E x N plan never exists.
    std::vector<double> layer_imbalance(sim_layers);
    std::vector<TokenCount> recv;
    for (int l = 0; l < sim_layers; ++l) {
        if (config_.system == SystemKind::FsdpEp ||
            config_.system == SystemKind::Megatron) {
            staticEpRoutingSparse(routing[l], grouping_,
                                  currentLayouts_[l], plans_[l]);
        } else {
            if (!index_adopted)
                replicaIndex_[l].rebuild(cluster_, currentLayouts_[l]);
            liteRoutingSparse(cluster_, routing[l], replicaIndex_[l],
                              plans_[l]);
        }
        plans_[l].receivedTokens(recv);
        std::vector<double> loads(recv.begin(), recv.end());
        layer_imbalance[l] = imbalanceFactor(loads);
    }
    result.maxRelTokens = mean(layer_imbalance);

    // 4. Measure the timeline.
    IterationSpec spec;
    spec.model = &config_.model;
    spec.system = config_.system;
    spec.flags = config_.flags;
    spec.checkpointing = config_.checkpointing;
    spec.recompute = config_.recompute;
    spec.seqLen = config_.seqLen;
    spec.tokensPerDevice = config_.tokensPerDevice;
    spec.tpDegree = config_.tpDegree;
    spec.expertTpDegree = config_.megatronExpertTp;
    spec.capacityHint = config_.capacity;
    for (const RoutingPlanSparse &plan : plans_)
        spec.layerSparse.push_back(&plan);

    spec.withGradSync = false;
    const MicroBatchResult plain = simulateMicroBatch(cluster_, spec);
    spec.withGradSync = true;
    const MicroBatchResult synced = simulateMicroBatch(cluster_, spec);

    // Scale the simulated layer block up to the full model depth; the
    // LM head and optimizer are charged once.
    const double ratio = static_cast<double>(config_.model.layers) /
                         sim_layers;
    const Seconds head = 3.0 * lmHeadForwardTime(
                                   config_.model,
                                   config_.tokensPerDevice,
                                   spec.tpDegree,
                                   cluster_.computeFlops());
    auto scale_up = [&](Seconds per_block, Seconds head_part) {
        return (per_block - head_part) * ratio + head_part;
    };
    const Seconds t_plain = scale_up(plain.makespan, head);
    const Seconds t_sync = scale_up(synced.makespan, head);
    const Seconds opt = optimizerStepTime(config_.model, n);

    result.time = (microSteps_ - 1) * t_plain + t_sync + opt +
                  result.migration;
    result.expert = microSteps_ * synced.expertBusy * ratio;
    result.others =
        microSteps_ * scale_up(synced.othersBusy, head) + opt;
    result.exposedPrefetch =
        microSteps_ * synced.exposedPrefetch * ratio;
    result.exposedGradSync = synced.exposedGradSync * ratio;
    // A2A as a profiler attributes it: everything that is neither
    // compute nor exposed parameter traffic is time spent inside (or
    // waiting in) the token All-to-All ops.
    const Seconds a2a_busy = microSteps_ * synced.a2aBusy * ratio;
    const Seconds residual = result.time - result.expert -
                             result.others - result.exposedPrefetch -
                             result.exposedGradSync -
                             result.migration;
    result.a2a = std::max(a2a_busy, residual);
    result.tokensPerSecond =
        static_cast<double>(config_.globalBatchTokens) / result.time;

    prevRouting_ = std::move(routing);
    ++iteration_;
    return result;
}

std::vector<IterationResult>
TrainingSimulator::run(int n)
{
    std::vector<IterationResult> results;
    results.reserve(n);
    for (int i = 0; i < n; ++i)
        results.push_back(step());
    return results;
}

Seconds
TrainingSimulator::meanTime(const std::vector<IterationResult> &results)
{
    if (results.empty())
        return 0.0;
    Seconds sum = 0.0;
    for (const auto &r : results)
        sum += r.time;
    return sum / static_cast<double>(results.size());
}

} // namespace laer
