#include "model/memory.hh"

#include <algorithm>

#include "core/error.hh"

namespace laer
{

namespace
{

/** Shared fully-sharded portion: everything divided by N. */
ModelStateMemory
fullyShardedBase(const ModelConfig &cfg, int n_devices)
{
    LAER_CHECK(n_devices >= 1, "need at least one device");
    const std::int64_t psi_all = cfg.totalParams();
    ModelStateMemory m;
    m.optimizerState = psi_all * kOptimizerBytesPerParam / n_devices;
    m.paramState = psi_all * kBytesPerParam / n_devices;
    m.gradState = m.paramState;
    return m;
}

} // namespace

ModelStateMemory
fsepModelState(const ModelConfig &cfg, int n_devices, int capacity)
{
    ModelStateMemory m = fullyShardedBase(cfg, n_devices);
    const Bytes other = cfg.nonExpertParamsPerLayer() * kBytesPerParam;
    const Bytes experts = 2LL * capacity * cfg.expertParamBytes();
    m.paramState += other + experts;
    m.gradState += other + experts;
    return m;
}

ModelStateMemory
fsdpEpModelState(const ModelConfig &cfg, int n_devices, int capacity)
{
    ModelStateMemory m = fullyShardedBase(cfg, n_devices);
    const Bytes other = cfg.nonExpertParamsPerLayer() * kBytesPerParam;
    const Bytes experts = 1LL * capacity * cfg.expertParamBytes();
    m.paramState += other + experts;
    m.gradState += other + experts;
    return m;
}

ModelStateMemory
megatronModelState(const ModelConfig &cfg, int n_devices,
                   int ep_degree, int tp_degree)
{
    LAER_CHECK(ep_degree >= 1 && tp_degree >= 1, "bad parallel degrees");
    LAER_CHECK(cfg.numExperts % ep_degree == 0,
               "experts must divide evenly over EP ranks");
    LAER_CHECK(n_devices % (ep_degree * tp_degree) == 0,
               "N must be divisible by ep*tp");
    const int dp = n_devices / (ep_degree * tp_degree);

    const std::int64_t experts_resident =
        cfg.layers * (cfg.numExperts / ep_degree) * cfg.expertParams();
    const std::int64_t other_resident =
        cfg.layers * cfg.nonExpertParamsPerLayer() / tp_degree +
        cfg.embeddingParams() / tp_degree;
    const std::int64_t resident = experts_resident + other_resident;

    ModelStateMemory m;
    m.paramState = resident * kBytesPerParam;
    m.gradState = m.paramState;
    // Distributed optimizer shards fp32 states over the DP replicas.
    m.optimizerState = resident * kOptimizerBytesPerParam / dp;
    return m;
}

ModelStateMemory
inferenceModelState(const ModelConfig &cfg, int n_devices, int capacity)
{
    LAER_CHECK(n_devices >= 1, "need at least one device");
    LAER_CHECK(capacity >= 1, "capacity must be positive");
    ModelStateMemory m;
    m.paramState =
        cfg.totalParams() * kBytesPerParam / n_devices +
        cfg.nonExpertParamsPerLayer() * kBytesPerParam +
        2LL * capacity * cfg.expertParamBytes();
    return m;
}

Bytes
activationBytesPerToken(const ModelConfig &cfg, bool checkpointing)
{
    if (checkpointing) {
        // Only layer-boundary activations are retained.
        return 1LL * cfg.hiddenDim * kBytesPerParam * cfg.layers;
    }
    // Rough per-layer live set: attention in/out, QKV, expert inputs
    // and SwiGLU intermediates for the K routed copies of the token.
    const std::int64_t per_layer =
        6LL * cfg.hiddenDim + 2LL * cfg.topK * cfg.intermediateDim +
        2LL * cfg.topK * cfg.hiddenDim;
    return per_layer * kBytesPerParam * cfg.layers;
}

TokenCount
maxMicroBatchTokens(const ModelConfig &cfg, const ModelStateMemory &state,
                    Bytes hbm_bytes, bool checkpointing)
{
    const Bytes slack = hbm_bytes - state.total();
    if (slack <= 0)
        return 0;
    const Bytes per_token = activationBytesPerToken(cfg, checkpointing);
    const TokenCount raw = slack / per_token;
    return (raw / 1024) * 1024;
}

} // namespace laer
