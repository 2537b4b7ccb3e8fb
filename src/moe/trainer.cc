#include "moe/trainer.hh"

#include <cmath>

#include "core/error.hh"

namespace laer
{

namespace
{

constexpr double kZipfS = 1.1;        //!< token frequency skew
constexpr float kLabelNoise = 0.05f;  //!< fraction of corrupted targets

} // namespace

MoeTrainer::MoeTrainer(const TrainerConfig &config)
    : config_(config), dataRng_(config.seed),
      evalRng_(config.seed ^ 0xABCDEF0123456789ULL)
{
    LAER_CHECK(config_.vocab >= 2, "need a vocabulary");
    Rng init_rng(config_.seed + 1);
    targetMap_ = init_rng.permutation(config_.vocab);

    const float scale =
        1.0f / std::sqrt(static_cast<float>(config_.dModel));
    embed_ = std::make_unique<AdamParam>(config_.vocab, config_.dModel,
                                         init_rng, scale);
    readout_ = std::make_unique<AdamParam>(config_.vocab, config_.dModel,
                                           init_rng, scale);
    MoeLayerConfig layer_cfg;
    layer_cfg.dModel = config_.dModel;
    layer_cfg.dExpert = config_.dExpert;
    layer_cfg.numExperts = config_.numExperts;
    layer_cfg.topK = config_.topK;
    layer_cfg.auxLossWeight = config_.auxLossWeight;
    moe_ = std::make_unique<MoeLayer>(layer_cfg, init_rng);
}

MoeTrainer::~MoeTrainer() = default;

std::pair<int, int>
MoeTrainer::samplePair(Rng &rng)
{
    const int src = rng.zipf(config_.vocab, kZipfS);
    int dst = targetMap_[src];
    if (rng.uniform() < kLabelNoise)
        dst = rng.uniformInt(0, config_.vocab - 1);
    return {src, dst};
}

StepResult
MoeTrainer::forwardBackward(const std::vector<int> &src,
                            const std::vector<int> &dst, bool update)
{
    const int n = static_cast<int>(src.size());
    const int d = config_.dModel;
    const int v = config_.vocab;

    // Gather embeddings.
    std::vector<float> x(static_cast<std::size_t>(n) * d);
    for (int t = 0; t < n; ++t) {
        const float *row = embed_->weight().row(src[t]);
        std::copy(row, row + d,
                  x.begin() + static_cast<std::size_t>(t) * d);
    }

    // MoE layer (+ residual) and readout.
    std::vector<float> moe_out(static_cast<std::size_t>(n) * d);
    moe_->forward(x.data(), n, moe_out.data());

    std::vector<float> z(static_cast<std::size_t>(n) * d);
    for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = x[i] + moe_out[i];

    std::vector<float> logits(v), probs(v);
    std::vector<float> dz(static_cast<std::size_t>(n) * d, 0.0f);
    double loss_acc = 0.0;

    for (int t = 0; t < n; ++t) {
        const float *zt = z.data() + static_cast<std::size_t>(t) * d;
        matVec(readout_->weight(), zt, logits.data());
        float max_logit = logits[0];
        for (int j = 1; j < v; ++j)
            max_logit = std::max(max_logit, logits[j]);
        float denom = 0.0f;
        for (int j = 0; j < v; ++j) {
            probs[j] = std::exp(logits[j] - max_logit);
            denom += probs[j];
        }
        for (int j = 0; j < v; ++j)
            probs[j] /= denom;
        loss_acc += -std::log(std::max(probs[dst[t]], 1e-12f));

        if (update) {
            // dlogits = (probs - onehot) / n.
            probs[dst[t]] -= 1.0f;
            for (int j = 0; j < v; ++j)
                probs[j] /= static_cast<float>(n);
            accumulateOuter(readout_->grad(), probs.data(), zt);
            matVecT(readout_->weight(), probs.data(),
                    dz.data() + static_cast<std::size_t>(t) * d);
        }
    }

    StepResult result;
    result.loss = static_cast<float>(loss_acc / n);
    result.auxLoss = moe_->lastStats().auxLoss;
    result.expertTokenCounts = moe_->lastStats().expertTokenCounts;

    if (update) {
        std::vector<float> dx(static_cast<std::size_t>(n) * d);
        moe_->backward(x.data(), dz.data(), n, dx.data());
        // Residual path adds dz directly; embeddings collect both.
        for (int t = 0; t < n; ++t) {
            float *grow = embed_->grad().row(src[t]);
            const float *dxt =
                dx.data() + static_cast<std::size_t>(t) * d;
            const float *dzt =
                dz.data() + static_cast<std::size_t>(t) * d;
            for (int i = 0; i < d; ++i)
                grow[i] += dxt[i] + dzt[i];
        }
        embed_->step(config_.lr);
        readout_->step(config_.lr);
        moe_->step(config_.lr);
    }
    return result;
}

StepResult
MoeTrainer::step()
{
    std::vector<int> src(config_.batch), dst(config_.batch);
    for (int t = 0; t < config_.batch; ++t) {
        auto [s, d] = samplePair(dataRng_);
        src[t] = s;
        dst[t] = d;
    }
    // Distinct reduceSeed values reorder gradient accumulation: same
    // data, different floating-point rounding — emulating the
    // system-level nondeterminism the Fig. 9(b) relative-error study
    // measures between LAER-MoE and Megatron.
    if (config_.reduceSeed != 0) {
        Rng order_rng(config_.reduceSeed);
        const std::vector<int> perm =
            order_rng.permutation(config_.batch);
        std::vector<int> src2(config_.batch), dst2(config_.batch);
        for (int t = 0; t < config_.batch; ++t) {
            src2[t] = src[perm[t]];
            dst2[t] = dst[perm[t]];
        }
        src.swap(src2);
        dst.swap(dst2);
    }
    return forwardBackward(src, dst, true);
}

std::vector<StepResult>
MoeTrainer::run(int n)
{
    std::vector<StepResult> results;
    results.reserve(n);
    for (int i = 0; i < n; ++i)
        results.push_back(step());
    return results;
}

float
MoeTrainer::evalLoss(int n_tokens)
{
    Rng saved = evalRng_; // fixed eval stream per call sequence
    std::vector<int> src(n_tokens), dst(n_tokens);
    for (int t = 0; t < n_tokens; ++t) {
        auto [s, d] = samplePair(saved);
        src[t] = s;
        dst[t] = d;
    }
    return forwardBackward(src, dst, false).loss;
}

} // namespace laer
