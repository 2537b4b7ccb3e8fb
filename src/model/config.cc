#include "model/config.hh"

#include "core/error.hh"

namespace laer
{

std::int64_t
ModelConfig::expertParams() const
{
    return 3LL * hiddenDim * intermediateDim;
}

Bytes
ModelConfig::expertParamBytes() const
{
    return expertParams() * kBytesPerParam;
}

std::int64_t
ModelConfig::expertParamsPerLayer() const
{
    return expertParams() * numExperts;
}

std::int64_t
ModelConfig::nonExpertParamsPerLayer() const
{
    const std::int64_t q = 1LL * hiddenDim * numHeads * headDim;
    const std::int64_t kv = 2LL * hiddenDim * numKvHeads * headDim;
    const std::int64_t o = 1LL * numHeads * headDim * hiddenDim;
    std::int64_t attn = q + kv + o;
    if (attnBias)
        attn += (numHeads + 2LL * numKvHeads) * headDim;
    const std::int64_t norms = 2LL * hiddenDim;
    const std::int64_t gate = 1LL * numExperts * hiddenDim;
    return attn + norms + gate;
}

std::int64_t
ModelConfig::embeddingParams() const
{
    // Untied input embedding and LM head, plus the final norm.
    return 2LL * vocabSize * hiddenDim + hiddenDim;
}

std::int64_t
ModelConfig::totalParams() const
{
    return layers * (expertParamsPerLayer() + nonExpertParamsPerLayer()) +
           embeddingParams();
}

std::int64_t
ModelConfig::activatedParams() const
{
    return layers * (topK * expertParams() + nonExpertParamsPerLayer()) +
           embeddingParams();
}

Flops
ModelConfig::expertFlopsPerToken() const
{
    // 2 FLOPs per multiply-accumulate over 3*H*H' SwiGLU weights.
    return 6.0 * hiddenDim * intermediateDim;
}

Bytes
ModelConfig::tokenBytes() const
{
    return static_cast<Bytes>(hiddenDim) * kBytesPerParam;
}

void
ModelConfig::validate() const
{
    LAER_CHECK(layers > 0, "model needs layers");
    LAER_CHECK(hiddenDim > 0 && intermediateDim > 0, "bad dimensions");
    LAER_CHECK(numExperts > 0, "model needs experts");
    LAER_CHECK(topK > 0 && topK <= numExperts, "top-k out of range");
    LAER_CHECK(numHeads > 0 && numKvHeads > 0, "bad head counts");
    LAER_CHECK(numHeads % numKvHeads == 0, "GQA requires divisibility");
    LAER_CHECK(vocabSize > 0, "model needs a vocabulary");
}

namespace
{

ModelConfig
mixtral8x7bBase()
{
    ModelConfig cfg;
    cfg.hiddenDim = 4096;
    cfg.intermediateDim = 14336;
    cfg.numHeads = 32;
    cfg.numKvHeads = 8;
    cfg.headDim = 128;
    cfg.vocabSize = 32000;
    return cfg;
}

ModelConfig
mixtral8x22bBase()
{
    ModelConfig cfg;
    cfg.hiddenDim = 6144;
    cfg.intermediateDim = 16384;
    cfg.numHeads = 48;
    cfg.numKvHeads = 8;
    cfg.headDim = 128;
    cfg.vocabSize = 32768;
    return cfg;
}

/** Apply the paper's e16k4 transform: double experts, halve expert
 * width, double top-k — per-layer params and compute unchanged. */
ModelConfig
toE16K4(ModelConfig cfg)
{
    cfg.numExperts = 16;
    cfg.topK = 4;
    cfg.intermediateDim /= 2;
    return cfg;
}

} // namespace

ModelConfig
mixtral8x7bE8K2()
{
    ModelConfig cfg = mixtral8x7bBase();
    cfg.name = "mixtral-8x7b-e8k2";
    cfg.layers = 32;
    cfg.numExperts = 8;
    cfg.topK = 2;
    return cfg;
}

ModelConfig
mixtral8x7bE16K4()
{
    ModelConfig cfg = toE16K4(mixtral8x7bBase());
    cfg.name = "mixtral-8x7b-e16k4";
    cfg.layers = 24; // Tab. 2: layers reduced for activation memory
    return cfg;
}

ModelConfig
mixtral8x22bE8K2()
{
    ModelConfig cfg = mixtral8x22bBase();
    cfg.name = "mixtral-8x22b-e8k2";
    cfg.layers = 18; // Tab. 2: reduced for model-state memory
    cfg.numExperts = 8;
    cfg.topK = 2;
    return cfg;
}

ModelConfig
mixtral8x22bE16K4()
{
    ModelConfig cfg = toE16K4(mixtral8x22bBase());
    cfg.name = "mixtral-8x22b-e16k4";
    cfg.layers = 14;
    return cfg;
}

ModelConfig
qwen8x7bE8K2()
{
    // The paper "transforms Mixtral-8x7B into the Qwen-8x7B
    // architecture" (Sec. 5.1): same shapes, QKV bias enabled.
    ModelConfig cfg = mixtral8x7bE8K2();
    cfg.name = "qwen-8x7b-e8k2";
    cfg.attnBias = true;
    return cfg;
}

ModelConfig
qwen8x7bE16K4()
{
    ModelConfig cfg = mixtral8x7bE16K4();
    cfg.name = "qwen-8x7b-e16k4";
    cfg.attnBias = true;
    return cfg;
}

std::vector<ModelConfig>
allEvaluatedModels()
{
    return {mixtral8x7bE8K2(),  mixtral8x22bE8K2(),  qwen8x7bE8K2(),
            mixtral8x7bE16K4(), mixtral8x22bE16K4(), qwen8x7bE16K4()};
}

} // namespace laer
