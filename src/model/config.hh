/**
 * @file
 * MoE model configurations (paper Tab. 2) and arithmetic accounting.
 *
 * All parameter, FLOP and byte counts used anywhere in the simulator
 * derive from this one struct so the cost model, memory model and
 * benches can never disagree about model arithmetic.
 */

#ifndef LAER_MODEL_CONFIG_HH
#define LAER_MODEL_CONFIG_HH

#include <string>
#include <vector>

#include "core/types.hh"

namespace laer
{

/** Bytes per parameter, activation and KV element: bf16 throughout. */
constexpr int kBytesPerParam = 2;

/**
 * One decoder-only MoE Transformer configuration.
 *
 * The e16k4 variants follow the paper's construction: the expert count
 * doubles to 16 with top-k 4 while the per-expert intermediate size
 * halves, keeping per-layer parameter count and compute unchanged.
 */
struct ModelConfig
{
    std::string name;       //!< e.g. "mixtral-8x7b-e8k2"
    int layers = 0;         //!< Transformer layer count
    int hiddenDim = 0;      //!< H
    int intermediateDim = 0;//!< H' per expert (SwiGLU)
    int numExperts = 0;     //!< E
    int topK = 0;           //!< K experts per token
    int numHeads = 0;       //!< attention query heads
    int numKvHeads = 0;     //!< GQA key/value heads
    int headDim = 0;        //!< per-head dimension
    int vocabSize = 0;      //!< tokenizer vocabulary
    bool attnBias = false;  //!< QKV bias (Qwen-style)

    /** SwiGLU expert parameter count: 3 * H * H'. */
    std::int64_t expertParams() const;

    /** Expert parameter bytes (Psi_expert in the paper). */
    Bytes expertParamBytes() const;

    /** All experts of one layer. */
    std::int64_t expertParamsPerLayer() const;

    /** Attention (+norms +gate) parameters of one layer: Psi_other. */
    std::int64_t nonExpertParamsPerLayer() const;

    /** Embedding + LM-head parameters. */
    std::int64_t embeddingParams() const;

    /** Total model parameters (Tab. 2 "Params"). */
    std::int64_t totalParams() const;

    /** Parameters activated per token (Tab. 2 "Activs"). */
    std::int64_t activatedParams() const;

    /** Forward FLOPs of one token through one expert: 6 * H * H'
     * (paper Sec. 3.1, V_comp per token). */
    Flops expertFlopsPerToken() const;

    /** Forward FLOPs of one token through one attention layer at the
     * given context length (weight GEMMs + score/value matmuls).
     * Inline: the serving step calls it once per batch entry. */
    Flops attnFlopsPerToken(int seq_len) const
    {
        const std::int64_t q = 1LL * hiddenDim * numHeads * headDim;
        const std::int64_t kv = 2LL * hiddenDim * numKvHeads * headDim;
        const std::int64_t o = 1LL * numHeads * headDim * hiddenDim;
        const double weight_flops = 2.0 * static_cast<double>(q + kv + o);
        // Scores and value mixing: 2 matmuls of [1, d] x [d, seq] per
        // head; causal masking halves the average effective context.
        const double score_flops =
            2.0 * 2.0 * numHeads * headDim * (seq_len / 2.0);
        return weight_flops + score_flops;
    }

    /** Bytes moved per token by one All-to-All hop: H * kBytesPerParam
     * (paper's V_comm per token). */
    Bytes tokenBytes() const;

    /** Validate internal consistency; throws FatalError on misuse. */
    void validate() const;
};

/** @name Tab. 2 presets
 *  Factory functions for the six evaluated configurations.
 *  @{ */
ModelConfig mixtral8x7bE8K2();
ModelConfig mixtral8x7bE16K4();
ModelConfig mixtral8x22bE8K2();
ModelConfig mixtral8x22bE16K4();
ModelConfig qwen8x7bE8K2();
ModelConfig qwen8x7bE16K4();
/** @} */

/** All six Tab. 2 configurations in paper order. */
std::vector<ModelConfig> allEvaluatedModels();

} // namespace laer

#endif // LAER_MODEL_CONFIG_HH
