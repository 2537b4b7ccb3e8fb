/**
 * @file
 * Synthetic routing-distribution generator.
 *
 * Fig. 1(a) of the paper shows three properties of real MoE routing
 * during training: (1) strong per-iteration skew (a few overloaded
 * experts), (2) slow drift of which experts are hot, and (3) noisy
 * per-device variation around the global distribution. We model the
 * per-layer expert popularity as a softmax over per-expert logits that
 * follow a mean-reverting (AR(1) / Ornstein-Uhlenbeck) random walk —
 * stationary skew is set by the walk's stationary variance, drift
 * speed by its correlation coefficient. Device-level token counts are
 * drawn multinomially around the global popularity with a per-device
 * Dirichlet jitter, i.e. from a Dirichlet-multinomial whose cost
 * follows the tokens a device routes:
 *  - a device routing no tokens draws nothing;
 *  - a light device (at most kUrnTokensPerExpert * E routed tokens)
 *    draws its row as a Pólya urn, exact and one uniform per token;
 *  - a heavier device draws the Dirichlet jitter (E gammas) and then a
 *    multinomial over it, as training always has.
 *
 * The Switch-Transformer auxiliary loss pushes routing toward uniform
 * with strength proportional to its weight; we reproduce that feedback
 * by shrinking the logits every iteration at a rate calibrated so that
 * weight 1e-2 achieves near-balance within ~100 iterations while 1e-4
 * only damps the skew mildly — matching the paper's Fig. 2/9 narrative.
 */

#ifndef LAER_TRACE_ROUTING_GENERATOR_HH
#define LAER_TRACE_ROUTING_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "core/rng.hh"
#include "core/types.hh"
#include "planner/types.hh"

namespace laer
{

/** Statistical knobs of the synthetic router. */
struct RoutingModel
{
    int numDevices = 0;      //!< N
    int numExperts = 0;      //!< E
    int topK = 2;            //!< K (tokens count K times)
    TokenCount tokensPerDevice = 16384; //!< S per micro-batch

    double skew = 1.2;       //!< stationary std of expert logits
    double drift = 0.98;     //!< AR(1) coefficient (closer to 1 = slower)
    double deviceJitter = 0.15; //!< per-device deviation strength
    double auxLossWeight = 0.0; //!< algorithmic balance feedback
    std::uint64_t seed = 42;

    /**
     * Read by nothing: every draw now skips devices carrying zero
     * tokens. Kept only because perfbench still sets it; delete it
     * once that line is gone.
     */
    bool sparseDraw = false;

    /** Wikitext-like preset: heavier skew, slower drift. */
    static RoutingModel wikitext(int n_devices, int n_experts, int top_k,
                                 TokenCount tokens_per_device);

    /** C4-like preset: broader domain mix, milder skew, faster drift. */
    static RoutingModel c4(int n_devices, int n_experts, int top_k,
                           TokenCount tokens_per_device);
};

/**
 * Stateful per-layer routing generator; call next() once per training
 * iteration to obtain the R matrix for that iteration.
 */
class RoutingGenerator
{
  public:
    explicit RoutingGenerator(const RoutingModel &model);

    /** Generate the routing matrix of the next iteration. */
    RoutingMatrix next();

    /**
     * Generate the next routing matrix for externally-specified
     * per-device token loads (pre-top-k). Serving batches vary in size
     * every scheduling step, unlike training micro-batches; the drift,
     * skew and jitter model is identical to next(), which is the
     * special case of all devices carrying `tokensPerDevice` tokens.
     */
    RoutingMatrix nextForTokens(const std::vector<TokenCount> &tokens);

    /** Current global expert popularity (softmax of logits). */
    std::vector<double> popularity() const;

    /** Model parameters in force. */
    const RoutingModel &model() const { return model_; }

    /**
     * A device routing at most this many tokens per expert draws its
     * row from the Pólya urn; above it, Dirichlet + multinomial.
     */
    static constexpr TokenCount kUrnTokensPerExpert = 4;

  private:
    /** Draw device d's row of `routing` from the Pólya urn. */
    void drawUrnRow(DeviceId d, TokenCount routed, RoutingMatrix &routing);

    RoutingModel model_;
    Rng rng_;
    std::vector<double> logits_;
    // Scratch sized by the first call, so no later draw allocates.
    std::vector<double> alphas_;        //!< jitter concentrations
    std::vector<double> alphaPrefix_;   //!< running sums of alphas_
    std::vector<double> local_;         //!< a device's Dirichlet draw
    std::vector<std::int64_t> counts_;  //!< a device's multinomial row
    std::vector<ExpertId> urn_;         //!< a device's drawn experts
};

} // namespace laer

#endif // LAER_TRACE_ROUTING_GENERATOR_HH
