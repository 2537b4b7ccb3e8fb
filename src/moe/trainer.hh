/**
 * @file
 * Tiny MoE language-model proxy for the convergence study.
 *
 * The paper's convergence experiments (Fig. 2, Fig. 9) compare loss
 * trajectories under different auxiliary-loss weights; the quantity of
 * interest is RELATIVE (how many more steps weight w needs, whether
 * two systems' losses track within 1e-3), so a small real model
 * suffices. The task is synthetic next-token prediction: Zipfian
 * source tokens (skew 1.1) map through a fixed random permutation
 * (plus 5% label noise), which the model must memorise — the Zipf
 * skew makes experts specialise unevenly, producing the very
 * imbalance the paper documents in Fig. 1(a).
 */

#ifndef LAER_MOE_TRAINER_HH
#define LAER_MOE_TRAINER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hh"
#include "moe/moe_layer.hh"

namespace laer
{

/** Trainer hyperparameters. */
struct TrainerConfig
{
    int vocab = 128;       //!< token universe
    int dModel = 32;       //!< embedding width
    int dExpert = 64;      //!< expert intermediate width
    int numExperts = 8;    //!< E
    int topK = 2;          //!< K
    int batch = 256;       //!< tokens per step
    float lr = 3e-3f;      //!< Adam learning rate
    float auxLossWeight = 0.0f;
    std::uint64_t seed = 7;   //!< init + data seed
    std::uint64_t reduceSeed = 0; //!< gradient accumulation order;
                                  //!< distinct values emulate distinct
                                  //!< systems' reduction nondeterminism
};

/** One training step's outcome. */
struct StepResult
{
    float loss = 0.0f;     //!< cross-entropy (excludes aux)
    float auxLoss = 0.0f;  //!< weighted aux value
    std::vector<std::int64_t> expertTokenCounts;
};

/**
 * Embedding -> MoE layer (residual) -> readout, trained with Adam on
 * the synthetic mapping task.
 */
class MoeTrainer
{
  public:
    explicit MoeTrainer(const TrainerConfig &config);
    ~MoeTrainer();

    /** Run one optimisation step; returns the batch loss. */
    StepResult step();

    /** Run `n` steps and return the loss trajectory. */
    std::vector<StepResult> run(int n);

    /** Evaluate mean loss on a held-out batch (no update). */
    float evalLoss(int n_tokens = 512);

    const TrainerConfig &config() const { return config_; }

  private:
    /** Sample a (source, target) pair of the synthetic task. */
    std::pair<int, int> samplePair(Rng &rng);

    /** Forward/backward one batch; fills grads. */
    StepResult forwardBackward(const std::vector<int> &src,
                               const std::vector<int> &dst,
                               bool update);

    TrainerConfig config_;
    Rng dataRng_;
    Rng evalRng_;
    std::vector<int> targetMap_; //!< the permutation to memorise
    std::unique_ptr<AdamParam> embed_;   //!< vocab x dModel
    std::unique_ptr<AdamParam> readout_; //!< vocab x dModel
    std::unique_ptr<MoeLayer> moe_;
};

} // namespace laer

#endif // LAER_MOE_TRAINER_HH
