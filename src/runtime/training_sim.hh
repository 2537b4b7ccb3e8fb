/**
 * @file
 * End-to-end training-loop simulator (paper Fig. 7 workflow).
 *
 * Each iteration: per-layer routing matrices come from the synthetic
 * router; the active system decides each layer's expert layout
 * (LAER-MoE re-tunes from the PREVIOUS iteration's routing, exactly
 * like the paper's asynchronous CPU-side tuner; FlexMoE adjusts
 * incrementally with penalties; SmartMoE re-places on a long period;
 * the static baselines never move); the token dispatcher routes the
 * CURRENT iteration's tokens onto that layout; the iteration timeline
 * is then priced by simulateMicroBatch on per-stream clocks.
 */

#ifndef LAER_RUNTIME_TRAINING_SIM_HH
#define LAER_RUNTIME_TRAINING_SIM_HH

#include <memory>
#include <vector>

#include "baselines/flexmoe.hh"
#include "baselines/smartmoe.hh"
#include "baselines/static_ep.hh"
#include "model/config.hh"
#include "planner/layout_tuner.hh"
#include "runtime/iteration.hh"
#include "runtime/system.hh"
#include "trace/routing_generator.hh"

namespace laer
{

/** Full experiment configuration for one system on one workload. */
struct SimulatorConfig
{
    ModelConfig model;
    SystemKind system = SystemKind::Laer;
    ScheduleFlags flags = ScheduleFlags::all();
    bool checkpointing = true;
    RecomputeMode recompute = RecomputeMode::ExpertOnly;
    int capacity = 2;             //!< C per device
    int seqLen = 8192;
    TokenCount tokensPerDevice = 16384;       //!< S per micro-batch
    TokenCount globalBatchTokens = 2097152;   //!< tokens per iteration
    int tpDegree = 1;             //!< Megatron attention TP
    /** Megatron's expert capacity per device. Whole experts must stay
     * resident, so memory pressure can force a larger EP degree than
     * the fully sharded systems use (Sec. 5.2: e8k2 needs EP = E,
     * i.e. one expert per device). 0 = same as `capacity`. */
    int megatronCapacity = 0;
    /** Megatron expert tensor parallelism (parallel folding). */
    int megatronExpertTp = 1;
    int simulatedLayers = 8;      //!< MoE layers carried through the
                                  //!< DES (timing scales to model.layers)
    RoutingModel routing;         //!< synthetic router parameters
    TunerConfig tuner;            //!< LAER planner knobs
    int smartPeriod = 100;        //!< SmartMoE re-layout period
    std::uint64_t seed = 42;
};

/** Outcome of one simulated training iteration. */
struct IterationResult
{
    Seconds time = 0.0;          //!< end-to-end iteration seconds
    /** Token All-to-All wall time as a profiler reports it: the NCCL
     * op spans from the earliest entering rank until completion, so
     * straggler wait caused by compute imbalance lands here — exactly
     * how the paper's Fig. 1(b)/10(a) attribute time. */
    Seconds a2a = 0.0;
    Seconds expert = 0.0;        //!< expert compute per device
    Seconds others = 0.0;        //!< attention / head / optimizer
    Seconds exposedPrefetch = 0.0;
    Seconds exposedGradSync = 0.0;
    Seconds migration = 0.0;     //!< baseline re-layout overhead
    Seconds plannerWall = 0.0;   //!< measured CPU solve time (all layers)
    double maxRelTokens = 0.0;   //!< mean over layers of max/mean recv
    double tokensPerSecond = 0.0;
};

/**
 * The simulator. step() advances one training iteration.
 */
class TrainingSimulator
{
  public:
    TrainingSimulator(const Cluster &cluster,
                      const SimulatorConfig &config);
    ~TrainingSimulator();

    /** Simulate the next training iteration. */
    IterationResult step();

    /** Run n iterations and return all results. */
    std::vector<IterationResult> run(int n);

    /** Mean iteration time over a result set, seconds. */
    static Seconds meanTime(const std::vector<IterationResult> &results);

    const SimulatorConfig &config() const { return config_; }

  private:
    const Cluster &cluster_;
    SimulatorConfig config_;
    int microSteps_;
    EpGrouping grouping_;
    ExpertLayout staticLayout_;
    std::vector<RoutingGenerator> generators_; //!< one per sim layer
    std::vector<RoutingMatrix> prevRouting_;   //!< last iteration's R
    std::vector<ExpertLayout> currentLayouts_; //!< per sim layer
    std::vector<std::unique_ptr<FlexMoePlanner>> flexPlanners_;
    std::vector<std::unique_ptr<SmartMoePlanner>> smartPlanners_;
    /** Per sim layer, reused across iterations: the replica lists
     * lite routing reads (the tuner's own after a LAER retune) and the
     * routing plan the micro-batch timeline prices. */
    std::vector<ReplicaIndex> replicaIndex_;
    std::vector<RoutingPlanSparse> plans_;
    int iteration_ = 0;
};

} // namespace laer

#endif // LAER_RUNTIME_TRAINING_SIM_HH
