/**
 * @file
 * Micro-batch timeline: prices each MoE layer's token traffic once
 * (priceLayer, from received tokens and dispatch port loads), then
 * replays the stream/task schedule of Fig. 5 / Fig. 7 over those
 * durations on one clock per (device, stream) (replayMicroBatch). A
 * training iteration replays its plain and its gradient-synced
 * micro-batch from one pricing; simulateMicroBatch prices from routing
 * plans and replays once.
 */

#ifndef LAER_RUNTIME_ITERATION_HH
#define LAER_RUNTIME_ITERATION_HH

#include <vector>

#include "model/config.hh"
#include "planner/routing_plan_sparse.hh"
#include "planner/types.hh"
#include "runtime/system.hh"
#include "topo/cluster.hh"

namespace laer
{

/** Inflation applied to wire ops that contend for the same channel
 * when prefetch is NOT serialised behind the token All-to-All
 * (Fig. 5(c) "slowdown"). */
constexpr double kChannelContention = 1.35;

/** Effective HBM bandwidth for the optimizer sweep, B/s. */
constexpr double kHbmBandwidth = 1.3e12;

/** Per-way GEMM efficiency loss of tensor parallelism: splitting the
 * attention projections shrinks per-device GEMMs below their
 * efficiency sweet spot (Sec. 5.2: "larger TP ... hurting
 * efficiency"). Compute time scales by 1 + k*(tp-1). */
constexpr double kTpInefficiency = 0.08;

/**
 * Fine-grained recomputation granularity (paper Sec. 4): LAER-MoE can
 * recompute just the expert MLP (avoiding extra All-to-All during the
 * backward pass), just attention, both (which re-dispatches tokens),
 * or nothing.
 */
enum class RecomputeMode
{
    None,          //!< keep all activations
    ExpertOnly,    //!< re-run expert GEMMs, reuse dispatched tokens
    AttentionOnly, //!< re-run attention, keep expert activations
    Full,          //!< re-run the whole layer incl. token All-to-All
};

/** Static description of one micro-batch to simulate. */
struct IterationSpec
{
    const ModelConfig *model = nullptr;
    SystemKind system = SystemKind::Laer;
    ScheduleFlags flags = ScheduleFlags::all();
    bool checkpointing = true;
    /** Recompute granularity; checkpointing==true with the default
     * mode means ExpertOnly (the paper's choice). */
    RecomputeMode recompute = RecomputeMode::ExpertOnly;
    int seqLen = 8192;
    TokenCount tokensPerDevice = 16384; //!< S per micro-batch
    int tpDegree = 1;                   //!< Megatron attention TP
    /** Megatron expert tensor parallelism: each expert's GEMMs split
     * over this many devices, shrinking the per-device compute tail
     * (Megatron "MoE parallel folding"). 1 = off. */
    int expertTpDegree = 1;
    int capacityHint = 2;               //!< C, expert slots per device
    bool withGradSync = true;           //!< last micro-batch of the step
    /** Per-MoE-layer token routing plans (already decided). Give
     * these or layerPlans, not both. */
    std::vector<const RoutingPlanSparse *> layerSparse;
    /** The same plans in dense form, compressed once on entry so one
     * pricing path remains. Kept only until a paired [benchmark]
     * change moves perfbench, which sets it, onto layerSparse. */
    std::vector<const RoutingPlan *> layerPlans;
};

/** Timing and breakdown of one simulated micro-batch. */
struct MicroBatchResult
{
    Seconds makespan = 0.0;
    Seconds a2aBusy = 0.0;       //!< token A2A per device
    Seconds expertBusy = 0.0;    //!< expert fwd+bwd compute per device
    Seconds othersBusy = 0.0;    //!< attention, head, misc compute
    Seconds exposedPrefetch = 0.0;
    Seconds exposedGradSync = 0.0;
};

/**
 * Port loads of one layer's token dispatch with Megatron's expert-TP
 * receive blur: the bytes a source sends each destination (summed
 * over experts, local traffic included) split evenly, by integer
 * division, over the destination's contiguous block of `etp` devices.
 * The share that lands back on the source stays off the wire, so
 * `etp == 1` gives exactly RoutingPlanSparse::portLoads.
 *
 * @param cluster          Topology (node membership).
 * @param plan             The layer's routing plan.
 * @param bytes_per_token  Per-token payload.
 * @param etp              Expert TP degree; must divide the devices.
 * @param out              Filled loads (reset to the plan's size).
 */
void expertTpPortLoads(const Cluster &cluster,
                       const RoutingPlanSparse &plan,
                       Bytes bytes_per_token, int etp,
                       A2aPortLoads &out);

/** One MoE layer's priced token traffic: what the replay reads. */
struct LayerTiming
{
    Seconds dispatch = 0.0;         //!< token dispatch, contention in
    Seconds combine = 0.0;          //!< token combine
    std::vector<Seconds> expertFwd; //!< expert forward, per device
};

/**
 * Expert TP degree `spec` prices with: its expertTpDegree for
 * Megatron, 1 for every other system.
 * @throws FatalError when the degree does not divide n_devices.
 */
int expertTpDegree(const IterationSpec &spec, int n_devices);

/**
 * Price one MoE layer of `spec` from its received tokens and its
 * dispatch port loads (expertTpPortLoads at expertTpDegree(), which
 * for every system but Megatron is RoutingPlanSparse::portLoads or
 * liteRoutingLoads). Reads no plan; spec.withGradSync does not enter.
 *
 * @param cluster  Topology.
 * @param spec     The micro-batch (model, system, flags, expert TP).
 * @param recv     Tokens each device receives.
 * @param loads    Dispatch port loads of the layer.
 * @param out      Filled durations (storage reused).
 */
void priceLayer(const Cluster &cluster, const IterationSpec &spec,
                const std::vector<TokenCount> &recv,
                const A2aPortLoads &loads, LayerTiming &out);

/**
 * Replay the full forward+backward schedule of one micro-batch over
 * priced layers, in launch order on per-(device, stream) clocks, and
 * return its timing breakdown. The spec's plans are not read. Throws
 * FatalError for an invalid spec or a negative task duration.
 */
MicroBatchResult replayMicroBatch(const Cluster &cluster,
                                  const IterationSpec &spec,
                                  const std::vector<LayerTiming> &layers);

/** Price the spec's layer plans (layerSparse, or layerPlans
 * compressed once; exactly one of them) with priceLayer and replay
 * them once with replayMicroBatch. */
MicroBatchResult simulateMicroBatch(const Cluster &cluster,
                                    const IterationSpec &spec);

/** Optimizer-step duration (fully sharded parameter sweep). */
Seconds optimizerStepTime(const ModelConfig &model, int n_devices);

/** LM-head forward time for one micro-batch (backward costs 2x). */
Seconds lmHeadForwardTime(const ModelConfig &model, TokenCount tokens,
                          int tp_degree, double compute_flops);

} // namespace laer

#endif // LAER_RUNTIME_ITERATION_HH
