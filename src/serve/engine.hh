/**
 * @file
 * ServingEngine — the admit/step/preempt core of the serving
 * simulator, bound to one device pool.
 *
 * PR 1-2 fused scheduling, layout policy, and step pricing inside
 * `ServingSimulator` against a single homogeneous cluster. This layer
 * extracts that core so a simulation owns N engines, each bound to a
 * `DevicePoolSlice`: its own device list and sub-topology, its own
 * `ContinuousBatcher` (token budget + `KvCachePool`), its own routing
 * generators, and optionally its own LAER layout-tuner instance. The
 * classic aggregated policies run one whole-cluster engine;
 * prefill/decode disaggregation runs two.
 *
 * One engine step is: plan (batcher schedules under the pool's token
 * budget, resolving KV pressure), execute (gate the step's tokens,
 * refresh the pool's expert layout per policy, price attention /
 * All-to-All / expert FFN on the pool's sub-cluster as a barrier
 * timeline), commit (advance request progress at the
 * step's finish time). Swap-style preemption traffic recorded by the
 * batcher is charged here at the host-link bandwidth.
 *
 * Step pricing prices each layer once from its received tokens and
 * dispatch port loads. The lite-routed policies (LAER, FlexMoE) get
 * both from the plan-free kernel `liteRoutingLoads`, against a cached
 * `ReplicaIndex` (the tuner's own on a LAER retune, rebuilt only when
 * any other layout change lands); StaticEp routes its fixed in-group
 * rule into a per-layer `RoutingPlanSparse`. Scratch lives per layer
 * and is reused across steps, so neither the dense N x E x N plan nor
 * the dense volume matrices exist at any point — the priced times are
 * bit-identical to the dense formulation. Per-layer tune/route work
 * fans out over an optional `ThreadPool`; LAER retunes are wall-clock
 * timed against `tunerBudgetMs`. executeStep() folds the plan's
 * entries in one pass.
 */

#ifndef LAER_SERVE_ENGINE_HH
#define LAER_SERVE_ENGINE_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/flexmoe.hh"
#include "baselines/static_ep.hh"
#include "core/stats.hh"
#include "model/config.hh"
#include "model/memory.hh"
#include "planner/layout_tuner.hh"
#include "planner/routing_plan_sparse.hh"
#include "serve/batcher.hh"
#include "serve/device_pool.hh"
#include "serve/request.hh"
#include "trace/routing_generator.hh"

namespace laer
{

class ThreadPool;

/** Expert-placement / engine-topology policies compared by the
 * serving benches. The first three run one whole-cluster engine;
 * Disaggregated splits the cluster into a prefill and a decode pool
 * (each running a per-pool layout policy). */
enum class ServingPolicy
{
    LaerServe,     //!< async layout tuner re-runs on live routing
    StaticEp,      //!< fixed vanilla EP placement
    FlexMoe,       //!< incremental adjustment with migration penalty
    Disaggregated, //!< prefill/decode pools with KV transfer hand-off
};

/** Printable policy name. */
const char *servingPolicyName(ServingPolicy policy);

/**
 * Life-cycle state of an engine under the control plane. Engines are
 * born Active (the static single/dual-pool topologies never leave
 * that state); reconfiguration walks Loading -> Active ->
 * Draining -> Stopped:
 *
 *  - Loading: the pool's devices are restoring the model's parameter
 *    shards from host memory; requests may queue but no step runs
 *    until the simulator's clock passes the load delay.
 *  - Active: admitting and stepping normally.
 *  - Draining: admission is closed; at the engine's next idle moment
 *    the simulator calls drain() and re-homes the live requests.
 *  - Stopped: devices surrendered; the engine holds no requests.
 */
enum class EngineState
{
    Loading,
    Active,
    Draining,
    Stopped,
};

/** Printable engine-state name. */
const char *engineStateName(EngineState state);

/** Timing/accounting of one engine step. */
struct ServingStepResult
{
    Seconds start = 0.0;       //!< simulated step start time
    Seconds duration = 0.0;    //!< end-to-end step seconds
    TokenCount tokens = 0;     //!< scheduled tokens (prefill + decode)
    TokenCount prefill = 0;
    TokenCount decode = 0;
    Seconds migration = 0.0;   //!< baseline re-layout overhead
    double maxRelTokens = 0.0; //!< mean over layers of max/mean recv
    bool retuned = false;      //!< LAER applied a fresh layout
    double kvUtilization = 0.0; //!< KV pool reserved/budget after the
                                //!< step was planned (0 when disabled)
    int preemptions = 0;        //!< evictions while planning this step
    int pool = 0;               //!< engine index the step ran on
    Bytes swapOutBytes = 0;     //!< KV offloaded to host this step
    Bytes swapInBytes = 0;      //!< KV restored from host this step
    Seconds swapTime = 0.0;     //!< host-link seconds in `duration`
};

/** The batch-level work of one planned step, before routing. */
struct StepWork
{
    TokenCount tokens = 0;  //!< scheduled tokens (prefill + decode)
    TokenCount prefill = 0;
    TokenCount decode = 0;
    TokenCount sampled = 0; //!< sequences emitting a token (LM head)
    Flops attnFlops = 0.0;  //!< attention work, gate excluded
};

/**
 * Token counts and attention flops of `plan`. Each scheduled token
 * attends over its context: the prompt for prefill, the running
 * context for decode. The decode cohort is summed in closed form,
 * count·weight + 2·heads·headDim·Σcontext; every term and partial sum
 * is an integer below 2^53 (asserted), so the result equals the
 * per-token sum bit for bit.
 */
StepWork stepWork(const ModelConfig &model, const BatchPlan &plan);

/**
 * Makespan of a forward step's simulated layers: per layer the clock
 * adds attention, the dispatch barrier, the slowest device's expert
 * time (recv x flops per token / flop rate) and the combine barrier.
 * @throws FatalError on a negative or NaN duration.
 */
Seconds stepTimelineMakespan(
    Seconds attn, const std::vector<Seconds> &dispatch,
    const std::vector<Seconds> &combine,
    const std::vector<std::vector<TokenCount>> &recv,
    Flops expert_flops_per_token, double compute_flops);

/** Fully resolved configuration of one engine (the simulator derives
 * it from ServingConfig per pool: counts, budgets and seeds are the
 * pool's own). */
struct EngineConfig
{
    ModelConfig model;          //!< validated by the simulator
    ServingPolicy policy = ServingPolicy::LaerServe; //!< layout policy
                                //!< of this pool (not Disaggregated)
    int capacity = 2;           //!< C, expert slots per device
    int simulatedLayers = 4;    //!< MoE layers priced per step
    BatcherConfig batcher;      //!< resolved for the pool (KV budget,
                                //!< token budget)
    RoutingModel routing;       //!< resolved for the pool's device count
    int retunePeriod = 16;      //!< LAER re-tune cadence, in steps
    TunerConfig tuner;          //!< LAER planner knobs
    std::uint64_t seed = 42;    //!< routing-generator seed base
    /** False for the follower pool of a shared-layout disaggregated
     * run: the engine never re-tunes on its own and expects layouts
     * via setLayouts(). */
    bool tuningEnabled = true;
    /** Optional worker pool for the per-layer tune/route fan-out (and,
     * via tuner.pool, the tuner's scheme set). Non-owning; null runs
     * serially. Results are identical for any thread count. */
    ThreadPool *pool = nullptr;
    /** Wall-clock budget per LAER retune in milliseconds; 0 disables
     * the check. Each retune's overrun is flagged in lastRetune(). */
    double tunerBudgetMs = 0.0;
};

/** Wall-clock record of one LAER retune (all layers of one engine). */
struct RetuneWallSample
{
    Seconds simTime = 0.0;  //!< simulated step start that retuned
    double wallMs = 0.0;    //!< real solver wall time
    bool overBudget = false; //!< wallMs > EngineConfig::tunerBudgetMs
};

/**
 * One serving engine: a continuous batcher plus the layout-policy
 * state of its device pool, stepping on the pool's sub-topology. The
 * owning simulator drives the cycle planStep() -> executeStep() ->
 * commitStep() and moves requests in (enqueue) and out (takeFinished).
 */
class ServingEngine
{
  public:
    /**
     * @param slice    Device pool this engine owns (copied).
     * @param config   Resolved engine configuration.
     * @param initial  Active (static topologies), or Loading when the
     *                 control plane spins the pool up and the model
     *                 shards are still in flight from host memory.
     */
    ServingEngine(const DevicePoolSlice &slice, const EngineConfig &config,
                  EngineState initial = EngineState::Active);
    ~ServingEngine();

    /** Admit a request into the pool's waiting queues. */
    void enqueue(const Request &request) { batcher_.enqueue(request); }

    /** Admit a request at the FRONT of its SLO class (fault-recovery
     * retries: the request already waited out a failure and must not
     * queue behind the backlog again). */
    void enqueueFront(const Request &request)
    {
        batcher_.enqueueFront(request);
    }

    /** Re-derive the pool's KV budget (device fault/repair masking).
     * @return requests evicted because their FULL context can no
     *         longer ever fit the new budget (the caller fails them);
     *         running requests that still fit are force-preempted
     *         through the normal recompute path instead. */
    std::vector<Request> resizeKvBudget(Bytes budget)
    {
        return batcher_.resizeKvBudget(budget);
    }

    /** True while any request is waiting or running in this pool. */
    bool hasWork() const { return batcher_.hasWork(); }

    /** Requests waiting or running: the load the front door ranks
     * engines by. */
    int load() const
    {
        return batcher_.waitingCount() + batcher_.runningCount();
    }

    /**
     * Plan the next engine step (KV preemption resolves here). May be
     * empty while admission is paused by back-pressure.
     */
    BatchPlan planStep() { return batcher_.nextBatch(); }

    /**
     * Price a planned step on the pool's sub-cluster: gate the tokens,
     * refresh the pool's layouts per the policy, price the step's
     * barrier timeline (stepTimelineMakespan), and charge swap traffic
     * at the host-link bandwidth.
     * @param plan   Non-empty plan from the last planStep().
     * @param start  Simulated step start time.
     * @return the step's timing/accounting (pool index not yet set).
     */
    ServingStepResult executeStep(const BatchPlan &plan, Seconds start);

    /** Commit a step that finished at `finish_time`. */
    void commitStep(const BatchPlan &plan, Seconds finish_time)
    {
        batcher_.applyStep(plan, finish_time);
    }

    /** Drain requests completed since the last call. */
    std::vector<Request> takeFinished()
    {
        return batcher_.takeFinished();
    }

    /** Drain preemption records (class + request id) since the last
     * call, in eviction order. */
    std::vector<PreemptionRecord> takePreempted()
    {
        return batcher_.takePreempted();
    }

    /** Current life-cycle state (Active unless the control plane is
     * reconfiguring this pool). */
    EngineState state() const { return state_; }

    /** True while the engine accepts new work (Active, or Loading: its
     * queue serves the moment the shards land). */
    bool accepting() const
    {
        return state_ == EngineState::Active ||
               state_ == EngineState::Loading;
    }

    /** Loading -> Active: the model's shards have landed. */
    void setReady();

    /** Active -> Draining: close admission; the owning simulator
     * completes the drain at the engine's next idle moment. */
    void beginDrain();

    /**
     * Draining (or Active) -> Stopped: evict every live request for
     * re-homing (ContinuousBatcher::drainAll semantics: recompute
     * disposition, re-admission order preserved). Must only be called
     * while the engine is idle — no step may be in flight.
     * @return the evicted requests; completed-but-uncollected requests
     *         are NOT included (use takeFinished()).
     */
    std::vector<Request> drain();

    /** The pool's scheduler (KV accessors, admission pause, counts). */
    ContinuousBatcher &batcher() { return batcher_; }
    const ContinuousBatcher &batcher() const { return batcher_; }

    /** Device pool this engine runs on. */
    const DevicePoolSlice &slice() const { return slice_; }

    /** Per-layer expert layouts currently in force. */
    const std::vector<ExpertLayout> &layouts() const { return layouts_; }

    /**
     * Overwrite the per-layer layouts (shared-layout disaggregation:
     * the follower pool adopts the leader's tuned layouts). Layer
     * count and device geometry must match this engine's.
     */
    void setLayouts(const std::vector<ExpertLayout> &layouts);

    /**
     * Fold another pool's per-layer routing of one step into this
     * engine's LAER aggregation window, so a shared layout is tuned
     * from the combined traffic. Matrices must match this engine's
     * device/expert geometry (equal pool sizes).
     */
    void addExternalRouting(const std::vector<RoutingMatrix> &routing);

    /** Per-layer routing matrices drawn by the last executeStep(). */
    const std::vector<RoutingMatrix> &lastRouting() const
    {
        return lastRouting_;
    }

    /** LAER re-tunes applied so far. */
    int retunes() const { return retunes_; }

    /** Wall-clock record of the most recent retune (meaningful once
     * a step came back with `retuned` set). */
    const RetuneWallSample &lastRetune() const { return lastRetune_; }

    const EngineConfig &config() const { return config_; }

  private:
    /** Refresh layouts per the active policy; returns migration cost. */
    Seconds updateLayouts(const std::vector<RoutingMatrix> &routing,
                          ServingStepResult &result);

    /** Per-layer fan-out over the configured pool (serial when null). */
    void runLayers(const std::function<void(int)> &fn);

    /** Mark every per-layer ReplicaIndex stale (layouts changed). */
    void invalidateIndexes();

    DevicePoolSlice slice_;
    EngineConfig config_;
    ContinuousBatcher batcher_;
    EngineState state_ = EngineState::Active;
    int stepIndex_ = 0;
    int retunes_ = 0;

    EpGrouping grouping_;        //!< StaticEp group structure
    std::vector<RoutingGenerator> generators_; //!< one per sim layer
    std::vector<ExpertLayout> layouts_;        //!< per sim layer
    std::vector<RoutingMatrix> aggRouting_;    //!< LAER window sums
    std::vector<RoutingMatrix> lastRouting_;   //!< last step's gating
    std::vector<std::unique_ptr<FlexMoePlanner>> flexPlanners_;

    // Hot-path scratch, one slot per simulated layer, reused across
    // steps so the per-step pricing is allocation-free once warm.
    std::vector<ReplicaIndex> replicaIndex_;  //!< per-layout lists
    std::vector<char> indexDirty_;            //!< rebuild before use
    std::vector<RoutingPlanSparse> sparsePlans_; //!< StaticEp only
    std::vector<LiteRoutingScratch> liteScratch_; //!< lite-routed only
    std::vector<A2aPortLoads> portLoads_;
    std::vector<std::vector<TokenCount>> recvTokens_;
    std::vector<std::vector<double>> recvDouble_; //!< imbalance input
    std::vector<Seconds> layerDispatch_;
    std::vector<Seconds> layerCombine_;
    std::vector<double> layerImbalance_;
    RetuneWallSample lastRetune_;
};

/**
 * The serving simulator's record of one engine slot: the engine
 * incarnation, which a rebuild replaces whole so nothing of a stopped
 * engine reaches its successor, beside what outlives a rebuild. The
 * simulator and the components it owns (serve/fault_recovery.hh,
 * serve/reconfig.hh, serve/serving_obs.hh) read and write slots
 * through this one record.
 */
struct EngineSlot
{
    struct Incarnation
    {
        std::unique_ptr<ServingEngine> engine; //!< owns its slice
        double stragglerFactor = 1.0; //!< step slowdown (faults)
        int deadDevices = 0;          //!< masked devices (faults)
        bool pendingKill = false;     //!< fail-stop due at freeAt
        Seconds drainStart = -1.0;    //!< beginDrain time, or < 0
    };
    /** Per-pool accounting accumulated as the run plays. */
    struct Stats
    {
        std::int64_t preemptions = 0;
        int steps = 0;
        Accumulator kvUtil;
    };
    Incarnation inc;
    // Slot lifetime: these outlive a rebuild.
    Seconds freeAt = 0.0;          //!< busy until
    Seconds faultDownSince = -1.0; //!< MTTR clock start, or < 0
    Stats stats;                   //!< the pool's run totals

    ServingEngine &engine() const { return *inc.engine; }
};

/** Number of `slots` whose engine is in `state`. */
inline int
countSlots(const std::vector<EngineSlot> &slots, EngineState state)
{
    return static_cast<int>(
        std::count_if(slots.begin(), slots.end(),
                      [state](const EngineSlot &slot) {
                          return slot.engine().state() == state;
                      }));
}

} // namespace laer

#endif // LAER_SERVE_ENGINE_HH
