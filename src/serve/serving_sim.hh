/**
 * @file
 * End-to-end continuous-batching MoE inference-serving simulator.
 *
 * The serving loop mirrors the training runtime's division of labour
 * (paper Fig. 7) under an open-loop request stream instead of fixed
 * micro-batches: an ArrivalProcess offers requests, and one or more
 * `ServingEngine`s — each bound to a `DevicePoolSlice` of the cluster
 * with its own batcher, KV pool and layout policy — plan, price and
 * commit engine steps on their sub-topologies. The simulator is the
 * event loop that advances simulated time across the engines and
 * moves requests between them.
 *
 * Policies (ServingPolicy, serve/engine.hh):
 *  - LaerServe / StaticEp / FlexMoe: one whole-cluster engine running
 *    the respective expert-placement policy, exactly the PR 1-2
 *    behaviour.
 *  - Aggregated + ReplicaConfig slicing: N whole-model replica
 *    engines on equal cluster slices, arrivals dispatched to the
 *    least-loaded live replica. The live count is a runtime quantity:
 *    the control plane (src/ctrl/) scales it through
 *    requestReplicas(), each engine walking the
 *    Loading/Active/Draining/Stopped lifecycle, with spin-ups priced
 *    as a model load over the host link and drained requests re-homed
 *    onto the survivors.
 *  - Disaggregated: a prefill pool and a decode pool. Arrivals enter
 *    the prefill pool (chunked prefill only; the completing step emits
 *    the first token); the finished context's KV — contextLength *
 *    kvBytesPerToken bytes — is then transferred to the decode pool
 *    over the inter-pool links (serve/device_pool.hh), where
 *    admission is driven by the transferred-context bytes against the
 *    decode pool's own KvCachePool. A transferred context stuck at
 *    the decode pool's door back-pressures the prefill pool by
 *    pausing its admission. Each pool runs its own LAER tuner
 *    (`disagg.sharedLayout = false`) or the decode pool tunes one
 *    layout from the combined traffic that the prefill pool adopts
 *    (`true`).
 *
 * Reported metrics are the serving-world equivalents of the paper's
 * iteration time: TTFT/TPOT percentiles, throughput, SLO-conditioned
 * goodput, and — per pool — KV utilization, preemptions and step
 * counts, plus the KV transfer volume/time and transfer-stall time of
 * a disaggregated run.
 */

#ifndef LAER_SERVE_SERVING_SIM_HH
#define LAER_SERVE_SERVING_SIM_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "fault/fault.hh"
#include "model/config.hh"
#include "model/memory.hh"
#include "obs/obs.hh"
#include "planner/layout_tuner.hh"
#include "serve/arrival.hh"
#include "serve/batcher.hh"
#include "serve/device_pool.hh"
#include "serve/engine.hh"
#include "serve/fault_recovery.hh"
#include "serve/reconfig.hh"
#include "serve/request.hh"
#include "serve/serving_obs.hh"
#include "topo/cluster.hh"
#include "trace/routing_generator.hh"

namespace laer
{

/** Prefill/decode disaggregation knobs (policy == Disaggregated).
 * Both pools run LaerServe placement. */
struct DisaggConfig
{
    /** Devices in the prefill pool; 0 picks half the cluster. The
     * decode pool owns the rest. Each pool must be node-regular and
     * large enough to host every expert. */
    int prefillDevices = 0;

    /** False: each pool runs its own LAER tuner on its own traffic.
     * True: the decode pool tunes one layout from the combined
     * prefill + decode routing and the prefill pool adopts it
     * (requires equal pool sizes). */
    bool sharedLayout = false;
};

/**
 * Replica-autoscaling knobs (aggregated policies only). With
 * `replicaDevices > 0` the cluster divides into equal contiguous
 * slices, each a full model replica running the configured policy;
 * arrivals go to the least-loaded live replica, and the control plane
 * (src/ctrl/) can scale the live count at runtime. Spinning a replica
 * up charges a model-load delay: the slice's per-device inference
 * model state (model/memory.hh) restored over the host link.
 */
struct ReplicaConfig
{
    /** Devices per replica slice; 0 keeps the classic single
     * whole-cluster engine. Must divide the cluster, keep slices
     * node-regular, and give each replica room for every expert. */
    int replicaDevices = 0;

    /** Replicas live at t = 0; 0 means all slices start live. */
    int initialReplicas = 0;
};

/** Full configuration of one serving experiment. */
struct ServingConfig
{
    ModelConfig model;         //!< required; validate()d on start
    ServingPolicy policy = ServingPolicy::LaerServe;
    int capacity = 2;          //!< C, expert slots per device
    int simulatedLayers = 4;   //!< MoE layers priced per step
                               //!< (timing scales to model.layers)
    /** Per-device HBM in bytes. When > 0 the simulator derives each
     * pool's KV-cache pool from it (servingMemoryBudget): model
     * state + activation reserve come off the top, the rest is KV,
     * and admission/preemption run on bytes instead of maxRunning. */
    Bytes hbmPerDevice = 0;
    TokenCount kvBlockTokens = 16; //!< KV paged-allocation granularity
    ArrivalConfig arrival;
    BatcherConfig batcher;     //!< numDevices is filled in by the sim;
                               //!< multi-pool runs split tokenBudget
                               //!< and kvBudgetBytes by device share
    RoutingModel routing;      //!< drift/skew/jitter knobs; the
                               //!< device/expert/token counts are
                               //!< filled in by the simulator
    int retunePeriod = 16;     //!< LAER re-tune cadence, in steps
    TunerConfig tuner;         //!< LAER planner knobs
    DisaggConfig disagg;       //!< pool split (Disaggregated only)
    ReplicaConfig replicas;    //!< replica slicing (aggregated only)
    /** Fault-injection plan (src/fault/). Strictly opt-in: an empty
     * plan (the default) expands to no events, every fault hook stays
     * inert, and the simulation stays byte-for-byte with its
     * history. */
    FaultConfig faults;
    Seconds sloTtft = 0.5;     //!< TTFT target for goodput accounting
    Seconds horizon = 30.0;    //!< seconds of offered traffic
    std::uint64_t seed = 42;   //!< routing-generator seed base
    /** Worker threads for the engines of a multi-engine window, the
     * per-layer tune/route fan-out and the tuner's scheme set
     * (core/thread_pool.hh): 1 = serial (default), 0 = hardware
     * concurrency. Results are identical for any value; only wall
     * time changes. */
    int threads = 1;
    /** Wall-clock budget per LAER retune in milliseconds; 0 disables
     * the check. Overruns are reported per retune in ServingReport
     * (the planner must stay inside the budget for async re-layout
     * to hide behind serving steps at 512-1024 devices). */
    double tunerBudgetMs = 0.0;
    // ---- observability (src/obs/, docs/OBSERVABILITY.md) ----------
    // Recorders are never read back: attaching them cannot change a
    // single simulated number, and leaving them null (the default)
    // skips every emission behind one pointer test. A registry's
    // snapshot grid ends the event core's windows so that each
    // snapshot reads the state at its boundary; window ends never
    // move a request (docs/PERF.md, "The event core").

    /** Optional trace recorder: step/retune/KV-transfer/drain spans
     * and admission/preemption/scaling instants land here. Non-owning;
     * the caller writes the file after the run. */
    TraceRecorder *trace = nullptr;
    /** Optional metrics registry fed by the run's counters, gauges and
     * histograms. Non-owning; the caller exports it after the run. */
    MetricsRegistry *metricsRegistry = nullptr;
    /** Optional per-request lifecycle recorder (obs/req_trace.hh): a
     * deterministic 1-in-N sample of requests gets an ordered event
     * timeline, an exact additive TTFT/E2E attribution folded into
     * ServingMetrics per class, Perfetto per-request tracks + flow
     * events (when `trace` is also attached), and membership in the
     * top-K SLO-miss report. Non-owning; write-only like the rest. */
    ReqTraceRecorder *reqTrace = nullptr;
    /** Simulated seconds between CounterSnapshot recordings into
     * `metricsRegistry`; 0 records only the final snapshot. */
    Seconds snapshotInterval = 0.0;
    /** Sample-storage discipline of the run's ServingMetrics; Exact
     * (default) keeps historical bit-identical percentiles, Streaming
     * bounds memory for million-request sweeps. */
    MetricsMemoryMode metricsMode = MetricsMemoryMode::Exact;
    /** Prefix for trace track names ("AutoReplica@35" ->
     * "AutoReplica@35/replica0"), so several runs of one bench can
     * share a recorder without colliding tracks. */
    std::string obsLabel;
    /** Record per-phase wall-time self-profiling (step pricing vs
     * retune solver vs event loop) into the report and registry. */
    bool selfProfile = false;
};

/** Per-pool slice of a run's summary. */
struct PoolReport
{
    std::string name;           //!< "serve", "prefill", "decode"
    int devices = 0;            //!< pool size
    Bytes kvBudgetBytes = 0;    //!< pool's KV budget; 0 = KV model off
    int steps = 0;              //!< engine steps the pool executed
    std::int64_t preemptions = 0;
    double meanKvUtilization = 0.0;
    double peakKvUtilization = 0.0;
};

/** Summary of a full serving run. */
struct ServingReport
{
    ServingPolicy policy = ServingPolicy::LaerServe;
    std::int64_t offered = 0;   //!< requests admitted before horizon
    std::int64_t completed = 0;
    std::int64_t sloMet = 0;    //!< completions with TTFT <= SLO
    int steps = 0;
    int retunes = 0;
    Seconds elapsed = 0.0;      //!< simulated end of the run
    Seconds ttftP50 = 0.0, ttftP90 = 0.0, ttftP99 = 0.0;
    Seconds tpotP50 = 0.0, tpotP99 = 0.0;
    double throughputTps = 0.0; //!< decode tokens / second
    double goodputTps = 0.0;    //!< SLO-attained decode tokens / second
    double meanBatchTokens = 0.0;
    Seconds meanStepTime = 0.0;
    double meanMaxRelTokens = 0.0; //!< expert-load imbalance proxy
    Seconds migrationTotal = 0.0;
    Bytes kvBudgetBytes = 0;       //!< pool bytes summed; 0 = KV off
    std::int64_t preemptions = 0;  //!< evictions (recompute or swap)
    std::vector<std::int64_t> preemptionsByClass; //!< per SLO class
    double meanKvUtilization = 0.0; //!< over every pool's samples
    double peakKvUtilization = 0.0; //!< max over every pool's samples
    std::vector<PoolReport> pools;  //!< one entry per engine

    // Disaggregation accounting (zero for single-pool policies).
    std::int64_t migrated = 0;     //!< contexts moved prefill -> decode
    Bytes kvTransferBytes = 0;     //!< KV bytes across the pools
    Seconds kvTransferSeconds = 0.0; //!< wire time of those transfers
    Seconds transferStallSeconds = 0.0; //!< transferred contexts stuck
                                        //!< at the decode pool's door

    // Swap-preemption accounting (zero in recompute mode).
    Bytes swapOutBytes = 0;        //!< KV offloaded to host
    Bytes swapInBytes = 0;         //!< KV restored from host
    Seconds swapSeconds = 0.0;     //!< host-link time on the timeline

    // Planner wall-time accounting (real seconds, not simulated).
    double tunerBudgetMs = 0.0;    //!< configured per-retune budget
    double retuneWallMeanMs = 0.0; //!< mean solver wall time per retune
    double retuneWallMaxMs = 0.0;  //!< slowest retune
    int retuneBudgetOverruns = 0;  //!< retunes exceeding the budget
    std::vector<RetuneWallSample> retuneWall; //!< per retune, in
                                              //!< applied-step order

    // Control-plane accounting. Static runs carry no events and
    // deviceSeconds = numDevices * elapsed. The per-window series
    // lives in the driving ControlLoop's telemetry() history.
    double deviceSeconds = 0.0;    //!< integral of powered devices
    std::vector<ScalingEvent> scalingEvents;

    // Wall-time self-profile of the simulator process itself (real
    // milliseconds; zeros unless ServingConfig::selfProfile).
    double profStepPricingMs = 0.0; //!< executeStep() minus the solver
    double profRetuneMs = 0.0;      //!< LAER solver wall time
    double profEventLoopMs = 0.0;   //!< step() wall outside pricing

    /** Per-class latency-component summaries from sampled-request
     * attribution (index = SLO class); empty unless a
     * ReqTraceRecorder was attached and sampled retirements exist. */
    std::vector<std::array<AttributionComponentStats,
                           kNumAttrComponents>>
        attributionByClass;

    /** Fault/recovery accounting (zeros when faults are disabled). */
    AvailabilityReport availability;
};

/**
 * The simulator. step() advances one window of the event core
 * (docs/PERF.md); run() plays the whole horizon and drains every pool.
 */
class ServingSimulator
{
  public:
    ServingSimulator(const Cluster &cluster, const ServingConfig &config);
    ~ServingSimulator();

    /**
     * Advance the simulation by one window: apply due faults and
     * reconfigurations, dispatch the window's arrivals, admit due
     * retries and inter-pool migrations, and run every engine through
     * the window. A window ends at the next dispatch-grid point,
     * control barrier or snapshot boundary; while a coupling between
     * engines can fire (a pending fault plan or retry, a
     * reconfiguration in flight, disaggregated pools) it covers only
     * the current instant. When no engine started a step the clock
     * jumps to the next event.
     * @return false once the horizon has passed and all work drained;
     *         now() then reads the run's end, its last step's end.
     */
    bool step();

    /**
     * Play the configured horizon to completion.
     * @return the aggregated report of the finished run.
     */
    ServingReport run();

    /**
     * Finalize a run that was driven via step() (the clock advances to
     * the last engine's finish, device-seconds close) and build its
     * report. run() is exactly `while (step()) {}` + finish().
     * @return the aggregated report.
     */
    ServingReport finish();

    // ---- control-plane hooks (src/ctrl/) ------------------------------

    /** Engines not Stopped — live replicas (or pools). */
    int activeReplicas() const;

    /** Devices in the prefill pool; 0 for non-disaggregated runs. */
    int prefillDevices() const;

    /** True while a requested reconfiguration has not fully applied
     * (an engine is still draining, or a split is pending). */
    bool reconfigPending() const;

    /**
     * Ask for `target` live replicas (replica mode only; clamped to
     * [1, numEngines()]). Scale-up activates stopped slices behind a
     * model-load delay; scale-down closes admission on the
     * highest-index live slices and drains each at its next idle
     * moment, re-homing live requests onto the surviving replicas.
     * @return true when a reconfiguration was initiated; false when
     *         the target is already met or another one is pending.
     */
    bool requestReplicas(int target);

    /**
     * Ask for a new prefill/decode device split (Disaggregated,
     * per-pool layouts only). Both pools stop admitting, drain at
     * their next idle step boundary (running sequences take the
     * recompute disposition), and the cluster re-partitions; both new
     * pools come back behind their model-reshard delay with fresh
     * layouts re-tuned from live traffic.
     * @param prefill_devices  Devices for the prefill pool; the split
     *                         must be node-regular and leave each pool
     *                         room for every expert.
     * @return true when initiated; false if already at the target, a
     *         reconfiguration is pending, a pool is dead (its repair
     *         comes first), or the split is infeasible.
     */
    bool requestSplit(int prefill_devices);

    /**
     * Smallest pool this run could operate: every expert must fit the
     * pool's slots AND, when the KV model is on, the pool's per-device
     * model shard + activation reserve must leave room for a KV pool
     * (shards grow as pools shrink). requestSplit() enforces this
     * floor; the control plane plans against it.
     */
    int minPoolDevices() const;

    /**
     * End a window at `t` (ctrl/control_loop.cc calls this with its
     * next decision boundary, so no window crosses a decision point;
     * the clock then lands on the first event at or after it, where
     * the loop decides). Must be in the future. A barrier only splits
     * windows: it moves no request. */
    void setBarrier(Seconds t);

    /** Requests offered so far (the control plane's arrival counter). */
    std::int64_t offeredRequests() const { return totals_.offered; }

    // ---- fault-injection signals (src/fault/, zeros when off) ------

    /** The live availability record (faults, repairs, failures so far;
     * see FaultRecovery::live()). */
    const AvailabilityReport &availabilitySoFar() const
    {
        return faults_.live();
    }

    /** Requests currently waiting out a retry backoff. */
    int retryingNow() const { return faults_.retrying(); }

    /** Engines currently dead from an unrepaired fault. */
    int deadReplicas() const { return faults_.deadReplicas(slots_); }

    /** Transfer-stall seconds accumulated so far. */
    Seconds transferStallSoFar() const
    {
        return totals_.transferStallSeconds;
    }

    /** Integral of powered devices over simulated time so far. */
    double deviceSecondsSoFar() const;

    /** Current simulated time. */
    Seconds now() const { return now_; }

    /** Latency collector (valid during and after a run). */
    const ServingMetrics &metrics() const { return metrics_; }

    /** Per-step results recorded so far (all pools, start order). */
    const std::vector<ServingStepResult> &stepResults() const
    {
        return totals_.steps;
    }

    /** Engine slots carved at construction: 1, the replica slices of
     * ReplicaConfig::replicaDevices, or 2 when disaggregated. */
    int numEngines() const { return static_cast<int>(slots_.size()); }

    /** Engine `i` (0 = prefill pool when disaggregated). */
    const ServingEngine &engine(int i) const { return slots_[i].engine(); }

    const ServingConfig &config() const { return config_; }

    /** Topology the simulation runs on. */
    const Cluster &cluster() const { return cluster_; }

  private:
    /** A context whose prefill finished, in flight to the decode pool. */
    struct PendingMigration
    {
        Request request;     //!< decode target restored, finish reset
        Seconds readyAt = 0; //!< prefill finish + wire time
    };

    /** KV parameters of one pool; budget 0 is maxRunning slot mode. */
    struct PoolKv
    {
        Bytes budget = 0;
        Bytes bytesPerToken = 0;
        TokenCount blockTokens = 1;
    };

    /** Where a request that waited outside an engine (a retry, a
     * context at the decode pool's door) goes next. */
    enum class Door
    {
        Enter,  //!< the target takes it
        Wait,   //!< no target now, but a revival is expected
        Failed, //!< counted failed: nothing will ever serve it
    };

    /** Carve the cluster into the run's slots, each with a fresh
     * engine; replica slices beyond the initial count start parked. */
    std::vector<EngineSlot> buildSlots() const;

    /** Resolve one pool's engine configuration from the run config. */
    EngineConfig engineConfigFor(const DevicePoolSlice &slice,
                                 int pool_index) const;

    /** The one derivation of a `devices`-device pool's KV parameters
     * (from simulated HBM, a configured budget split by device share,
     * or slot mode): engineConfigFor() applies it; the split and
     * device-loss paths ask it about pools not yet built.
     * @throws FatalError when HBM is set and the pool's model shard
     *         plus activations leave no room for a KV pool. */
    PoolKv poolKvFor(int devices) const;

    /** Accrue device-seconds up to `t` (call before any change to the
     * powered-device count). */
    void accruePower(Seconds t);

    /** Devices of engines not Stopped. */
    int poweredDevices() const;

    /** Least-loaded accepting engine (ties to the lowest slot), or -1
     * when none accepts. Ranks by each engine's live load(), or by
     * `load[i]` when a load picture is given (fresh arrivals rank by
     * the dispatch grid's picture plus the arrivals dispatched since
     * its refresh). */
    int leastLoadedLive(const std::vector<int> &load = {}) const;

    /** Replace stopped slot `i`'s whole Incarnation with a fresh
     * Loading engine on `slice` (its own, or the split's new one)
     * busy until its model shards land over the host link: scale-up,
     * fault repair and the split re-partition all rebuild through
     * here.
     * @return the load delay. */
    Seconds rebuildEngine(std::size_t i, const DevicePoolSlice &slice);

    /** Close admission on accepting engine `i` (scale-down victims and
     * both pools of a split); the drain completes in applyReconfig()
     * at the engine's next idle moment. */
    void beginEngineDrain(std::size_t i);

    /** Next not-yet-admitted arrival, drawn into the lookahead on
     * demand; null once the stream reaches the horizon (the offering
     * then closes and the run drains what is in flight). */
    const Request *peekArrival();

    /** Admit the peeked arrival to engine `target`: count it offered,
     * emit its admission and consume the lookahead.
     * @return the admitted request, for the caller to enqueue. */
    Request admitArrival(std::size_t target);

    /** Apply due reconfigurations: promote loaded engines, drain due
     * Draining engines (re-homing their requests), and re-partition
     * once a pending split's pools have both drained. No-op for
     * static runs. */
    void applyReconfig();

    /** Dispatch every arrival before `end` (horizon-bounded): due
     * ones join their engine's queue now, later ones its bin, which
     * the engine drains as its window clock reaches them. */
    void dispatchArrivals(Seconds end);

    /** Dispatch the peeked arrival by the grid's load picture (or to
     * the prefill pool) into its engine's queue, or with `to_bin` into
     * its bin.
     * @return its engine, or -1 when no engine accepts it (the front
     *         door then holds it). */
    int dispatchArrival(bool to_bin);

    /** Hand transferred contexts to the decode pool; set back-pressure. */
    void pumpMigrations();

    /** Route one pool's finished requests: metrics, or migration. */
    void harvestFinished(int pool_index, std::vector<Request> finished);

    /** Plan, execute (straggler factor applied), capture request
     * shares, commit and collect the finished requests of one step of
     * engine `i` starting at `t`, and move its window clock to the
     * step's end. Touches only engine `i`, so a fan-out window runs it
     * on worker threads. */
    StepRecord produceStep(std::size_t i, Seconds t, Seconds end);

    /** Account for and emit one produced step on the simulator thread:
     * preemptions, KV utilization, pool stats, its observability,
     * completions, the shared-layout hand-off and the run's own
     * totals (steps, admissions, retunes). Every step of every engine
     * instance passes through here, so engine rebuilds cannot drop a
     * count. */
    void applyStep(std::size_t i, StepRecord rec);

    // ---- fault effects (the fault state lives in faults_) ------------

    /** Apply fault-plan events due at now_ and run each applied
     * event's effects, then any deferred fail-stop whose engine has
     * reached its busy-until. The next scripted event and every
     * deferred kill's step end are wakes of nextEventTime(), so each
     * lands exactly on its own time. */
    void applyFaults();

    /** Fail-stop engine `i` NOW: drain its live requests into the
     * retry queue (KV lost, recompute disposition), and leave the slot
     * Stopped until a repair or the autoscaler rebuilds it. */
    void applyKill(std::size_t i);

    /** Re-admit retries whose backoff has elapsed, at class front,
     * through passDoor(); a Disaggregated retry goes back to its
     * phase's pool. */
    void pumpRetries();

    /** The one door rule for work that waited outside an engine: a
     * target that is not accepting (or none, -1) means Wait while a
     * revival is expected (a pending reconfiguration, a Loading
     * engine, or a repair, or a LinkUp while the link is down, still
     * in the plan) and Failed otherwise: nothing would ever serve it,
     * and failing beats hanging the drain. A target that can never
     * hold the request (a device fault shrank it) means Failed, and
     * so does a disaggregated prefill pool's context the decode pool
     * can never hold (decodeDoorAdmits). Failed requests are counted
     * here. */
    Door passDoor(int target, const Request &request);

    // ---- the event core's windows (docs/PERF.md) ---------------------

    /** Run every engine through the window [now_, end) and apply its
     * steps in (step start, engine index) order. Without `fan_out`
     * the engines interleave on this thread, each step applied as it
     * is produced and each remaining arrival dispatched as the window
     * reaches it; with it, each engine runs its binned window on a
     * worker into its buffer first.
     * @return true when at least one engine executed a step. */
    bool runWindow(Seconds end, bool fan_out);

    /** Advance engine `i`'s window cursor to its next step: enqueue
     * the binned arrivals its clock passes and promote it when its
     * shards land. Touches only the engine and its cursor and bin.
     * @return the step's start, or +infinity when the engine starts no
     *         further step before `end` (its bin is then drained). */
    Seconds nextStart(std::size_t i, Seconds end);

    /** obs_.updateGauges() against the current state. */
    void updateGauges();

    /** Earliest future event: an engine's step end, load or drain
     * (or its deferred fail-stop), the next arrival, the migration
     * front, the retry front and the next scripted fault, which wakes
     * the clock only while work remains or before the last step's end.
     * +infinity when the run has fully drained: a fault scripted after
     * the drain never wakes it. One
     * O(engines) scan re-derived from the state on every call, so no
     * mutation has to keep a second copy of the wake sources up to
     * date. */
    Seconds nextEventTime() const;

    /** The run's end so far: the clock raised to the last step end
     * of every engine not still loading. */
    Seconds runEnd() const;

    /** Build the report from the current state (run()/finish()). */
    ServingReport buildReport() const;

    const Cluster &cluster_;
    ServingConfig config_;
    std::unique_ptr<ThreadPool> threadPool_; //!< shared by the engines
    ArrivalProcess arrivals_;
    ServingMetrics metrics_;
    std::vector<EngineSlot> slots_; //!< by slot index (0 = prefill pool)
    ServingObs obs_;
    FaultRecovery faults_;
    Reconfigurator reconfig_;
    RunTotals totals_;
    double deviceSeconds_ = 0.0;
    Seconds lastPowerAccrual_ = 0.0;
    std::deque<PendingMigration> migrations_; //!< sorted by readyAt
    Request lookahead_;          //!< next not-yet-due arrival
    bool lookaheadValid_ = false;
    bool offeringClosed_ = false;
    Seconds now_ = 0.0;
    Seconds barrier_;            //!< next control barrier; +inf until
                                 //!< setBarrier() caps it
    /** One engine's progress through the current window. */
    struct EngineCursor
    {
        Seconds clock = 0.0;      //!< earliest instant it can act
        Seconds head = 0.0;       //!< its next step's start, or +inf
        std::size_t arrival = 0;  //!< next entry of its bin
        std::size_t step = 0;     //!< next buffered record (fan-out)
    };
    // Window scratch, sized once per run and reused by every window.
    std::vector<std::vector<Request>> bins_;  //!< arrivals per slot
    std::vector<EngineCursor> cursors_;       //!< per slot
    std::vector<WindowBuffer> buffers_;       //!< per slot (fan-out)
    /** The dispatch grid's load picture: each engine's load() at the
     * last grid refresh plus the arrivals dispatched to it since. */
    std::vector<int> dispatchLoad_;
    Seconds nextRefresh_ = 0.0;  //!< next dispatch-grid point
    // Self-profiling accumulators (real milliseconds).
    double profExecMs_ = 0.0; //!< wall inside executeStep()
    double profStepMs_ = 0.0; //!< wall inside step()
};

} // namespace laer

#endif // LAER_SERVE_SERVING_SIM_HH
