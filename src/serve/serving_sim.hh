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
#include "serve/request.hh"
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
    /** Worker threads for the per-layer tune/route fan-out and the
     * tuner's scheme set (core/thread_pool.hh): 1 = serial (default),
     * 0 = hardware concurrency. Results are identical for any value;
     * only wall time changes. */
    int threads = 1;
    /** Wall-clock budget per LAER retune in milliseconds; 0 disables
     * the check. Overruns are reported per retune in ServingReport
     * (the planner must stay inside the budget for async re-layout
     * to hide behind serving steps at 512-1024 devices). */
    double tunerBudgetMs = 0.0;
    /** Windowed share-nothing event core (docs/PERF.md): between
     * control barriers (setBarrier()) and snapshot boundaries, the
     * engines advance independently over `threads` workers against
     * per-window pre-binned arrivals; each worker buffers its engine's
     * produced steps, and the window end applies them through the
     * serial core's own step body in deterministic (time, engine)
     * order. Results are bit-identical for ANY thread count (the
     * serial-vs-parallel-des difftest lane), but NOT to the default
     * per-event core: arrivals dispatch against window-start replica
     * loads instead of per-arrival live loads.
     * While a reconfiguration is in flight the simulator falls back to
     * the per-event path, so autoscaled runs stay exact. Requires a
     * non-disaggregated policy. Default off — the default path stays
     * byte-for-byte with its history. */
    bool desParallel = false;

    // ---- observability (src/obs/, docs/OBSERVABILITY.md) ----------
    // All of it is strictly write-only: recorders are never read back,
    // so attaching them cannot change a single simulated number, and
    // leaving them null (the default) skips every emission behind one
    // pointer test.

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

/** One control-plane reconfiguration on the run's timeline. */
struct ScalingEvent
{
    Seconds requested = 0.0; //!< decision time
    Seconds applied = 0.0;   //!< drains done / capacity usable
    std::string action;      //!< "replicas" or "split"
    int before = 0;          //!< replica count, or prefill devices
    int after = 0;
    Seconds loadDelay = 0.0; //!< model (re)shard time over kHostLinkBw
    int rehomed = 0;         //!< live requests drained + re-enqueued
};

/** Availability section of a faulted run's report (all zero /
 * empty when ServingConfig::faults is disabled). The simulator keeps
 * one live copy as the run plays; buildReport() copies it whole and
 * closes the MTTR mean and a still-open degraded window. */
struct AvailabilityReport
{
    std::int64_t faultsInjected = 0;  //!< injecting events applied
    std::int64_t repairs = 0;         //!< fault-killed replicas rebuilt
    std::int64_t requestsRetried = 0; //!< backoff re-queues scheduled
    std::int64_t requestsFailed = 0;  //!< retry budget exhausted
    std::int64_t transfersAborted = 0; //!< KV transfers cut by a dead link
    Seconds mttrMean = 0.0;   //!< mean fault -> Active-again time
    Seconds mttrMax = 0.0;    //!< worst repair
    Seconds degradedSeconds = 0.0; //!< time with any fault active
    double degradedGoodputTps = 0.0; //!< goodput while degraded
    std::vector<std::int64_t> failedByClass; //!< per SLO class
    std::vector<FaultEvent> timeline; //!< applied events, in order
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
 * The simulator. step() advances the next engine step or event jump;
 * run() plays the whole horizon and drains every pool.
 */
class ServingSimulator
{
  public:
    ServingSimulator(const Cluster &cluster, const ServingConfig &config);
    ~ServingSimulator();

    /**
     * Advance the simulation: admit due arrivals and inter-pool
     * migrations, run every engine that is free and has work at the
     * current time, otherwise jump to the next event.
     * @return false once the horizon has passed and all work drained.
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

    /** Replica slots carved at construction (1 unless
     * ReplicaConfig::replicaDevices is set; 2 when disaggregated). */
    int replicaSlots() const { return static_cast<int>(slots_.size()); }

    /** Engines not Stopped — live replicas (or pools). */
    int activeReplicas() const;

    /** Devices in the prefill pool; 0 for non-disaggregated runs. */
    int prefillDevices() const;

    /** True while a requested reconfiguration has not fully applied
     * (an engine is still draining, or a split is pending). */
    bool reconfigPending() const;

    /**
     * Ask for `target` live replicas (replica mode only; clamped to
     * [1, replicaSlots()]). Scale-up activates stopped slices behind a
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
     * Cap the windowed event core's next advancement window at `t`
     * (ctrl/control_loop.cc calls this with its next decision
     * boundary, so no window ever crosses a decision point). Must be
     * in the future. A no-op for the default per-event core, whose
     * clock only ever lands ON events — the control loop simply reads
     * now() after each step. */
    void setBarrier(Seconds t);

    /** Requests offered so far (the control plane's arrival counter). */
    std::int64_t offeredRequests() const { return offered_; }

    // ---- fault-injection signals (src/fault/, zeros when off) ------

    /** Fault events applied so far. */
    std::int64_t faultsSoFar() const { return avail_.faultsInjected; }

    /** Fault-killed replicas rebuilt back to Active so far. */
    std::int64_t repairsSoFar() const { return avail_.repairs; }

    /** Requests that exhausted their retry budget so far. */
    std::int64_t failedSoFar() const { return avail_.requestsFailed; }

    /** Requests currently waiting out a retry backoff. */
    int retryingNow() const
    {
        return static_cast<int>(retryQueue_.size());
    }

    /** Engines currently dead from an unrepaired fault. */
    int deadReplicas() const;

    /** Transfer-stall seconds accumulated so far. */
    Seconds transferStallSoFar() const { return transferStallSeconds_; }

    /** Integral of powered devices over simulated time so far. */
    double deviceSecondsSoFar() const;

    /** Current simulated time. */
    Seconds now() const { return now_; }

    /** Latency collector (valid during and after a run). */
    const ServingMetrics &metrics() const { return metrics_; }

    /** Per-step results recorded so far (all pools, start order). */
    const std::vector<ServingStepResult> &stepResults() const
    {
        return steps_;
    }

    /** Engines driving this run: 1, or 2 when disaggregated. */
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

    /** Per-pool accounting accumulated as the run plays. */
    struct PoolStats
    {
        std::int64_t preemptions = 0;
        int steps = 0;
        Accumulator kvUtil;
    };

    /** Resolve one pool's engine configuration from the run config. */
    EngineConfig engineConfigFor(const DevicePoolSlice &slice,
                                 int pool_index) const;

    /** Model-load delay of spinning a pool of this size up: the
     * per-device inference model state over the host link. */
    Seconds loadDelayFor(const DevicePoolSlice &slice) const;

    /** KV parameters of one pool; budget 0 is maxRunning slot mode. */
    struct PoolKv
    {
        Bytes budget = 0;
        Bytes bytesPerToken = 0;
        TokenCount blockTokens = 1;

        /** Block-rounded bytes a `context`-token context reserves. */
        Bytes bytesFor(TokenCount context) const
        {
            return (context + blockTokens - 1) / blockTokens *
                   blockTokens * bytesPerToken;
        }
    };

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
     * `load[i]` when a load picture is given (the windowed core's
     * window-start loads plus its binned arrivals). */
    int leastLoadedLive(const std::vector<int> &load = {}) const;

    /** Replace stopped slot `i`'s whole Incarnation with a fresh
     * Loading engine on `slice` (its own, or the split's new one)
     * busy until the model-load delay ends: scale-up, fault repair
     * and the split re-partition all rebuild through here.
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
     * record its admit instant and request-trace admission, and
     * consume the lookahead.
     * @return the admitted request, for the caller to enqueue. */
    Request admitArrival(std::size_t target);

    /** Apply due reconfigurations: promote loaded engines, drain due
     * Draining engines (re-homing their requests), and re-partition
     * once a pending split's pools have both drained. No-op for
     * static runs. */
    void applyReconfig();

    /** Admit every arrival due at or before now_ (horizon-bounded). */
    void pumpArrivals();

    /** Hand transferred contexts to the decode pool; set back-pressure. */
    void pumpMigrations();

    /** Route one pool's finished requests: metrics, or migration. */
    void harvestFinished(int pool_index, std::vector<Request> finished);

    /** Record one completed request: latency collector + histograms. */
    void recordCompletion(const Request &done);

    /** Run every free engine with schedulable work at now_.
     * @return true when at least one engine executed a step. */
    bool runDueEngines();

    /** Everything one engine step produced, handed from produceStep()
     * to applyStep(). The windowed core buffers these on its workers
     * and applies them in deterministic order at the window merge. */
    struct StepRecord
    {
        ServingStepResult result; //!< start and pool set even when idle
        bool idle = false;        //!< empty plan: nothing executed
        std::vector<PreemptionRecord> preempted; //!< planStep() evictions
        std::int64_t admissions = 0;       //!< admitted by planStep()
        std::vector<Request> completions;  //!< finished at commit
        /** Sampled requests' residency shares of this step (empty
         * unless a ReqTraceRecorder is attached). */
        std::vector<ReqStepShare> shares;
        RetuneWallSample retune;  //!< valid when result.retuned
        double execMs = 0.0;      //!< wall inside executeStep (selfProfile)
    };

    /** Plan, execute (straggler factor applied), capture request
     * shares, commit and collect the finished requests of one step of
     * engine `i` starting at `t`. Touches only engine `i`, so the
     * windowed core runs it on worker threads. */
    StepRecord produceStep(std::size_t i, Seconds t);

    /** Account for and emit one produced step on the simulator thread:
     * preemptions, KV utilization, pool stats, trace spans, registry
     * samples, completions, the shared-layout hand-off and the run's
     * own counters (steps, admissions, retunes). Every step of every
     * engine instance passes through here, so engine rebuilds cannot
     * drop a count. */
    void applyStep(std::size_t i, StepRecord rec);

    /** step() body (step() wraps it with snapshots + profiling). */
    bool stepOnce();

    // ---- fault injection (src/fault/; inert on an empty plan) -------

    /** Apply fault-plan events due at now_, then any deferred
     * fail-stop whose engine has reached its busy-until. The next
     * scripted event and every deferred kill's step end are wakes of
     * nextEventTime(), so each lands exactly on its own time. */
    void applyFaults();

    /** Apply one fault event at now_ (idempotent per kind): record
     * it in the timeline, count it when it injects, emit its instant,
     * then run its effects. A no-op event records nothing. */
    void applyFaultEvent(const FaultEvent &event);

    /** Fail-stop engine `i` NOW: harvest its completed requests,
     * drain the rest into the retry queue (KV lost — recompute
     * disposition), and leave the slot Stopped until a repair or the
     * autoscaler rebuilds it. */
    void applyKill(std::size_t i);

    /** Rebuild a fault-killed slot behind its model-load delay
     * (scripted ReplicaRepair; autoscaler rebuilds take the
     * requestReplicas() path and close the same MTTR clock). */
    void applyRepair(std::size_t i);

    /** Queue `request` for re-admission after its capped exponential
     * backoff; counts it failed once past the retry budget. */
    void scheduleRetry(Request request, Seconds killed_at);

    /** Count `request` failed (budget exhausted / unservable). */
    void failRequest(const Request &request);

    /** Abort a KV handover cut by a dead boundary link: the context
     * re-parks its decode target and retries through the prefill pool
     * (recompute — the KV was released at the pool boundary).
     * `killed_at` is the instant through which the request's prior
     * work has already been attributed (the prefill finish for a
     * handover that never touched the wire, the wire's would-be end
     * for one cut in flight) — the retry dead time starts there, not
     * at the event that noticed the cut, so the per-request
     * attribution stays exact. */
    void abortTransfer(Request request, Seconds killed_at);

    /** Re-derive engine `i`'s KV budget from its surviving devices
     * (byte-accounting runs only); unservable requests fail. */
    void resizePoolKv(std::size_t i);

    /** Re-admit retries whose backoff has elapsed at class front;
     * fail-fast when no engine can ever serve them again, or when
     * their target can never hold them. */
    void pumpRetries();

    /** Engine a retried request re-enters, or -1 when none is live
     * (Disaggregated retries go back to their phase's pool). */
    int pickRetryTarget(const Request &request) const;

    /** True while currently-unservable work (a retry, a context at a
     * closed decode door) should keep waiting: a reconfiguration is
     * pending, an engine is Loading, or the plan still holds a repair
     * (or a LinkUp while the boundary link is down). */
    bool reviveExpected() const;

    /** Re-evaluate the degraded predicate after any fault-state
     * transition; accrues degraded time and its goodput window. */
    void updateDegraded();

    /** Any fault condition currently active? */
    bool faultActive() const;

    // ---- windowed event core (ServingConfig::desParallel) ----------

    /** Everything one engine produces while advancing through a
     * window. */
    struct WindowBuffer
    {
        std::vector<StepRecord> steps;
        double wallMs = 0.0;   //!< worker wall inside runEngineWindow
    };

    /** Windowed step(): advance every engine to the next barrier /
     * snapshot boundary in parallel, then merge. Falls back to
     * stepOnce() while a reconfiguration is in flight. */
    bool stepWindow();

    /** Generate and bin this window's arrivals per engine against the
     * window-start load picture. Advances offered_ and the lookahead. */
    std::vector<std::vector<Request>> binWindowArrivals(Seconds window_end);

    /** Advance engine `i` through [now_, window_end): admit its binned
     * arrivals, promote it when its shards land, and produce its
     * steps into `buf`. Runs on a worker thread: touches only the
     * engine and `buf`. */
    void runEngineWindow(std::size_t i, Seconds window_end,
                         const std::vector<Request> &arrivals,
                         WindowBuffer &buf);

    /** Apply the window's buffered steps in (step start, engine
     * index) order — the interleaving a serial sweep of the same
     * windows would have produced. The serial core needs no
     * hand-off: its next event is re-derived from the state. */
    void mergeWindowBuffers(std::vector<WindowBuffer> &buffers);

    // ---- observability plumbing (no-ops when nothing is attached) --

    /** Track-name prefix: "<obsLabel>/" or "". */
    std::string obsPrefix() const;

    /** Get-or-create engine `i`'s serve track. */
    int poolTrack(std::size_t i);

    /** Get-or-create engine `i`'s planner (retune) track. */
    int plannerTrack(std::size_t i);

    /** Get-or-create the shared kv_transfer / control tracks. */
    int kvTrack();
    int controlTrack();

    /** Get-or-create the shared faults track. */
    int faultTrack();

    /** Append a ScalingEvent to the run's record and emit its instant
     * on the control track. */
    void recordScaling(const ScalingEvent &event);

    /** Fold the run's authoritative counters/gauges into the attached
     * registry (called before every snapshot). */
    void updateRegistryGauges();

    /** Record due periodic CounterSnapshots (simulated cadence). */
    void maybeSnapshot();

    // ---- per-request lifecycle tracing (obs/req_trace.hh) ----------

    /** Collect the sampled requests' residency shares of one priced
     * step (each plan entry says whether it replays a preempted
     * context and whether it emits the first token). Reads only its
     * arguments and the recorder's pure sampling predicate, so
     * produceStep() may call it on a worker; no-op (empty out) when
     * no recorder is attached. */
    void captureStepShares(const BatchPlan &plan,
                           const ServingStepResult &result,
                           int pool_index,
                           std::vector<ReqStepShare> &out) const;

    /** Feed preemption events + step shares to the recorder
     * (simulator thread only). */
    void replayStepTrace(const std::vector<PreemptionRecord> &preempted,
                         Seconds preempt_time,
                         const std::vector<ReqStepShare> &shares);

    /** Retire a sampled completion: exact attribution, conservation
     * check, per-class aggregation, Perfetto emission. */
    void retireSampledRequest(const Request &done);

    /** Earliest future event: an engine's step end, load or drain
     * (or its deferred fail-stop), the next arrival, the migration
     * front, the next scripted fault and the retry front (neither
     * exists on an empty plan). +infinity when the run has fully
     * drained. One O(engines) scan re-derived from the state on every
     * call, so no mutation has to keep a second copy of the wake
     * sources up to date. */
    Seconds nextEventTime() const;

    /** Build the report from the current state (run()/finish()). */
    ServingReport buildReport() const;

    const Cluster &cluster_;
    ServingConfig config_;
    std::unique_ptr<ThreadPool> threadPool_; //!< shared by the engines
    ArrivalProcess arrivals_;
    ServingMetrics metrics_;
    /** Per-engine state: the engine incarnation, which rebuildEngine()
     * replaces whole so nothing of a stopped engine reaches its
     * successor, beside what outlives a rebuild. */
    struct Slot
    {
        struct Incarnation
        {
            std::unique_ptr<ServingEngine> engine; //!< owns its slice
            double stragglerFactor = 1.0; //!< step slowdown (faults)
            int deadDevices = 0;          //!< masked devices (faults)
            bool pendingKill = false;     //!< fail-stop due at freeAt
            Seconds drainStart = -1.0;    //!< beginDrain time, or < 0
        };
        Incarnation inc;
        // Slot lifetime: these outlive a rebuild.
        Seconds freeAt = 0.0;          //!< busy until
        Seconds faultDownSince = -1.0; //!< MTTR clock start, or < 0
        PoolStats stats;               //!< the pool's run totals

        ServingEngine &engine() const { return *inc.engine; }
    };
    std::vector<Slot> slots_; //!< by slot index (0 = prefill pool)

    // Control-plane state. A pending replica scale-down or split is
    // one in-flight ScalingEvent whose drains have not all completed.
    struct PendingReconfig
    {
        bool active = false;
        bool split = false;        //!< split vs replica scale-down
        int target = 0;            //!< prefill devices / replica count
        Seconds requestedAt = 0.0;
        int before = 0;
        int rehomed = 0;
        std::vector<std::vector<Request>> held; //!< split: per old pool
    };
    PendingReconfig pending_;
    std::vector<ScalingEvent> scalingEvents_;
    double deviceSeconds_ = 0.0;
    Seconds lastPowerAccrual_ = 0.0;
    std::deque<PendingMigration> migrations_; //!< sorted by readyAt
    Request lookahead_;          //!< next not-yet-due arrival
    bool lookaheadValid_ = false;
    bool offeringClosed_ = false;
    Seconds now_ = 0.0;

    // Fault-injection state (src/fault/; inert on an empty plan).
    struct PendingRetry
    {
        Request request;
        Seconds killedAt = 0.0; //!< eviction time (attribution span)
        Seconds readyAt = 0.0;  //!< backoff elapses here
    };
    std::vector<FaultEvent> faultPlan_; //!< expanded, time-sorted
    std::size_t nextFault_ = 0;         //!< walk cursor into the plan
    double linkFactor_ = 1.0; //!< boundary-link wire multiplier
    bool linkDown_ = false;   //!< boundary link fail-stopped
    std::deque<PendingRetry> retryQueue_;   //!< sorted by readyAt
    /** The run's availability record, kept live: mttrMean stays 0 and
     * degradedSeconds sums only closed windows until buildReport(). */
    AvailabilityReport avail_;
    Seconds mttrSum_ = 0.0;        //!< over avail_.repairs samples
    Seconds degradedSince_ = -1.0; //!< < 0 while healthy
    std::int64_t goodTokensAtDegradeStart_ = 0;
    std::int64_t degradedGoodTokens_ = 0;

    // Windowed event core state.
    Seconds barrier_ = 0.0;      //!< next control barrier (set in ctor
                                 //!< to +inf; setBarrier() caps it)
    std::int64_t offered_ = 0;
    std::int64_t migrated_ = 0;
    Bytes kvTransferBytes_ = 0;
    Seconds kvTransferSeconds_ = 0.0;
    Seconds transferStallSeconds_ = 0.0;
    // Run totals kept by applyStep(); they outlive engine rebuilds.
    std::vector<ServingStepResult> steps_;
    std::vector<RetuneWallSample> retuneWall_; //!< one per retune
    std::int64_t admissions_ = 0;

    // Observability state (inert when no recorder/registry attached).
    Seconds nextSnapshot_ = 0.0; //!< next periodic boundary
    // Self-profiling accumulators (real milliseconds).
    double profExecMs_ = 0.0; //!< wall inside executeStep()
    double profStepMs_ = 0.0; //!< wall inside step()
    // Windowed-core profiling (profile.descore.* gauges + trace
    // spans; measured only when a registry/trace/selfProfile asks).
    std::int64_t descoreWindows_ = 0;   //!< parallel windows advanced
    std::int64_t descoreSteps_ = 0;     //!< engine steps inside them
    double descoreFanoutMs_ = 0.0;      //!< wall across the fan-out
    double descoreWorkerBusyMs_ = 0.0;  //!< sum of worker busy wall
    double descoreMergeMs_ = 0.0;       //!< wall inside the merge
    double descoreBarrierWaitMs_ = 0.0; //!< fan-out wall minus busy,
                                        //!< summed over engines
};

} // namespace laer

#endif // LAER_SERVE_SERVING_SIM_HH
