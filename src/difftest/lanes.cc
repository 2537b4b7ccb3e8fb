#include "difftest/lanes.hh"

namespace laer
{

namespace
{

/** Run one serving configuration of the scenario and capture its
 * checkpoint stream at the scenario's snapshot cadence. */
LaneRun
servingRun(const Scenario &scenario, const std::string &label,
           const ServingConfig &config,
           const ControlLoopConfig *loop = nullptr)
{
    LaneRun run;
    run.label = label;
    // Observability key: scenario seed + side, so campaign-level
    // --trace-out/--metrics-out artifacts separate the replays.
    RunCapture capture = captureServingRun(
        scenario.makeCluster(), config, scenario.snapshotInterval, loop,
        "s" + std::to_string(scenario.seed) + "/" + label);
    run.stream = std::move(capture.stream);
    run.report = std::move(capture.report);
    run.traceViolations = std::move(capture.traceViolations);
    return run;
}

// ---- threads: 1 worker vs a pool ------------------------------------

class ThreadsLane : public EquivalenceLane
{
  public:
    const char *name() const override { return "threads"; }
    const char *description() const override
    {
        return "serial tuner/pricer vs 4 worker threads; the fan-out "
               "is reduction-order-stable, so every simulated number "
               "is bit-identical";
    }
    LaneRun runRef(const Scenario &s) const override
    {
        ServingConfig cfg = s.serving;
        cfg.threads = 1;
        return servingRun(s, "threads=1", cfg);
    }
    LaneRun runCandidate(const Scenario &s) const override
    {
        ServingConfig cfg = s.serving;
        cfg.threads = 4;
        return servingRun(s, "threads=4", cfg);
    }
};

// ---- serial-vs-parallel-des: windowed event core fan-out ------------

class SerialParallelDesLane : public EquivalenceLane
{
  public:
    const char *name() const override
    {
        return "serial-vs-parallel-des";
    }
    const char *description() const override
    {
        return "windowed event core at 1 worker vs 4, driven by an "
               "active threshold autoscaler over replica slices; "
               "per-engine window buffers merge in engine order, so "
               "every simulated number is bit-identical";
    }
    Scenario prepare(Scenario s) const override
    {
        // The windowed core runs aggregated pools only; replica
        // slices of half the cluster give the autoscaler real
        // scale decisions to exercise the serial reconfig fallback.
        if (s.serving.policy == ServingPolicy::Disaggregated)
            s.serving.policy = ServingPolicy::LaerServe;
        s.serving.desParallel = true;
        s.serving.replicas.replicaDevices =
            (s.nodes * s.devicesPerNode) / 2;
        return s;
    }
    LaneRun runAt(const Scenario &s, int threads) const
    {
        ServingConfig cfg = s.serving;
        cfg.threads = threads;
        ControlLoopConfig loop;
        loop.interval = s.controlInterval;
        loop.kind = AutoscalerKind::ThresholdHysteresis;
        return servingRun(
            s, "des-threads=" + std::to_string(threads), cfg, &loop);
    }
    LaneRun runRef(const Scenario &s) const override
    {
        return runAt(s, 1);
    }
    LaneRun runCandidate(const Scenario &s) const override
    {
        return runAt(s, 4);
    }
};

// ---- metrics-mode: Exact vs Streaming storage -----------------------

class MetricsModeLane : public EquivalenceLane
{
  public:
    const char *name() const override { return "metrics-mode"; }
    const char *description() const override
    {
        return "Exact vs Streaming metrics sample storage; bounding "
               "observability memory must not move one counter";
    }
    LaneRun runRef(const Scenario &s) const override
    {
        ServingConfig cfg = s.serving;
        cfg.metricsMode = MetricsMemoryMode::Exact;
        return servingRun(s, "metrics=exact", cfg);
    }
    LaneRun runCandidate(const Scenario &s) const override
    {
        ServingConfig cfg = s.serving;
        cfg.metricsMode = MetricsMemoryMode::Streaming;
        return servingRun(s, "metrics=streaming", cfg);
    }
};

// ---- control-none: bare run vs an observe-only loop -----------------

class ControlNoneLane : public EquivalenceLane
{
  public:
    const char *name() const override { return "control-none"; }
    const char *description() const override
    {
        return "ServingSimulator::run() vs a ControlLoop with "
               "AutoscalerKind::None; observing must not perturb";
    }
    DiffOptions diffOptions() const override
    {
        DiffOptions options;
        // Window telemetry exports only the driven side emits.
        options.ignorePrefixes.push_back("ctrl.");
        return options;
    }
    LaneRun runRef(const Scenario &s) const override
    {
        return servingRun(s, "uncontrolled", s.serving);
    }
    LaneRun runCandidate(const Scenario &s) const override
    {
        ControlLoopConfig loop;
        loop.interval = s.controlInterval;
        loop.kind = AutoscalerKind::None;
        return servingRun(s, "loop=none", s.serving, &loop);
    }
};

// ---- swap-recompute: preemption modes on an unpressured pool --------

class SwapRecomputeLane : public EquivalenceLane
{
  public:
    const char *name() const override { return "swap-recompute"; }
    const char *description() const override
    {
        return "Recompute vs Swap preemption on a KV pool sized so "
               "no preemption ever fires (the regime where the modes "
               "are defined to be equivalent)";
    }
    Scenario prepare(Scenario s) const override
    {
        // An ample synthetic pool: byte admission stays enabled (the
        // KV accounting path runs) but reservations can never reach
        // the budget, so zero preemptions occur on either side.
        s.serving.hbmPerDevice = 0;
        s.serving.batcher.kvBytesPerToken = 1;
        s.serving.batcher.kvBlockTokens = 16;
        s.serving.batcher.kvBudgetBytes = Bytes(1) << 40;
        return s;
    }
    LaneRun runRef(const Scenario &s) const override
    {
        ServingConfig cfg = s.serving;
        cfg.batcher.preemptionMode = PreemptionMode::Recompute;
        return servingRun(s, "preempt=recompute", cfg);
    }
    LaneRun runCandidate(const Scenario &s) const override
    {
        ServingConfig cfg = s.serving;
        cfg.batcher.preemptionMode = PreemptionMode::Swap;
        return servingRun(s, "preempt=swap", cfg);
    }
};

// ---- fault-determinism: faulted runs replay bit-identically ---------

class FaultDeterminismLane : public EquivalenceLane
{
  public:
    const char *name() const override { return "fault-determinism"; }
    const char *description() const override
    {
        return "same seed + fault plan across thread counts, the "
               "windowed-core request and metrics modes; kills, "
               "backoff retries and repairs must replay bit-identical "
               "(faulted runs pin the serial event core, so none of "
               "those knobs may move a counter)";
    }
    Scenario prepare(Scenario s) const override
    {
        // Every replay is faulted. Scenarios that did not draw a plan
        // get the canonical one: a replica topology with a mid-run
        // kill + scripted repair; Disaggregated keeps its split and
        // takes a boundary-link flap instead.
        if (s.serving.policy != ServingPolicy::Disaggregated) {
            s.serving.policy = ServingPolicy::LaerServe;
            s.serving.replicas.replicaDevices =
                (s.nodes * s.devicesPerNode) / 2;
            s.serving.replicas.initialReplicas = 2;
        }
        if (!s.serving.faults.enabled()) {
            const Seconds down = 0.35 * s.serving.horizon;
            const Seconds up = 0.60 * s.serving.horizon;
            if (s.serving.policy == ServingPolicy::Disaggregated) {
                s.serving.faults.events.push_back(
                    {down, FaultKind::LinkDown, 0, 1.0});
                s.serving.faults.events.push_back(
                    {up, FaultKind::LinkUp, 0, 1.0});
            } else {
                s.serving.faults.events.push_back(
                    {down, FaultKind::ReplicaFail, 1, 1.0});
                s.serving.faults.events.push_back(
                    {up, FaultKind::ReplicaRepair, 1, 1.0});
            }
            s.serving.faults.backoffBase = 0.02;
        }
        return s;
    }
    LaneRun runRef(const Scenario &s) const override
    {
        ServingConfig cfg = s.serving;
        cfg.threads = 1;
        cfg.metricsMode = MetricsMemoryMode::Exact;
        return servingRun(s, "fault-threads=1", cfg);
    }
    LaneRun runCandidate(const Scenario &s) const override
    {
        ServingConfig cfg = s.serving;
        cfg.threads = 4;
        // Faulted runs must pin the serial core even when the
        // windowed core is requested (the config gate rejects the
        // request under Disaggregated before faults are consulted).
        cfg.desParallel = cfg.policy != ServingPolicy::Disaggregated;
        cfg.metricsMode = MetricsMemoryMode::Streaming;
        return servingRun(s, "fault-threads=4", cfg);
    }
};

} // namespace

const std::vector<const EquivalenceLane *> &
equivalenceLanes()
{
    static const ThreadsLane threads;
    static const SerialParallelDesLane serial_parallel_des;
    static const MetricsModeLane metrics_mode;
    static const ControlNoneLane control_none;
    static const SwapRecomputeLane swap_recompute;
    static const FaultDeterminismLane fault_determinism;
    static const std::vector<const EquivalenceLane *> lanes = {
        &threads, &serial_parallel_des, &metrics_mode, &control_none,
        &swap_recompute, &fault_determinism,
    };
    return lanes;
}

const EquivalenceLane *
laneByName(const std::string &name)
{
    for (const EquivalenceLane *lane : equivalenceLanes())
        if (name == lane->name())
            return lane;
    return nullptr;
}

LaneOutcome
runLane(const EquivalenceLane &lane, const Scenario &scenario)
{
    LaneOutcome outcome;
    outcome.lane = lane.name();
    outcome.scenario = lane.prepare(scenario);

    const LaneRun ref = lane.runRef(outcome.scenario);
    const LaneRun cand = lane.runCandidate(outcome.scenario);

    outcome.diff =
        diffStreams(ref.stream, cand.stream, lane.diffOptions());
    outcome.diff.refLabel = ref.label;
    outcome.diff.candLabel = cand.label;

    InvariantContext context;
    context.totalDevices =
        outcome.scenario.nodes * outcome.scenario.devicesPerNode;
    outcome.refViolations = checkStreamInvariants(ref.stream, context);
    outcome.candViolations = checkStreamInvariants(cand.stream, context);
    outcome.refViolations.insert(outcome.refViolations.end(),
                                 ref.traceViolations.begin(),
                                 ref.traceViolations.end());
    outcome.candViolations.insert(outcome.candViolations.end(),
                                  cand.traceViolations.begin(),
                                  cand.traceViolations.end());
    return outcome;
}

} // namespace laer
