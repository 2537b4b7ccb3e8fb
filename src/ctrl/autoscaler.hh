/**
 * @file
 * Autoscaler policies — the control plane's decision layer.
 *
 * A policy turns the TelemetryBus history into at most one
 * ScalingAction per decision window. Two knob regimes exist, chosen
 * by the run's topology (ControlState):
 *
 *  - Replica mode (ReplicaConfig slicing): the action is a live
 *    replica count in [minReplicas, maxReplicas]. Scaling up costs a
 *    model-load delay, so both built-in policies are deliberately
 *    asymmetric: quick up, slow down.
 *  - Split mode (Disaggregated): the action is a prefill-pool device
 *    count. The ideal split is derived from per-pool pressure
 *    (queue + running per device, with transfer stall counted
 *    against the decode pool) through the planner's Alg. 4
 *    discipline (deviceShareAllocation), then snapped to node-regular
 *    cut points and walked one step per decision.
 *
 * Both built-in implementations are hysteretic by construction —
 * sustained-signal requirements, a dead band between the up and down
 * thresholds, and a cooldown after every action — so a constant-rate
 * arrival stream settles to a fixed configuration instead of
 * oscillating (tested in tests/test_ctrl.cc).
 */

#ifndef LAER_CTRL_AUTOSCALER_HH
#define LAER_CTRL_AUTOSCALER_HH

#include <memory>
#include <string>

#include "ctrl/telemetry.hh"

namespace laer
{

/** What a policy wants done; applied by the ControlLoop. */
struct ScalingAction
{
    enum class Kind
    {
        None,        //!< hold the current configuration
        SetReplicas, //!< ServingSimulator::requestReplicas(target)
        SetSplit,    //!< ServingSimulator::requestSplit(target)
    };

    Kind kind = Kind::None;
    int target = 0;     //!< replica count, or prefill devices
    std::string reason; //!< human-readable trigger, for the timeline
};

/** Shared policy knobs (each policy reads its subset). The thresholds,
 * hysteresis and split-pressure weights are fixed constants of
 * autoscaler.cc (docs/SERVING.md lists them). */
struct AutoscalerConfig
{
    // Replica-count bounds (replica mode).
    int minReplicas = 1;
    int maxReplicas = 1;

    // Consecutive quiet windows (queue and KV both below their low
    // thresholds) before a scale-down.
    int downWindows = 3;

    // Target-utilization policy: track a KV-utilization setpoint with
    // a relative dead band (no action while within
    // [target*(1-deadband), target*(1+deadband)]).
    double targetUtilization = 0.6;
    double deadband = 0.25;
};

/** Topology facts a policy needs to phrase a legal action. */
struct ControlState
{
    bool splitMode = false;  //!< Disaggregated dynamic split?
    int activeReplicas = 1;  //!< live engines now
    int replicaSlots = 1;    //!< slices carved at construction
    int prefillDevices = 0;  //!< current split (split mode)
    int totalDevices = 0;
    int nodeDevices = 1;     //!< split step: devices per node
    int minPoolDevices = 1;  //!< expert-hosting floor per pool
};

/**
 * Policy interface: one decision per closed telemetry window. decide()
 * is called with the bus AFTER the newest window was published;
 * implementations keep their own hysteresis counters.
 */
class AutoscalerPolicy
{
  public:
    virtual ~AutoscalerPolicy();

    /** Printable policy name. */
    virtual const char *name() const = 0;

    /**
     * Decide on the newest window.
     * @param bus    Telemetry history (never empty when called).
     * @param state  Current topology facts.
     * @return the action; Kind::None holds the configuration.
     */
    virtual ScalingAction decide(const TelemetryBus &bus,
                                 const ControlState &state) = 0;
};

/**
 * Threshold + hysteresis (the classic production autoscaler): act on
 * sustained breaches of the queue-depth / KV-utilization thresholds,
 * one replica (or one node of split movement) per action, cooldown
 * between actions.
 */
class ThresholdHysteresisAutoscaler : public AutoscalerPolicy
{
  public:
    explicit ThresholdHysteresisAutoscaler(const AutoscalerConfig &config);

    const char *name() const override { return "threshold"; }

    ScalingAction decide(const TelemetryBus &bus,
                         const ControlState &state) override;

  private:
    AutoscalerConfig config_;
    int aboveWindows_ = 0;
    int belowWindows_ = 0;
    int cooldown_ = 0;
};

/**
 * Target-utilization tracking: size the replica set so the observed
 * KV utilization (the serving analogue of CPU utilization) lands on a
 * setpoint — desired = ceil(live * observed / target) — with a dead
 * band and cooldown for stability. In split mode it reduces to the
 * same pressure-share walk as the threshold policy but re-targets the
 * allocation every window instead of waiting for a breach.
 */
class TargetUtilizationAutoscaler : public AutoscalerPolicy
{
  public:
    explicit TargetUtilizationAutoscaler(const AutoscalerConfig &config);

    const char *name() const override { return "target-util"; }

    ScalingAction decide(const TelemetryBus &bus,
                         const ControlState &state) override;

  private:
    AutoscalerConfig config_;
    int cooldown_ = 0;
};

/**
 * The ideal prefill/decode split for the newest window: per-pool
 * pressure (queue + running per device; transfer stall weighted onto
 * the decode pool) pushed through deviceShareAllocation in units of
 * `step` devices. Exposed for tests; both policies call it.
 *
 * @param window  Newest telemetry window (split-mode pools).
 * @param state   Topology facts (floors, granularity).
 * @return the ideal prefill-device count, node-regular by construction;
 *         the current split when the cluster has too few `step` units
 *         for two pools at their floors (no split can move).
 */
int idealPrefillDevices(const TelemetryWindow &window,
                        const ControlState &state);

} // namespace laer

#endif // LAER_CTRL_AUTOSCALER_HH
