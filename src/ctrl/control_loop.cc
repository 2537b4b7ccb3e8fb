#include "ctrl/control_loop.hh"

#include <algorithm>

#include "core/error.hh"

namespace laer
{

const char *
autoscalerKindName(AutoscalerKind kind)
{
    switch (kind) {
      case AutoscalerKind::None:
        return "none";
      case AutoscalerKind::ThresholdHysteresis:
        return "threshold";
      case AutoscalerKind::TargetUtilization:
        return "target-util";
    }
    return "?";
}

ControlLoop::ControlLoop(ServingSimulator &sim,
                         const ControlLoopConfig &config)
    : sim_(sim), config_(config)
{
    LAER_CHECK(config_.interval > 0.0,
               "decision interval must be positive");
    AutoscalerConfig &ac = config_.autoscaler;
    ac.maxReplicas = std::min(std::max(ac.maxReplicas, 1),
                              sim_.numEngines());
    ac.minReplicas = std::min(std::max(ac.minReplicas, 1),
                              ac.maxReplicas);
    switch (config_.kind) {
      case AutoscalerKind::None:
        break;
      case AutoscalerKind::ThresholdHysteresis:
        policy_ = std::make_unique<ThresholdHysteresisAutoscaler>(ac);
        break;
      case AutoscalerKind::TargetUtilization:
        policy_ = std::make_unique<TargetUtilizationAutoscaler>(ac);
        break;
    }
    if (policy_ &&
        sim_.config().policy == ServingPolicy::Disaggregated)
        LAER_CHECK(!sim_.config().disagg.sharedLayout,
                   "dynamic split control needs per-pool layouts "
                   "(disagg.sharedLayout = false)");
}

ControlState
ControlLoop::controlState() const
{
    ControlState state;
    state.splitMode =
        sim_.config().policy == ServingPolicy::Disaggregated;
    state.activeReplicas = sim_.activeReplicas();
    state.replicaSlots = sim_.numEngines();
    state.prefillDevices = sim_.prefillDevices();
    state.totalDevices = sim_.cluster().numDevices();
    // Split boundaries move whole nodes — the only cut points
    // Cluster::contiguousSlice accepts on a multi-node cluster.
    state.nodeDevices = std::min(sim_.cluster().devicesPerNode(),
                                 state.totalDevices);
    // The simulator's floor: expert hosting plus, with the KV model
    // on, memory feasibility of the shrunk pool's shard.
    state.minPoolDevices = sim_.minPoolDevices();
    return state;
}

void
ControlLoop::closeWindow(Seconds boundary)
{
    const TelemetryWindow window =
        collector_.collect(sim_, windowStart_, boundary);
    windowStart_ = boundary;
    bus_.publish(window);

    if (sim_.config().metricsRegistry != nullptr)
        exportWindowMetrics(window, *sim_.config().metricsRegistry);

    if (!policy_ || sim_.reconfigPending())
        return;
    const ScalingAction action = policy_->decide(bus_, controlState());
    switch (action.kind) {
      case ScalingAction::Kind::None:
        break;
      case ScalingAction::Kind::SetReplicas:
        if (sim_.requestReplicas(action.target))
            ++actionsTaken_;
        break;
      case ScalingAction::Kind::SetSplit:
        if (sim_.requestSplit(action.target))
            ++actionsTaken_;
        break;
    }
}

ServingReport
ControlLoop::run()
{
    Seconds boundary = config_.interval;
    // The barrier ends the event core's window at each decision
    // boundary, so no engine advances past it before the loop has
    // decided; the clock then lands on the first event at or after
    // it, and the loop reads now() after each step.
    sim_.setBarrier(boundary);
    while (sim_.step()) {
        while (sim_.now() >= boundary) {
            closeWindow(boundary);
            boundary += config_.interval;
        }
        sim_.setBarrier(boundary);
    }
    // Close the trailing partial window so short runs still get a
    // series (the collector requires positive length).
    if (sim_.now() > windowStart_)
        closeWindow(sim_.now());
    return sim_.finish();
}

} // namespace laer
