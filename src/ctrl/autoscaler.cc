#include "ctrl/autoscaler.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/error.hh"
#include "planner/replica_alloc.hh"

namespace laer
{

AutoscalerPolicy::~AutoscalerPolicy() = default;

namespace
{

// Threshold + hysteresis: scale up when waiting requests per live
// replica exceed kQueueHigh (or KV runs hotter than kKvHigh) for
// kUpWindows consecutive windows; scale down when the queue is below
// kQueueLow AND KV below kKvLow for `downWindows` windows. The target
// policy shares the queue thresholds as its override.
constexpr double kQueueHigh = 8.0;
constexpr double kQueueLow = 1.0;
constexpr double kKvHigh = 0.85;
constexpr double kKvLow = 0.40;
constexpr int kUpWindows = 1;
static_assert(kQueueHigh > kQueueLow && kKvHigh > kKvLow,
              "threshold dead band is inverted");

// Windows to hold after any action before acting again.
constexpr int kCooldownWindows = 2;

// Split mode: the pressure ratio the pools must diverge by before a
// move is considered, and the absolute per-device pressure floor
// below which the split holds (re-partitioning an unloaded cluster
// buys nothing).
constexpr double kSplitImbalance = 1.3;
constexpr double kSplitMinPressure = 1.0;

// Weight of a fully-stalled window (or a decode KV pool pinned at
// 1.0) as decode-pool pressure, in queued-requests-per-device.
constexpr double kStallWeight = 4.0;

/** Per-device pressure of the two disaggregated pools. */
struct SplitPressure
{
    double prefill = 0.0;
    double decode = 0.0;
};

SplitPressure
splitPressures(const TelemetryWindow &window)
{
    LAER_CHECK(window.pools.size() == 2,
               "split pressure needs exactly a prefill and a decode "
               "pool");
    const PoolSignal &pre = window.pools[0];
    const PoolSignal &dec = window.pools[1];
    // Waiting work is the saturation signal. Running sequences are
    // NOT: a healthy decode pool always carries a large standing set
    // of one-token-per-step decoders, so counting them would bias
    // every decision decode-ward.
    SplitPressure p;
    p.prefill = pre.queueDepth /
                std::max(1.0, static_cast<double>(pre.devices));
    // Transfer stall and a KV pool running past its high-water mark
    // are decode-side pressure: contexts blocked at the decode pool's
    // door mean its memory cannot keep up. The stalled fraction of
    // the window, weighted, counts like queued work.
    const double stall_fraction =
        window.transferStall / (window.end - window.start);
    const double kv_over =
        std::max(0.0, dec.kvUtilization - kKvHigh) /
        std::max(1e-9, 1.0 - kKvHigh);
    p.decode = dec.queueDepth /
                   std::max(1.0, static_cast<double>(dec.devices)) +
               kStallWeight * (stall_fraction + kv_over);
    return p;
}

/** True when the pools have diverged enough to justify a move. */
bool
splitImbalanced(const SplitPressure &p)
{
    const double hi = std::max(p.prefill, p.decode);
    const double lo = std::min(p.prefill, p.decode);
    return hi >= kSplitMinPressure && hi > lo * kSplitImbalance + 1e-9;
}

/** One move of at most `step` devices from `current` toward `ideal`,
 * never overshooting — a current split that sits off the step grid
 * (e.g. a hand-configured 6/10 with 4-device steps) must converge
 * onto the ideal, not ping-pong around it. */
int
stepToward(int current, int ideal, int step)
{
    if (ideal > current)
        return current + std::min(step, ideal - current);
    if (ideal < current)
        return current - std::min(step, current - ideal);
    return current;
}

std::string
describe(double queue_per_replica, double kv)
{
    std::ostringstream oss;
    oss << "queue/replica " << queue_per_replica << ", kv " << kv;
    return oss.str();
}

/**
 * Fault reconciliation, shared by every replica-mode policy: a
 * fault-killed replica is capacity the operator already paid for, so
 * it is rebuilt outright instead of waiting for queue pressure to
 * rediscover the loss — under light load the survivors absorb the
 * traffic and a purely load-driven policy would never act, leaving
 * the fleet one fault away from an outage (docs/ROBUSTNESS.md).
 * Fires only on faulted runs (`faultsEnabled`), so fault-free control
 * traces are untouched.
 */
bool
repairAction(const TelemetryWindow &window, const ControlState &state,
             const AutoscalerConfig &config, ScalingAction &action)
{
    if (state.splitMode || !window.faultsEnabled ||
        window.deadReplicas == 0 ||
        state.activeReplicas >= config.maxReplicas)
        return false;
    action.kind = ScalingAction::Kind::SetReplicas;
    action.target = state.activeReplicas + 1;
    std::ostringstream oss;
    oss << "repair: " << window.deadReplicas << " dead replica(s)";
    action.reason = oss.str();
    return true;
}

} // namespace

int
idealPrefillDevices(const TelemetryWindow &window,
                    const ControlState &state)
{
    const int step = state.nodeDevices;
    LAER_CHECK(step >= 1 && state.totalDevices % step == 0,
               "split step " << step << " must divide the "
                             << state.totalDevices
                             << "-device cluster");
    const int units = state.totalDevices / step;
    const int min_units = (state.minPoolDevices + step - 1) / step;
    LAER_CHECK(units >= 2 * min_units,
               "cluster too small for two pools of "
                   << state.minPoolDevices << "+ devices at a "
                   << step << "-device granularity");

    const SplitPressure p = splitPressures(window);
    const PoolSignal &pre = window.pools[0];
    const PoolSignal &dec = window.pools[1];
    // Total pressures, so the Alg. 4 share is proportional to load.
    const std::vector<double> loads = {p.prefill * pre.devices,
                                       p.decode * dec.devices};
    const std::vector<int> share =
        deviceShareAllocation(loads, units, min_units);
    return share[0] * step;
}

ThresholdHysteresisAutoscaler::ThresholdHysteresisAutoscaler(
    const AutoscalerConfig &config)
    : config_(config)
{
    LAER_CHECK(config_.downWindows >= 1,
               "hysteresis windows must be positive");
}

ScalingAction
ThresholdHysteresisAutoscaler::decide(const TelemetryBus &bus,
                                      const ControlState &state)
{
    const TelemetryWindow &w = bus.last();
    ScalingAction action;
    if (cooldown_ > 0) {
        --cooldown_;
        return action;
    }
    if (repairAction(w, state, config_, action)) {
        cooldown_ = kCooldownWindows;
        return action;
    }

    if (state.splitMode) {
        const SplitPressure p = splitPressures(w);
        if (!splitImbalanced(p)) {
            aboveWindows_ = belowWindows_ = 0;
            return action;
        }
        const int ideal = idealPrefillDevices(w, state);
        const int step = state.nodeDevices;
        aboveWindows_ = ideal > state.prefillDevices
                            ? aboveWindows_ + 1
                            : 0;
        belowWindows_ = ideal < state.prefillDevices
                            ? belowWindows_ + 1
                            : 0;
        int target = state.prefillDevices;
        if (aboveWindows_ >= kUpWindows)
            target = stepToward(state.prefillDevices, ideal, step);
        else if (belowWindows_ >= config_.downWindows)
            target = stepToward(state.prefillDevices, ideal, step);
        if (target != state.prefillDevices) {
            action.kind = ScalingAction::Kind::SetSplit;
            action.target = target;
            std::ostringstream oss;
            oss << "pressure prefill " << p.prefill << " vs decode "
                << p.decode << ", ideal " << ideal;
            action.reason = oss.str();
            aboveWindows_ = belowWindows_ = 0;
            cooldown_ = kCooldownWindows;
        }
        return action;
    }

    const double queue_per =
        static_cast<double>(w.totalQueueDepth()) /
        std::max(1, state.activeReplicas);
    const double kv = w.maxKvUtilization();
    const bool high =
        queue_per > kQueueHigh || kv > kKvHigh;
    const bool low = queue_per < kQueueLow && kv < kKvLow;
    aboveWindows_ = high ? aboveWindows_ + 1 : 0;
    belowWindows_ = low ? belowWindows_ + 1 : 0;

    if (aboveWindows_ >= kUpWindows &&
        state.activeReplicas < config_.maxReplicas) {
        action.kind = ScalingAction::Kind::SetReplicas;
        action.target = state.activeReplicas + 1;
        action.reason = "high: " + describe(queue_per, kv);
        aboveWindows_ = belowWindows_ = 0;
        cooldown_ = kCooldownWindows;
    } else if (belowWindows_ >= config_.downWindows &&
               state.activeReplicas > config_.minReplicas) {
        action.kind = ScalingAction::Kind::SetReplicas;
        action.target = state.activeReplicas - 1;
        action.reason = "low: " + describe(queue_per, kv);
        aboveWindows_ = belowWindows_ = 0;
        cooldown_ = kCooldownWindows;
    }
    return action;
}

TargetUtilizationAutoscaler::TargetUtilizationAutoscaler(
    const AutoscalerConfig &config)
    : config_(config)
{
    LAER_CHECK(config_.targetUtilization > 0.0 &&
                   config_.targetUtilization < 1.0,
               "target utilization must be in (0, 1)");
    LAER_CHECK(config_.deadband >= 0.0 && config_.deadband < 1.0,
               "dead band must be in [0, 1)");
}

ScalingAction
TargetUtilizationAutoscaler::decide(const TelemetryBus &bus,
                                    const ControlState &state)
{
    const TelemetryWindow &w = bus.last();
    ScalingAction action;
    if (cooldown_ > 0) {
        --cooldown_;
        return action;
    }
    if (repairAction(w, state, config_, action)) {
        cooldown_ = kCooldownWindows;
        return action;
    }

    if (state.splitMode) {
        const SplitPressure p = splitPressures(w);
        if (!splitImbalanced(p))
            return action;
        const int ideal = idealPrefillDevices(w, state);
        const int target =
            stepToward(state.prefillDevices, ideal, state.nodeDevices);
        if (target != state.prefillDevices) {
            action.kind = ScalingAction::Kind::SetSplit;
            action.target = target;
            std::ostringstream oss;
            oss << "re-target split toward " << ideal;
            action.reason = oss.str();
            cooldown_ = kCooldownWindows;
        }
        return action;
    }

    // Mean KV utilization of the live replicas is the setpoint signal;
    // a deep queue overrides it (the pool can be "cool" while requests
    // cannot even be admitted).
    double util = 0.0;
    int live_pools = 0;
    for (const PoolSignal &pool : w.pools) {
        if (pool.state != EngineState::Active &&
            pool.state != EngineState::Loading)
            continue;
        util += pool.kvUtilization;
        ++live_pools;
    }
    util = live_pools > 0 ? util / live_pools : 0.0;
    const double queue_per =
        static_cast<double>(w.totalQueueDepth()) /
        std::max(1, state.activeReplicas);

    const double high_band =
        config_.targetUtilization * (1.0 + config_.deadband);
    const double low_band =
        config_.targetUtilization * (1.0 - config_.deadband);
    int desired = state.activeReplicas;
    if (util > high_band || queue_per > kQueueHigh) {
        desired = std::max(
            state.activeReplicas + 1,
            static_cast<int>(std::ceil(state.activeReplicas * util /
                                       config_.targetUtilization)));
    } else if (util < low_band && queue_per < kQueueLow &&
               static_cast<int>(std::ceil(
                   state.activeReplicas * util /
                   config_.targetUtilization)) < state.activeReplicas) {
        desired = state.activeReplicas - 1; // gentle ramp-down
    }
    desired = std::min(std::max(desired, config_.minReplicas),
                       config_.maxReplicas);
    if (desired != state.activeReplicas) {
        action.kind = ScalingAction::Kind::SetReplicas;
        action.target = desired;
        std::ostringstream oss;
        oss << "util " << util << " vs target "
            << config_.targetUtilization << " ("
            << describe(queue_per, w.maxKvUtilization()) << ")";
        action.reason = oss.str();
        cooldown_ = kCooldownWindows;
    }
    return action;
}

} // namespace laer
