/**
 * @file
 * Reconfiguration of a serving run by the control plane (src/ctrl/):
 * replica scaling and prefill/decode pool re-splits.
 *
 * Reconfigurator owns the in-flight reconfiguration (one ScalingEvent
 * whose drains have not all completed, plus the requests a split holds
 * while both pools are down), the run's scaling log and the checks
 * that decide whether a requestReplicas()/requestSplit() may start.
 * The simulator drives the slot lifecycle it asks for: it drains and
 * rebuilds the engines and re-homes their requests.
 */

#ifndef LAER_SERVE_RECONFIG_HH
#define LAER_SERVE_RECONFIG_HH

#include <string>
#include <vector>

#include "serve/serving_obs.hh"
#include "topo/cluster.hh"

namespace laer
{

/** One control-plane reconfiguration on the run's timeline. */
struct ScalingEvent
{
    Seconds requested = 0.0; //!< decision time
    Seconds applied = 0.0;   //!< drains done / capacity usable
    std::string action;      //!< "replicas", "split" or "repair"
    int before = 0;          //!< replica count, or prefill devices
    int after = 0;
    Seconds loadDelay = 0.0; //!< model (re)shard time over kHostLinkBw
    int rehomed = 0;         //!< live requests drained + re-enqueued
};

/** The simulator's reconfiguration component (see the file comment). */
class Reconfigurator
{
  public:
    /** True while a replica scale-down or a split has not applied. */
    bool active() const { return pending_.active; }

    /** True while the pending reconfiguration is a pool split. */
    bool split() const { return pending_.split; }

    /** The pending split's prefill-pool size. */
    int splitTarget() const { return pending_.event.after; }

    /** A reconfiguration is pending, or an engine is still draining. */
    bool busy(const std::vector<EngineSlot> &slots) const
    {
        return pending_.active ||
               countSlots(slots, EngineState::Draining) > 0;
    }

    /** May the two pools re-split to `prefill_devices`? False while
     * another reconfiguration is pending, while a pool is dead (its
     * repair comes first), at the current split, below `min_pool`
     * devices per pool, or on a split that is not node-regular. The
     * caller still checks that the new pools hold every live context. */
    bool splitFeasible(int prefill_devices,
                       const std::vector<EngineSlot> &slots,
                       const Cluster &cluster, int min_pool) const
    {
        const int decode = cluster.numDevices() - prefill_devices;
        return !busy(slots) && slots[0].engine().accepting() &&
               slots[1].engine().accepting() &&
               prefill_devices != slots[0].engine().slice().numDevices() &&
               prefill_devices >= min_pool && decode >= min_pool &&
               cluster.isNodeRegularSlice(0, prefill_devices) &&
               cluster.isNodeRegularSlice(prefill_devices, decode);
    }

    /** Open a pending reconfiguration; `event` is complete except its
     * applied time and load delay. A split holds each old pool's
     * drained requests until both pools are down. */
    void begin(const ScalingEvent &event, bool split)
    {
        pending_ = Pending{true, split, event, {}};
        pending_.held.resize(split ? 2 : 0);
    }

    /** Requests of old pool `i` a pending split holds. */
    std::vector<Request> &held(std::size_t i) { return pending_.held[i]; }

    /** Requests a pending split holds, summed over both pools. */
    std::int64_t heldCount() const
    {
        std::int64_t held = 0;
        for (const std::vector<Request> &h : pending_.held)
            held += static_cast<std::int64_t>(h.size());
        return held;
    }

    /** Count `n` live requests re-homed by the pending drains. */
    void addRehomed(int n) { pending_.event.rehomed += n; }

    /** Close the pending reconfiguration, applied at `applied` behind
     * `load_delay`, and record it. */
    void complete(Seconds applied, Seconds load_delay, ServingObs &obs)
    {
        pending_.event.applied = applied;
        pending_.event.loadDelay = load_delay;
        record(pending_.event, obs);
        pending_ = Pending{};
    }

    /** Append `event` to the scaling log, count it in the registry and
     * emit its instant on the control track. */
    void record(const ScalingEvent &event, ServingObs &obs)
    {
        log_.push_back(event);
        LAER_METRIC_COUNT(obs.registry(), "ctrl.scaling_events", 1);
        LAER_TRACE_INSTANT(obs.trace(), obs.controlTrack(), event.action,
                           "ctrl", event.requested,
                           {TraceArg{"before", event.before},
                            TraceArg{"after", event.after},
                            TraceArg{"load_delay_s", event.loadDelay},
                            TraceArg{"rehomed", event.rehomed}});
    }

    /** Every applied reconfiguration, in order. */
    const std::vector<ScalingEvent> &log() const { return log_; }

  private:
    struct Pending
    {
        bool active = false;
        bool split = false;  //!< split vs replica scale-down
        ScalingEvent event;  //!< in flight: applied not yet known
        std::vector<std::vector<Request>> held; //!< split: per old pool
    };
    Pending pending_;
    std::vector<ScalingEvent> log_;
};

} // namespace laer

#endif // LAER_SERVE_RECONFIG_HH
