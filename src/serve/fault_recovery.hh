/**
 * @file
 * Fault recovery of a serving run (src/fault/, docs/ROBUSTNESS.md).
 *
 * FaultRecovery owns what a fault plan adds to a run: the expanded
 * plan and its cursor, the boundary-link state, the retry queue and
 * the live AvailabilityReport with its MTTR and degraded-window
 * clocks. The simulator hands it the engine slots it acts on; the
 * effects that rebuild or drain an engine stay with the simulator,
 * which owns the slot lifecycle.
 *
 * No mode switch guards it: an empty plan leaves it inert. No event
 * is ever due, no MTTR clock runs, the boundary link stays up at
 * factor 1 and the retry queue stays empty, so a fault-free run stays
 * byte-for-byte with its history (the golden gates pin that).
 */

#ifndef LAER_SERVE_FAULT_RECOVERY_HH
#define LAER_SERVE_FAULT_RECOVERY_HH

#include <algorithm>
#include <deque>
#include <vector>

#include "fault/fault.hh"
#include "serve/engine.hh"
#include "serve/request.hh"

namespace laer
{

class ServingObs;

/** Availability section of a faulted run's report (all zero / empty
 * when ServingConfig::faults is disabled). FaultRecovery keeps one
 * live copy as the run plays; report() copies it whole and closes the
 * MTTR mean and a still-open degraded window. */
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

/** A request waiting out its retry backoff. */
struct PendingRetry
{
    Request request;
    Seconds killedAt = 0.0; //!< eviction time (attribution span)
    Seconds readyAt = 0.0;  //!< backoff elapses here
};

/** Insert `item` into a queue kept sorted by readyAt. Ties keep
 * insertion order (stable), so the walk order is a pure function of
 * the push history. */
template <typename T>
void
insertByReadyAt(std::deque<T> &queue, T item)
{
    const auto pos = std::upper_bound(
        queue.begin(), queue.end(), item.readyAt,
        [](Seconds t, const T &queued) { return t < queued.readyAt; });
    queue.insert(pos, std::move(item));
}

/** The decode pool's door, asked at the prefill door: true when a
 * disaggregated prefill copy's full context (prompt plus decode
 * target) fits the decode pool, or the pool is Stopped and its
 * revival will judge it. Checked before a prefill and a KV transfer
 * are spent on a context the decode pool can never hold. */
bool decodeDoorAdmits(const ServingEngine &decode,
                      const Request &prefill_copy);

/** The simulator's fault-recovery component (see the file comment). */
class FaultRecovery
{
  public:
    /** Expand `config` for a run of `slots` engines over `horizon`;
     * expandFaultPlan() checks every engine target against the slots,
     * parked ones included. */
    FaultRecovery(const FaultConfig &config, int slots, Seconds horizon,
                  int slo_classes);

    /** Next plan event due at or before `now`, consumed; null when
     * none is due. */
    const FaultEvent *nextDue(Seconds now)
    {
        return next_ < plan_.size() && plan_[next_].time <= now
                   ? &plan_[next_++]
                   : nullptr;
    }

    /**
     * Decide whether `event` applies at `now`, flip the fault state it
     * owns (on the link or on its target slot) and record it: the
     * timeline, the injected count and its faults-track instant.
     * Killing a corpse, healing a healthy link and the like are no-ops
     * that record nothing: the timeline records what was APPLIED, and
     * idempotence keeps seeded storms well-defined. A device event
     * also resizes its pool's KV budget; the simulator runs the other
     * engine and queue effects after this.
     * @param in_flight  KV transfers on the wire (a LinkDown's instant
     *                   reports them).
     * @return false for a no-op.
     */
    bool apply(const FaultEvent &event, std::vector<EngineSlot> &slots,
               bool disagg, int in_flight, Seconds now, ServingObs &obs);

    /** Boundary link fail-stopped? */
    bool linkDown() const { return linkDown_; }

    /** Boundary-link wire-time multiplier (1 when healthy). */
    double linkFactor() const { return linkFactor_; }

    /** Abort a KV handover cut by a dead boundary link: the context
     * re-parks its decode target and retries through the prefill pool
     * (recompute: the KV was released at the pool boundary).
     * `killed_at` is the instant through which the request's prior
     * work has already been attributed (the prefill finish for a
     * handover that never touched the wire, the wire's would-be end
     * for one cut in flight): the retry dead time starts there, not
     * at the event that noticed the cut, so the per-request
     * attribution stays exact. */
    void abortTransfer(Request request, Seconds killed_at, Seconds now,
                       ServingObs &obs);

    /** Queue `request` for re-admission after its capped exponential
     * backoff; counts it failed once past the retry budget. */
    void scheduleRetry(Request request, Seconds killed_at, Seconds now,
                       ServingObs &obs);

    /** Count `request` failed (budget exhausted / unservable). */
    void fail(const Request &request, Seconds now, ServingObs &obs);

    /** Requests waiting out a retry backoff, sorted by readyAt;
     * popRetry() takes the front. */
    const std::deque<PendingRetry> &retries() const { return retries_; }
    PendingRetry popRetry()
    {
        PendingRetry retry = std::move(retries_.front());
        retries_.pop_front();
        return retry;
    }

    /** Requests currently waiting out a retry backoff. */
    int retrying() const { return static_cast<int>(retries_.size()); }

    /** Close slot `i`'s MTTR clock: its engine is serving again,
     * whether a scripted repair or the autoscaler rebuilt it. */
    void closeOutage(EngineSlot &slot, std::size_t i, Seconds now,
                     ServingObs &obs);

    /** Does the rest of the plan hold a revival: a ReplicaRepair, or a
     * LinkUp while the boundary link is down? */
    bool revivalPlanned() const;

    /** Re-evaluate the degraded predicate after any fault-state
     * transition; accrues degraded time and its goodput window.
     * Degraded time is the union of all fault conditions: the window
     * opens at the first active fault and closes when the last one
     * clears (a repaired replica counts degraded until Active again). */
    void updateDegraded(const std::vector<EngineSlot> &slots, Seconds now,
                        std::int64_t good_tokens);

    /** Engines currently dead from an unrepaired fault. */
    int deadReplicas(const std::vector<EngineSlot> &slots) const;

    /** Earliest plan event or retry front after `now`; +infinity when
     * neither exists (always, on an empty plan). */
    Seconds nextWake(Seconds now) const;

    /** Can the fault state still act on the run: a plan event or a
     * retry pending, a fail-stop deferred, or a fault-killed slot
     * reloading (its promotion closes the outage)? The event core
     * keeps its windows to one instant while it can. */
    bool active(const std::vector<EngineSlot> &slots) const;

    /** The live availability record: mttrMean stays 0 and
     * degradedSeconds sums only closed windows until report(). */
    const AvailabilityReport &live() const { return avail_; }

    /** The record with its MTTR mean closed; a still-open degraded
     * window is closed against `now` without mutating the live one. */
    AvailabilityReport report(Seconds now, std::int64_t good_tokens) const;

  private:
    /** Re-derive the KV budget of slot `target`'s engine from its
     * surviving devices; requests it can no longer ever hold fail.
     * When it is a disaggregated run's decode pool, so do the prefill
     * pool's contexts that it can never hold. */
    void resizeKv(std::vector<EngineSlot> &slots, int target, bool disagg,
                  Seconds now, ServingObs &obs);

    int retryBudget_;
    Seconds backoffBase_;
    Seconds backoffCap_;
    std::vector<FaultEvent> plan_; //!< expanded, time-sorted
    std::size_t next_ = 0;         //!< walk cursor into the plan
    double linkFactor_ = 1.0;      //!< boundary-link wire multiplier
    bool linkDown_ = false;        //!< boundary link fail-stopped
    std::deque<PendingRetry> retries_; //!< sorted by readyAt
    AvailabilityReport avail_;
    Seconds mttrSum_ = 0.0;        //!< over avail_.repairs samples
    Seconds degradedSince_ = -1.0; //!< < 0 while healthy
    std::int64_t goodTokensAtDegradeStart_ = 0;
    std::int64_t degradedGoodTokens_ = 0;
};

} // namespace laer

#endif // LAER_SERVE_FAULT_RECOVERY_HH
