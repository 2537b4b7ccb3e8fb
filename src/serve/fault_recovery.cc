#include "serve/fault_recovery.hh"

#include <limits>

#include "serve/serving_obs.hh"

namespace laer
{

FaultRecovery::FaultRecovery(const FaultConfig &config, int slots,
                             Seconds horizon, int slo_classes)
    : retryBudget_(config.retryBudget), backoffBase_(config.backoffBase),
      backoffCap_(config.backoffCap),
      plan_(expandFaultPlan(config, slots, horizon))
{
    avail_.failedByClass.assign(static_cast<std::size_t>(slo_classes), 0);
}

bool
FaultRecovery::apply(const FaultEvent &event,
                     std::vector<EngineSlot> &slots, bool disagg,
                     int in_flight, Seconds now, ServingObs &obs)
{
    // expandFaultPlan() checked every engine target; the link kinds
    // ignore theirs and record 0.
    const std::size_t target = static_cast<std::size_t>(event.target);
    FaultEvent record{now, event.kind, event.target, event.magnitude};
    const char *instant = nullptr; // faults-track instant, if any
    std::vector<TraceArg> args{TraceArg{"pool", event.target}};
    switch (event.kind) {
    case FaultKind::ReplicaFail: {
        EngineSlot &slot = slots[target];
        const EngineState state = slot.engine().state();
        if (state == EngineState::Stopped || slot.inc.pendingKill)
            return false;
        slot.faultDownSince = now;
        slot.inc.pendingKill = true;
        if (state == EngineState::Loading ||
            state == EngineState::Draining)
            slot.freeAt = now; // no step in flight: die now
        instant = "replica_fail";
        break;
    }
    case FaultKind::ReplicaRepair:
        // Only a fault-killed, already-dead slot rebuilds. A repair
        // scheduled inside the victim's final step (the kill still
        // deferred) is lost: a later repair or the autoscaler rebuilds
        // the slot instead. The rebuild shows on the control track.
        if (slots[target].engine().state() != EngineState::Stopped ||
            slots[target].faultDownSince < 0.0)
            return false;
        break;
    case FaultKind::LinkDown:
        if (!disagg || linkDown_)
            return false;
        record = {now, event.kind, 0, 1.0};
        linkDown_ = true;
        instant = "link_down";
        args = {TraceArg{"in_flight", in_flight}};
        break;
    case FaultKind::LinkUp:
        if (!disagg || (!linkDown_ && linkFactor_ == 1.0))
            return false;
        record = {now, event.kind, 0, 1.0};
        linkDown_ = false;
        linkFactor_ = 1.0;
        instant = "link_up";
        args = {TraceArg{"factor", 1.0}};
        break;
    case FaultKind::LinkDegrade:
        if (!disagg || event.magnitude <= 0.0 || linkDown_ ||
            linkFactor_ == event.magnitude)
            return false;
        record.target = 0;
        linkFactor_ = event.magnitude;
        instant = "link_degrade";
        args = {TraceArg{"factor", event.magnitude}};
        break;
    case FaultKind::StragglerStart:
        if (slots[target].engine().state() == EngineState::Stopped ||
            event.magnitude <= 0.0 ||
            slots[target].inc.stragglerFactor == event.magnitude)
            return false;
        slots[target].inc.stragglerFactor = event.magnitude;
        instant = "straggler";
        args.push_back(TraceArg{"factor", event.magnitude});
        break;
    case FaultKind::StragglerEnd:
        if (slots[target].inc.stragglerFactor == 1.0)
            return false;
        record.magnitude = 1.0;
        slots[target].inc.stragglerFactor = 1.0;
        instant = "straggler_end";
        break;
    case FaultKind::DeviceFail: {
        EngineSlot &slot = slots[target];
        if (slot.engine().state() == EngineState::Stopped)
            return false;
        const int total = slot.engine().slice().numDevices();
        const int dead =
            std::min(total - 1,
                     slot.inc.deadDevices +
                         std::max(1, static_cast<int>(event.magnitude)));
        if (dead == slot.inc.deadDevices)
            return false; // the slice keeps at least one survivor
        record.magnitude = static_cast<double>(dead);
        slot.inc.deadDevices = dead;
        instant = "device_fail";
        args.push_back(TraceArg{"dead", dead});
        break;
    }
    case FaultKind::DeviceRepair:
        if (slots[target].inc.deadDevices == 0)
            return false;
        record.magnitude = 0.0;
        slots[target].inc.deadDevices = 0;
        instant = "device_repair";
        break;
    }

    // The one record path. Recoveries (ReplicaRepair, LinkUp,
    // StragglerEnd, DeviceRepair) reach the timeline but do not count
    // as injected faults.
    avail_.timeline.push_back(record);
    if (event.kind != FaultKind::ReplicaRepair &&
        event.kind != FaultKind::LinkUp &&
        event.kind != FaultKind::StragglerEnd &&
        event.kind != FaultKind::DeviceRepair)
        ++avail_.faultsInjected;
    if (instant != nullptr)
        LAER_TRACE_INSTANT(obs.trace(), obs.faultTrack(), instant,
                           "fault", now, std::move(args));
    if (event.kind == FaultKind::DeviceFail ||
        event.kind == FaultKind::DeviceRepair)
        resizeKv(slots, target, disagg, now, obs);
    return true;
}

void
FaultRecovery::resizeKv(std::vector<EngineSlot> &slots, int target,
                        bool disagg, Seconds now, ServingObs &obs)
{
    EngineSlot &slot = slots[target];
    // Graceful degradation: the pool's KV budget shrinks to the
    // survivors' share, admission shrinks with it, and requests whose
    // full context can no longer EVER fit are failed rather than
    // wedged (byte-accounting runs only; slot-mode pools degrade
    // through the replica/straggler paths instead).
    const int total = slot.engine().slice().numDevices();
    const Bytes full = slot.engine().batcher().config().kvBudgetBytes;
    if (full == 0 || slot.engine().state() == EngineState::Stopped)
        return;
    const Bytes budget =
        full * static_cast<Bytes>(total - slot.inc.deadDevices) /
        static_cast<Bytes>(total);
    for (const Request &r : slot.engine().resizeKvBudget(budget))
        fail(r, now, obs);
    if (!disagg || target != 1)
        return;
    // Every prefill-pool context heads for the resized decode pool:
    // one it can never hold fails now, by the prefill door's rule.
    // A later repair does not revive it.
    const ServingEngine &decode = slot.engine();
    const auto servable = [&decode](const Request &r) {
        return decodeDoorAdmits(decode, r);
    };
    for (const Request &r : slots[0].engine().batcher().sweep(servable))
        fail(r, now, obs);
}

bool
decodeDoorAdmits(const ServingEngine &decode, const Request &prefill_copy)
{
    Request at_door = prefill_copy;
    at_door.decodeTokens = prefill_copy.decodeTarget;
    return decode.state() == EngineState::Stopped ||
           decode.batcher().canEverHold(at_door);
}

void
FaultRecovery::abortTransfer(Request request, Seconds killed_at,
                             Seconds now, ServingObs &obs)
{
    ++avail_.transfersAborted;
    LAER_TRACE_INSTANT(obs.trace(), obs.faultTrack(), "transfer_abort",
                       "fault", now,
                       {TraceArg{"id", request.id},
                        TraceArg{"context", request.contextLength()}});
    request.decodeTarget = static_cast<std::int32_t>(std::max<TokenCount>(
        {request.decodeTokens, request.decodeTarget, 2}));
    request.decodeTokens = 1;
    request.restoring = request.decodeDone > 0;
    request.prefillDone = 0;
    request.finishTime = -1.0;
    scheduleRetry(std::move(request), killed_at, now, obs);
}

void
FaultRecovery::scheduleRetry(Request request, Seconds killed_at,
                             Seconds now, ServingObs &obs)
{
    ++request.retries;
    if (request.retries > retryBudget_) {
        fail(request, now, obs);
        return;
    }
    ++avail_.requestsRetried;
    // Capped exponential backoff: attempt k waits
    // min(cap, base * 2^(k-1)).
    Seconds backoff = backoffBase_;
    for (int k = 1; k < request.retries && backoff < backoffCap_; ++k)
        backoff *= 2.0;
    backoff = std::min(backoff, backoffCap_);
    LAER_TRACE_INSTANT(obs.trace(), obs.faultTrack(), "retry", "fault",
                       now,
                       {TraceArg{"id", request.id},
                        TraceArg{"attempt", request.retries},
                        TraceArg{"backoff_s", backoff}});
    insertByReadyAt(retries_,
                    PendingRetry{std::move(request), killed_at,
                                 now + backoff});
}

void
FaultRecovery::fail(const Request &request, Seconds now, ServingObs &obs)
{
    // Failed, not hung: the request leaves the system explicitly and
    // the conservation identity counts it
    // (offered == completed + in-flight + retrying + failed).
    ++avail_.requestsFailed;
    if (request.sloClass >= 0 &&
        static_cast<std::size_t>(request.sloClass) <
            avail_.failedByClass.size())
        ++avail_.failedByClass[static_cast<std::size_t>(request.sloClass)];
    LAER_TRACE_INSTANT(obs.trace(), obs.faultTrack(), "request_failed",
                       "fault", now,
                       {TraceArg{"id", request.id},
                        TraceArg{"class", request.sloClass},
                        TraceArg{"retries", request.retries}});
    if (ReqTraceRecorder *rt = obs.sampled(request.id))
        rt->onFailed(request.id, now);
}

void
FaultRecovery::closeOutage(EngineSlot &slot, std::size_t i, Seconds now,
                           ServingObs &obs)
{
    const Seconds mttr = now - slot.faultDownSince;
    mttrSum_ += mttr;
    avail_.mttrMax = std::max(avail_.mttrMax, mttr);
    ++avail_.repairs;
    LAER_TRACE_SPAN(obs.trace(), obs.faultTrack(), "outage", "fault",
                    slot.faultDownSince, mttr,
                    {TraceArg{"pool", static_cast<int>(i)},
                     TraceArg{"mttr_s", mttr}});
    slot.faultDownSince = -1.0;
}

bool
FaultRecovery::revivalPlanned() const
{
    for (std::size_t e = next_; e < plan_.size(); ++e) {
        if (plan_[e].kind == FaultKind::ReplicaRepair)
            return true;
        if (linkDown_ && plan_[e].kind == FaultKind::LinkUp)
            return true;
    }
    return false;
}

void
FaultRecovery::updateDegraded(const std::vector<EngineSlot> &slots,
                              Seconds now, std::int64_t good_tokens)
{
    bool degraded = linkDown_ || linkFactor_ != 1.0;
    for (const EngineSlot &slot : slots)
        degraded = degraded || slot.faultDownSince >= 0.0 ||
                   slot.inc.stragglerFactor != 1.0 ||
                   slot.inc.deadDevices > 0;
    if (degraded && degradedSince_ < 0.0) {
        degradedSince_ = now;
        goodTokensAtDegradeStart_ = good_tokens;
    } else if (!degraded && degradedSince_ >= 0.0) {
        avail_.degradedSeconds += now - degradedSince_;
        degradedGoodTokens_ += good_tokens - goodTokensAtDegradeStart_;
        degradedSince_ = -1.0;
    }
}

int
FaultRecovery::deadReplicas(const std::vector<EngineSlot> &slots) const
{
    int dead = 0;
    for (const EngineSlot &slot : slots)
        if (slot.faultDownSince >= 0.0 &&
            slot.engine().state() == EngineState::Stopped)
            ++dead;
    return dead;
}

bool
FaultRecovery::active(const std::vector<EngineSlot> &slots) const
{
    if (next_ < plan_.size() || !retries_.empty())
        return true;
    for (const EngineSlot &slot : slots)
        if (slot.inc.pendingKill ||
            (slot.faultDownSince >= 0.0 &&
             slot.engine().state() == EngineState::Loading))
            return true;
    return false;
}

Seconds
FaultRecovery::nextWake(Seconds now) const
{
    Seconds t = std::numeric_limits<Seconds>::infinity();
    if (next_ < plan_.size() && plan_[next_].time > now)
        t = plan_[next_].time;
    if (!retries_.empty() && retries_.front().readyAt > now)
        t = std::min(t, retries_.front().readyAt);
    return t;
}

AvailabilityReport
FaultRecovery::report(Seconds now, std::int64_t good_tokens) const
{
    AvailabilityReport avail = avail_;
    if (avail.repairs > 0)
        avail.mttrMean = mttrSum_ / static_cast<double>(avail.repairs);
    std::int64_t degraded_tokens = degradedGoodTokens_;
    if (degradedSince_ >= 0.0) {
        avail.degradedSeconds += now - degradedSince_;
        degraded_tokens += good_tokens - goodTokensAtDegradeStart_;
    }
    if (avail.degradedSeconds > 0.0)
        avail.degradedGoodputTps =
            static_cast<double>(degraded_tokens) / avail.degradedSeconds;
    return avail;
}

} // namespace laer
