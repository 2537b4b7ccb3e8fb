#include "serve/serving_obs.hh"

#include <algorithm>

#include "serve/fault_recovery.hh"
#include "serve/serving_sim.hh"

namespace laer
{

ServingObs::ServingObs(const ServingConfig &config)
    : trace_(config.trace), registry_(config.metricsRegistry),
      reqTrace_(config.reqTrace),
      prefix_(config.obsLabel.empty() ? std::string()
                                      : config.obsLabel + "/"),
      swapPreemption_(config.batcher.preemptionMode ==
                      PreemptionMode::Swap),
      selfProfile_(config.selfProfile),
      interval_(config.snapshotInterval),
      nextSnapshot_(config.snapshotInterval)
{
}

int
ServingObs::slotTrack(std::vector<int> &ids,
                      const std::vector<EngineSlot> &slots, std::size_t i,
                      const char *suffix)
{
    // Slot names are fixed for the run: a rebuild or a split keeps
    // the slot's pool name.
    if (ids.empty())
        ids.assign(slots.size(), -1);
    if (ids[i] < 0)
        ids[i] = trace_->track(prefix_ + slots[i].engine().slice().name +
                               suffix);
    return ids[i];
}

void
ServingObs::captureStepShares(const BatchPlan &plan,
                              const ContinuousBatcher &batcher,
                              const ServingStepResult &result,
                              int pool_index,
                              std::vector<ReqStepShare> &out) const
{
    if (reqTrace_ == nullptr)
        return;
    const auto capture = [&](int id, AttrComponent as, bool first_token) {
        if (sampled(id) == nullptr)
            return;
        ReqStepShare share;
        share.requestId = id;
        share.pool = pool_index;
        share.start = result.start;
        share.duration = result.duration;
        share.retunePause = result.migration;
        share.swapOverhead = result.swapTime;
        share.computeAs = as;
        share.firstToken = first_token;
        out.push_back(share);
    };
    batcher.forEachScheduledDecoder(plan, [&](int id) {
        capture(id, AttrComponent::DecodeResidency, false);
    });
    for (const BatchEntry &entry : plan.entries) {
        const bool prefill = entry.prefillTokens > 0;
        capture(entry.requestId,
                !prefill          ? AttrComponent::DecodeResidency
                : entry.restoring ? AttrComponent::PreemptRecovery
                                  : AttrComponent::PrefillCompute,
                prefill && entry.emitsToken);
    }
}

void
ServingObs::step(const std::vector<EngineSlot> &slots, std::size_t i,
                 const StepRecord &rec, double tuner_budget_ms)
{
    const ServingStepResult &res = rec.result;
    for (const PreemptionRecord &p : rec.preempted) {
        LAER_TRACE_INSTANT(trace_, poolTrack(slots, i), "preempt",
                           "serve", res.start,
                           {TraceArg{"class", p.sloClass},
                            TraceArg{"id", p.requestId}});
        if (ReqTraceRecorder *rt = sampled(p.requestId))
            rt->onPreempt(p.requestId, res.start, swapPreemption_);
    }
    for (const ReqStepShare &share : rec.shares)
        LAER_REQ_EVENT(reqTrace_, onStep(share));
    if (rec.idle)
        return;

    if (trace_ != nullptr) {
        const char *kind = res.prefill > 0 && res.decode > 0
                               ? "mixed_step"
                           : res.prefill > 0 ? "prefill_step"
                                             : "decode_step";
        trace_->span(poolTrack(slots, i), kind, "serve", res.start,
                     res.duration,
                     {TraceArg{"tokens", res.tokens},
                      TraceArg{"prefill", res.prefill},
                      TraceArg{"decode", res.decode},
                      TraceArg{"kv_util", res.kvUtilization},
                      TraceArg{"retuned", res.retuned}});
    }
    LAER_METRIC_OBSERVE(registry_, "serve.step_time_s", res.duration);
    if (!res.retuned)
        return;
    const RetuneWallSample &sample = rec.retune;
    // Solver wall time drawn on the simulated timeline: the span
    // starts at the retuning step and is wallMs long, so a budget
    // overrun is visible at a glance even though the solver runs off
    // the simulated clock.
    LAER_TRACE_SPAN(trace_, slotTrack(plannerTracks_, slots, i, "/planner"),
                    "retune", "planner", sample.simTime,
                    sample.wallMs * 1e-3,
                    {TraceArg{"wall_ms", sample.wallMs},
                     TraceArg{"budget_ms", tuner_budget_ms},
                     TraceArg{"over_budget", sample.overBudget}});
    LAER_METRIC_OBSERVE(registry_, "planner.retune_wall_ms",
                        sample.wallMs);
    if (sample.overBudget)
        LAER_METRIC_COUNT(registry_, "planner.retune_over_budget", 1);
}

void
ServingObs::complete(const std::vector<EngineSlot> &slots,
                     const Request &done, Seconds slo_ttft,
                     ServingMetrics &metrics)
{
    if (registry_ != nullptr) {
        registry_->histogram("serve.ttft_s").observe(done.ttft());
        if (done.decodeTokens >= 2)
            registry_->histogram("serve.tpot_s").observe(done.tpot());
    }
    ReqTraceRecorder *rt = sampled(done.id);
    if (rt == nullptr)
        return;
    ReqRetireInfo info;
    info.id = done.id;
    info.firstTokenTime = done.firstTokenTime;
    info.finishTime = done.finishTime;
    info.decodeTokens = done.decodeTokens;
    info.preemptions = done.preemptions;
    info.sloTtft = slo_ttft;
    ReqTraceRecorder::RetireContext ctx;
    ctx.trace = trace_;
    ctx.trackPrefix = prefix_;
    if (trace_ != nullptr) {
        for (std::size_t i = 0; i < slots.size(); ++i)
            poolTrack(slots, i);
        ctx.poolTracks = &poolTracks_;
    }
    const RetiredAttribution attr = rt->retire(info, ctx);
    metrics.recordAttribution(done.sloClass, attr.e2e);
}

void
ServingObs::updateGauges(const std::vector<EngineSlot> &slots,
                         const ServingMetrics &metrics,
                         const RunTotals &totals, std::size_t migrating,
                         std::int64_t held, const FaultRecovery *faults,
                         double device_seconds, Seconds now) const
{
    MetricsRegistry *reg = registry_;
    if (reg == nullptr)
        return;
    int waiting = 0;
    int running = 0;
    double kv_util = 0.0;
    Bytes kv_reserved = 0;
    Bytes kv_budget = 0;
    for (const EngineSlot &slot : slots) {
        const ContinuousBatcher &batcher = slot.engine().batcher();
        waiting += batcher.waitingCount();
        running += batcher.runningCount();
        kv_reserved += batcher.kvReservedBytes();
        kv_budget += batcher.kvBudgetBytes();
        if (batcher.kvEnabled())
            kv_util = std::max(kv_util, batcher.kvUtilization());
    }
    // Counters come from the simulator's authoritative totals via
    // set(), so engine rebuilds (replica spin-up, split) never lose
    // counts.
    reg->counter("serve.offered").set(totals.offered);
    reg->counter("serve.admissions").set(totals.admissions);
    reg->counter("serve.completed").set(metrics.completed());
    reg->counter("serve.slo_met").set(metrics.sloMet());
    reg->counter("serve.decoded_tokens").set(metrics.decodedTokens());
    reg->counter("serve.good_tokens").set(metrics.goodTokens());
    reg->counter("serve.preemptions").set(metrics.totalPreemptions());
    reg->counter("serve.steps")
        .set(static_cast<std::int64_t>(totals.steps.size()));
    reg->counter("serve.migrated").set(totals.migrated);
    reg->counter("serve.kv_transfer_bytes").set(totals.kvTransferBytes);
    reg->counter("planner.retunes")
        .set(static_cast<std::int64_t>(totals.retuneWall.size()));
    reg->gauge("serve.active_replicas")
        .set(static_cast<int>(slots.size()) -
             countSlots(slots, EngineState::Stopped));
    reg->gauge("serve.queue_depth").set(waiting);
    reg->gauge("serve.running").set(running);
    // Requests parked between pools: contexts in flight to the decode
    // pool, and sequences held while a split re-partitions. Together
    // with queue_depth/running these close the request-conservation
    // identity the difftest probe layer checks:
    //   offered == completed + queue_depth + running + migrating + held
    reg->gauge("serve.migrating").set(static_cast<double>(migrating));
    reg->gauge("serve.held").set(static_cast<double>(held));
    reg->gauge("serve.kv_utilization").set(kv_util);
    reg->gauge("serve.kv_reserved_bytes")
        .set(static_cast<double>(kv_reserved));
    reg->gauge("serve.kv_budget_bytes")
        .set(static_cast<double>(kv_budget));
    if (faults != nullptr) {
        // Fault-plan series exist only on faulted runs, so the
        // fault-free metric stream (and the golden gate pinning it)
        // stays byte-for-byte. `serve.failed` and `serve.retrying`
        // extend the conservation identity above:
        //   offered == completed + queue_depth + running + migrating
        //              + held + retrying + failed
        const AvailabilityReport &avail = faults->live();
        reg->counter("serve.faults").set(avail.faultsInjected);
        reg->counter("serve.repairs").set(avail.repairs);
        reg->counter("serve.retries").set(avail.requestsRetried);
        reg->counter("serve.failed").set(avail.requestsFailed);
        reg->counter("serve.transfer_aborts").set(avail.transfersAborted);
        reg->gauge("serve.retrying").set(faults->retrying());
        reg->gauge("serve.dead_replicas").set(faults->deadReplicas(slots));
    }
    reg->gauge("serve.device_seconds").set(device_seconds);
    // The simulated clock the gauges were read at. Snapshots crossed
    // by a long event jump are stamped with their boundary time, which
    // can trail this clock — bounds like device_seconds <= N * t must
    // be checked against sim_now, not the stamp.
    reg->gauge("serve.sim_now").set(now);
}

void
ServingObs::window(const std::vector<WindowBuffer> &buffers,
                   double fanout_ms)
{
    // Wall clock flows only INTO these accumulators, never back into
    // simulated state.
    ++descoreWindows_;
    descoreFanoutMs_ += fanout_ms;
    for (const WindowBuffer &buf : buffers) {
        descoreSteps_ += static_cast<std::int64_t>(buf.steps.size());
        descoreWorkerBusyMs_ += buf.wallMs;
        descoreBarrierWaitMs_ += std::max(0.0, fanout_ms - buf.wallMs);
    }
}

void
ServingObs::finish(const ServingReport &report, Seconds now)
{
    if (registry_ == nullptr)
        return;
    MetricsRegistry &reg = *registry_;
    if (selfProfile_) {
        reg.gauge("profile.retune_ms").set(report.profRetuneMs);
        reg.gauge("profile.step_pricing_ms").set(report.profStepPricingMs);
        reg.gauge("profile.event_loop_ms").set(report.profEventLoopMs);
    }
    if (descoreWindows_ > 0) {
        // profile.* is wall-clock noise the difftest layer ignores by
        // default, so these are lane- and golden-safe.
        reg.gauge("profile.descore.windows")
            .set(static_cast<double>(descoreWindows_));
        reg.gauge("profile.descore.steps")
            .set(static_cast<double>(descoreSteps_));
        reg.gauge("profile.descore.fanout_ms").set(descoreFanoutMs_);
        reg.gauge("profile.descore.worker_busy_ms")
            .set(descoreWorkerBusyMs_);
        reg.gauge("profile.descore.barrier_wait_ms")
            .set(descoreBarrierWaitMs_);
    }
    reg.recordSnapshot(now);
}

} // namespace laer
