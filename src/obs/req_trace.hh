/**
 * @file
 * ReqTraceRecorder — sampled per-request lifecycle recorder.
 *
 * Where the flight recorder (trace.hh / metrics.hh) answers "what is
 * the system doing" at engine granularity, this module answers "where
 * did THIS request's time go". The serving simulator feeds it
 * lifecycle hooks (admit, per-step residency shares, preemption, KV
 * transfer, transfer stall, drain re-homing) for a deterministic
 * 1-in-N sample of requests; at retirement each sampled request
 * yields
 *
 *  - an ordered event timeline (admits, step segments, preemptions,
 *    migrations) emitted as Perfetto per-request tracks plus flow
 *    events (`ph:"s"/"t"/"f"`, flow id = request id) that let the
 *    Perfetto UI follow one request across engine tracks, and
 *  - an exact additive TTFT/E2E decomposition (obs/attribution.hh)
 *    whose components re-sum to the measured latency bit-for-bit —
 *    any failure is recorded as a conservation violation (and
 *    asserted in debug builds), never silently dropped.
 *
 * The recorder also keeps bounded top-K heaps of the worst-TTFT and
 * worst-TPOT retirements with their full attribution, serialised by
 * writeSloJson() for the `--slo-report-out` SLO-miss report.
 *
 * Memory is bounded: per-request state exists only between admit and
 * retirement (timelines are capped per request), aggregates are
 * per-class accumulators, and the top-K heaps hold K records each.
 * Like the rest of the observability layer the recorder is strictly
 * write-only with respect to simulation state; attaching one cannot
 * change simulated outputs, and the guard macros in obs/obs.hh
 * skip every hook when no recorder is attached.
 */

#ifndef LAER_OBS_REQ_TRACE_HH
#define LAER_OBS_REQ_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.hh"
#include "obs/attribution.hh"

namespace laer
{

class TraceRecorder;

/** Sampling and report knobs for ReqTraceRecorder. */
struct ReqTraceConfig
{
    /** Keep 1 request in `sampleEvery` (<= 1 keeps every request).
     * Selection hashes (seed, id), so it is deterministic across
     * runs, thread counts and event cores. */
    int sampleEvery = 16;

    /** Sampling hash seed; distinct seeds select distinct 1-in-N
     * subsets. */
    std::uint64_t seed = 0;

    /** Worst-TTFT / worst-TPOT records retained for the SLO report. */
    int topK = 8;
};

/** One request's residency share of one engine step: the step
 * interval plus its overhead split, produced by the simulator's event
 * core (fan-out workers fill these into window buffers, which are
 * applied in deterministic order). */
struct ReqStepShare
{
    int requestId = 0;
    int pool = 0;          //!< engine index the step ran on
    Seconds start = 0.0;   //!< step start (simulated)
    Seconds duration = 0.0; //!< full step duration charged to the request
    Seconds retunePause = 0.0;  //!< expert-migration share of the step
    Seconds swapOverhead = 0.0; //!< swap offload/restore share
    /** What the compute remainder (duration - retunePause -
     * swapOverhead) counts as: PrefillCompute, PreemptRecovery
     * (replay) or DecodeResidency. */
    AttrComponent computeAs = AttrComponent::PrefillCompute;
    bool firstToken = false; //!< this step emits the first token
};

/** Retirement facts the recorder cannot know on its own (kept free of
 * serve/ types so the obs layer stays standalone). */
struct ReqRetireInfo
{
    int id = 0;
    Seconds firstTokenTime = 0.0;
    Seconds finishTime = 0.0;
    std::int64_t decodeTokens = 0;
    int preemptions = 0;
    Seconds sloTtft = 0.0; //!< TTFT target; > ttft means SLO miss
};

/** Exact TTFT + E2E decomposition returned at retirement. */
struct RetiredAttribution
{
    AttrBreakdown ttft;
    AttrBreakdown e2e;
};

/** One retired request in the top-K SLO-miss report. */
struct SloRecord
{
    int id = 0;
    int sloClass = 0;
    int preemptions = 0;
    Seconds arrival = 0.0;
    Seconds ttft = 0.0;
    Seconds tpot = 0.0;
    Seconds e2e = 0.0;
    bool sloMiss = false;
    AttrBreakdown ttftBk;
    AttrBreakdown e2eBk;
};

/** Sampled per-request lifecycle recorder; see file comment. */
class ReqTraceRecorder
{
  public:
    explicit ReqTraceRecorder(ReqTraceConfig config = {});

    const ReqTraceConfig &config() const { return config_; }

    /** True when `request_id` is in the deterministic sample. Pure
     * function of (config seed, id): safe to call from the event
     * core's workers. Every other hook must run on the simulator thread. */
    bool wants(int request_id) const;

    /** Request entered an admission queue (arrival into the serving
     * system, or the decode-side pool for disaggregated runs). */
    void onAdmit(int id, int slo_class, Seconds arrival,
                 Seconds admit_time, int pool);

    /** Request was resident in an engine step (see ReqStepShare). */
    void onStep(const ReqStepShare &share);

    /** Request was evicted from a running batch. */
    void onPreempt(int id, Seconds time, bool swap);

    /** Prefill->decode KV wire transfer of `wire` seconds starting at
     * `start` (disaggregated pools). */
    void onKvTransfer(int id, Seconds start, Seconds wire);

    /** Migrated context waited at the decode admission door from
     * `ready_at` until `admitted_at`. */
    void onTransferStall(int id, Seconds ready_at, Seconds admitted_at);

    /** Request was drained out of a stopping engine and re-queued
     * (`pool` < 0 when parked in the held queue). */
    void onRehome(int id, Seconds time, int pool);

    /** Fault recovery (src/fault/): the request lost its engine at
     * `killed_at` and its retry re-entered a queue at `requeued_at`.
     * The gap is attributed to retry_recovery. */
    void onRetryWait(int id, Seconds killed_at, Seconds requeued_at);

    /** Fault recovery gave up on the request (retry budget exhausted,
     * no live replica, or the degraded pool can never hold it): drop
     * its live state — it will never retire. */
    void onFailed(int id, Seconds time);

    /** Trace-emission context for retire(). */
    struct RetireContext
    {
        TraceRecorder *trace = nullptr; //!< null skips trace emission
        std::string trackPrefix;        //!< e.g. "label/" or ""
        /** Engine index -> trace track id, for flow binding to pool
         * step slices; null emits flows on the request track only. */
        const std::vector<int> *poolTracks = nullptr;
    };

    /**
     * Finalise one sampled request: build the exact TTFT/E2E
     * breakdowns, fold top-K heaps, emit the per-request track + flow
     * events, record any conservation violation, and drop the live
     * state. Call only for ids admitted via onAdmit().
     */
    RetiredAttribution retire(const ReqRetireInfo &info,
                              const RetireContext &ctx);

    /** Sampled requests retired so far. */
    std::int64_t sampledRetired() const { return sampledRetired_; }

    /** Fault-recovery re-queues recorded via onRetryWait(). */
    std::int64_t sampledRetries() const { return retries_; }

    /** Sampled requests dropped via onFailed() (never retired). */
    std::int64_t sampledFailed() const { return failedCount_; }

    /** Sampled requests still live (admitted, not yet retired). */
    std::size_t liveCount() const { return live_.size(); }

    /** Conservation violations observed at retirement (empty on a
     * healthy run; capped at 32 messages). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /** Worst-TTFT retirements, worst first (<= topK records). */
    std::vector<SloRecord> worstTtft() const;

    /** Worst-TPOT retirements (decodeTokens >= 2 only), worst
     * first. */
    std::vector<SloRecord> worstTpot() const;

    /**
     * Serialise the SLO-miss report as one JSON object: sampling
     * parameters, violation list and the top-K worst-TTFT/TPOT
     * records with their exact component breakdowns (17-digit
     * doubles, so components re-sum to the measured latency
     * bit-for-bit after a JSON round trip).
     */
    void writeSloJson(std::ostream &os,
                      const std::string &label = "") const;

  private:
    struct TimelineEvent
    {
        Seconds time = 0.0;
        Seconds duration = 0.0; //!< 0 for instants
        int pool = -1;
        AttrComponent component = AttrComponent::QueueWait;
        bool segment = false; //!< span (residency) vs instant
        const char *name = ""; //!< static label for instants
    };

    struct LiveReq
    {
        int sloClass = 0;
        Seconds arrival = 0.0;
        bool firstTokenSeen = false;
        int preemptions = 0;
        int droppedEvents = 0;
        AttributionBuilder attr;
        std::vector<TimelineEvent> events;
    };

    LiveReq *find(int id);
    void pushEvent(LiveReq &req, const TimelineEvent &event);
    void noteViolation(const std::string &message);
    void emitTrace(int id, const LiveReq &req, const SloRecord &rec,
                   const RetireContext &ctx) const;
    void foldTopK(std::vector<SloRecord> &heap, const SloRecord &rec,
                  bool by_tpot);

    ReqTraceConfig config_;
    std::unordered_map<int, LiveReq> live_;
    std::vector<SloRecord> byTtft_; //!< min-heap of the K worst
    std::vector<SloRecord> byTpot_;
    std::vector<std::string> violations_;
    std::int64_t sampledRetired_ = 0;
    std::int64_t violationCount_ = 0;
    std::int64_t retries_ = 0;
    std::int64_t failedCount_ = 0;
};

} // namespace laer

#endif // LAER_OBS_REQ_TRACE_HH
