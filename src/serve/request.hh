/**
 * @file
 * Inference request model for the serving simulator.
 *
 * A request arrives with a prompt of `prefillTokens` tokens and asks
 * for `decodeTokens` generated tokens. Prefill may be chunked across
 * several engine steps (Sarathi-style); the first output token is
 * produced by the step that completes the prefill, and every later
 * decode step emits exactly one token. Under KV-cache pressure the
 * batcher may preempt a running request (recompute-style eviction):
 * its KV reservation is dropped, it re-queues at the front of its SLO
 * class, and on re-admission it replays prompt *and* already-generated
 * tokens as prefill work to rebuild the cache before decoding resumes
 * — the generated tokens themselves were already delivered, so TTFT
 * and token counts are unaffected; only latency suffers. The two
 * serving latency metrics derive directly from that life cycle:
 *
 *   TTFT = time of the first output token - arrival time
 *   TPOT = (finish - first token) / (decodeTokens - 1)
 *
 * ServingMetrics folds completed requests into TTFT/TPOT percentile
 * samples and the SLO-conditioned goodput the benches report.
 */

#ifndef LAER_SERVE_REQUEST_HH
#define LAER_SERVE_REQUEST_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/types.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"

namespace laer
{

/** Life-cycle stage of a request inside the serving engine. */
enum class RequestPhase
{
    Queued,   //!< admitted to the waiting queue, no work scheduled yet
    Prefill,  //!< running, prompt not fully processed
    Decode,   //!< running, emitting one token per scheduled step
    Finished, //!< all decode tokens produced
};

/** Printable phase name. */
const char *requestPhaseName(RequestPhase phase);

/** One inference request and its progress through the engine. */
struct Request
{
    int id = 0;
    int sloClass = 0;            //!< priority class; 0 schedules first
    Seconds arrival = 0.0;
    TokenCount prefillTokens = 1; //!< prompt length
    TokenCount decodeTokens = 1;  //!< output tokens requested

    TokenCount prefillDone = 0;   //!< prompt tokens already processed
    TokenCount decodeDone = 0;    //!< output tokens already produced
    Seconds firstTokenTime = -1.0; //!< absolute time; < 0 until known
    Seconds finishTime = -1.0;     //!< absolute time; < 0 until done
    bool restoring = false;       //!< preempted; KV is being recomputed
    bool swapped = false;         //!< preempted; KV parked in host memory
    std::int32_t decodeTarget = 0; //!< decode tokens a disaggregated
                                   //!< prefill copy still owes; 0 else
    Bytes swappedBytes = 0;       //!< KV bytes parked on host while swapped
    int preemptions = 0;          //!< times this request was evicted
    int retries = 0;              //!< fault-recovery re-queues so far
                                  //!< (src/fault/ retry budget)

    /** Current life-cycle stage, derived from progress counters.
     * Inline: the batcher asks it of every running request per step. */
    RequestPhase phase() const
    {
        if (!restoring && decodeDone >= decodeTokens)
            return RequestPhase::Finished;
        if (prefillDone >= prefillTarget())
            return RequestPhase::Decode;
        if (prefillDone > 0)
            return RequestPhase::Prefill;
        return RequestPhase::Queued;
    }

    /** Prompt plus every output token owed, the prefill copy's
     * parked target included: the KV ceiling this request can reach. */
    TokenCount fullContext() const
    {
        return prefillTokens +
               std::max<TokenCount>(decodeTokens, decodeTarget);
    }

    /** Context length the next decode token attends over. */
    TokenCount contextLength() const { return prefillTokens + decodeDone; }

    /**
     * Prefill tokens this request must process before it can (resume)
     * decoding: the prompt, plus — after a preemption — the generated
     * tokens whose KV entries must be recomputed.
     * @return prefillTokens, or contextLength() while restoring.
     */
    TokenCount prefillTarget() const
    {
        return restoring ? contextLength() : prefillTokens;
    }

    /** Time to first token; negative until the first token exists. */
    Seconds ttft() const;

    /** Mean time per output token after the first; 0 for 1-token
     * outputs (TPOT is undefined without a second token). */
    Seconds tpot() const;
};

/**
 * Memory discipline of a ServingMetrics collector.
 *
 * Exact keeps every TTFT/TPOT/KV-utilization sample in vectors and
 * reports sort-based percentiles — bit-identical to the historical
 * behavior, and what TelemetryCollector's suffix cursors read.
 * Streaming folds samples into P² estimators (obs/metrics.hh) and an
 * Accumulator instead: O(1) memory regardless of request count, with
 * percentiles inside the estimator's documented error bound. The
 * sample accessors then return empty vectors, so per-window telemetry
 * percentiles degrade to 0 while every counter (completed, SLO-met,
 * decoded/good tokens, preemptions) stays identical across modes.
 */
enum class MetricsMemoryMode
{
    Exact,     //!< store every sample; exact percentiles (default)
    Streaming, //!< bounded memory; P² estimated percentiles
};

/** Summary of one latency component's distribution for one SLO
 * class, aggregated from sampled-request attribution (see
 * obs/attribution.hh). Percentiles are exact in
 * MetricsMemoryMode::Exact and P² estimates in Streaming. */
struct AttributionComponentStats
{
    std::int64_t count = 0; //!< sampled requests folded in
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/**
 * Accumulates completed requests and reports the latency/goodput
 * summary of a serving run. Goodput follows the SLO-attainment
 * convention: only requests whose TTFT met the target contribute
 * their decode tokens. Under the KV-cache memory model the collector
 * additionally tracks preemption counts per SLO class and the
 * KV-pool utilization time series sampled once per engine step.
 * When a ReqTraceRecorder is attached to the run, the exact E2E
 * component breakdown of every sampled retirement is folded in per
 * class via recordAttribution().
 */
class ServingMetrics
{
  public:
    /**
     * @param slo_ttft  TTFT target used for goodput attribution.
     * @param mode      Sample storage discipline; see
     *                  MetricsMemoryMode.
     */
    explicit ServingMetrics(
        Seconds slo_ttft,
        MetricsMemoryMode mode = MetricsMemoryMode::Exact);

    /**
     * Fold one finished request into the summary.
     * @param request  Must be in RequestPhase::Finished.
     */
    void record(const Request &request);

    /**
     * Record one recompute-style eviction.
     * @param slo_class  Class of the preempted request (>= 0).
     */
    void recordPreemption(int slo_class);

    /**
     * Record one engine step's KV-pool utilization sample.
     * @param utilization  reservedBytes / budgetBytes, in [0, 1].
     */
    void recordKvUtilization(double utilization);

    /**
     * Fold one sampled request's exact E2E component breakdown into
     * the per-class aggregates. Exact mode stores every sample for
     * exact percentiles; Streaming mode folds into P² estimators
     * (bounded memory).
     * @param slo_class  Class of the retired request (>= 0).
     * @param e2e        Its breakdown from ReqTraceRecorder::retire().
     */
    void recordAttribution(int slo_class, const AttrBreakdown &e2e);

    /** Per-class (index = class id) component summaries of the
     * sampled-request attribution; empty when no sampled request
     * retired (no recorder attached, or none finished). */
    std::vector<std::array<AttributionComponentStats,
                           kNumAttrComponents>>
    attributionByClass() const;

    /** Preemptions recorded across all SLO classes. */
    std::int64_t totalPreemptions() const;

    /**
     * Preemptions recorded for one SLO class.
     * @param slo_class  Class id; unseen classes report 0.
     */
    std::int64_t preemptions(int slo_class) const;

    /** Mean of the recorded KV-utilization samples; 0 when empty. */
    double meanKvUtilization() const;

    /** Peak recorded KV-utilization sample; 0 when empty. */
    double peakKvUtilization() const;

    /** KV-utilization samples in recording order (one per step).
     * Empty in Streaming mode. */
    const std::vector<double> &kvUtilizationSeries() const
    {
        return kvUtil_;
    }

    /** TTFT samples in completion order — the control plane slices
     * suffixes of this for per-window percentiles. Empty in Streaming
     * mode (window percentiles then read 0). */
    const std::vector<double> &ttftSamples() const { return ttfts_; }

    /** TPOT samples (multi-token completions only) in completion
     * order. Empty in Streaming mode. */
    const std::vector<double> &tpotSamples() const { return tpots_; }

    /** Sample storage discipline this collector was built with. */
    MetricsMemoryMode memoryMode() const { return mode_; }

    /** Number of requests recorded. */
    std::int64_t completed() const { return completed_; }

    /** Requests whose TTFT met the SLO. */
    std::int64_t sloMet() const { return sloMet_; }

    /** Decode tokens produced by all recorded requests. */
    TokenCount decodedTokens() const { return decodedTokens_; }

    /** Decode tokens of SLO-meeting requests only. */
    TokenCount goodTokens() const { return goodTokens_; }

    /**
     * TTFT percentile.
     * @param p  Percentile in [0, 100].
     * @return the percentile in seconds; 0 when no request finished.
     */
    Seconds ttftPercentile(double p) const;

    /**
     * TPOT percentile over multi-token requests.
     * @param p  Percentile in [0, 100].
     * @return the percentile in seconds; 0 when empty.
     */
    Seconds tpotPercentile(double p) const;

    /**
     * Decode tokens per second.
     * @param elapsed  Wall-clock seconds of the run; must be > 0 for a
     *                 meaningful rate (0 yields 0).
     * @return decodedTokens() / elapsed.
     */
    double throughput(Seconds elapsed) const;

    /**
     * SLO-attained decode tokens per second.
     * @param elapsed  Wall-clock seconds of the run.
     * @return goodTokens() / elapsed; 0 when elapsed is 0.
     */
    double goodput(Seconds elapsed) const;

    /** TTFT target this collector scores against. */
    Seconds sloTtft() const { return sloTtft_; }

  private:
    Seconds sloTtft_;
    MetricsMemoryMode mode_;
    std::int64_t completed_ = 0;
    std::int64_t sloMet_ = 0;
    TokenCount decodedTokens_ = 0;
    TokenCount goodTokens_ = 0;
    // Exact mode: per-sample vectors (empty in Streaming mode).
    std::vector<double> ttfts_;
    std::vector<double> tpots_;
    std::vector<double> kvUtil_;
    // Streaming mode: bounded-memory estimators (unused in Exact).
    StreamingQuantiles ttftStream_;
    StreamingQuantiles tpotStream_;
    Accumulator kvUtilStream_;
    std::vector<std::int64_t> preemptionsByClass_;

    /** One component's aggregate: exact samples or a P² stream,
     * depending on mode_. */
    struct AttrAgg
    {
        std::vector<double> samples; //!< Exact mode only
        StreamingQuantiles stream;   //!< Streaming mode only
        std::int64_t count = 0;
        double sum = 0.0;
        double max = 0.0;
    };
    /** Per class, per AttrComponent; grown lazily per class seen. */
    std::vector<std::array<AttrAgg, kNumAttrComponents>> attr_;
};

} // namespace laer

#endif // LAER_SERVE_REQUEST_HH
