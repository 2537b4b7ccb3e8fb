/**
 * @file
 * Observability of one serving run: the only place the simulator
 * writes its attached sinks from (ServingConfig::trace,
 * metricsRegistry and reqTrace; docs/OBSERVABILITY.md).
 *
 * ServingObs owns the sink pointers, the trace track ids (each
 * resolved once, on first use, so tracks are created in the order the
 * run first touches them), the periodic-snapshot cadence and the
 * event core's fan-out profile. Everything it writes is write-only:
 * nothing here is read back into simulated state. The snapshot grid
 * ends the event core's windows, which moves no simulated number
 * (docs/PERF.md, "The event core").
 */

#ifndef LAER_SERVE_SERVING_OBS_HH
#define LAER_SERVE_SERVING_OBS_HH

#include <limits>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "serve/batcher.hh"
#include "serve/engine.hh"
#include "serve/request.hh"

namespace laer
{

struct ServingConfig;
struct ServingReport;
class FaultRecovery;

/** Everything one engine step produced, handed from the producer to
 * the simulator thread. A fan-out window buffers these on its workers
 * and applies them in deterministic order. */
struct StepRecord
{
    ServingStepResult result; //!< start and pool set even when idle
    bool idle = false;        //!< empty plan: nothing executed
    std::vector<PreemptionRecord> preempted; //!< planStep() evictions
    std::int64_t admissions = 0;       //!< admitted by planStep()
    std::vector<Request> completions;  //!< finished at commit
    /** Sampled requests' residency shares of this step (empty unless
     * a ReqTraceRecorder is attached). */
    std::vector<ReqStepShare> shares;
    RetuneWallSample retune;  //!< valid when result.retuned
    double execMs = 0.0;      //!< wall inside executeStep (selfProfile)
};

/** Everything one engine produces while advancing through a window. */
struct WindowBuffer
{
    std::vector<StepRecord> steps;
    double wallMs = 0.0; //!< worker wall inside the engine's window
};

/** The run's own totals, kept by the simulator across engine rebuilds;
 * the report and the registry gauges read them. */
struct RunTotals
{
    std::int64_t offered = 0;
    std::int64_t admissions = 0;
    std::int64_t migrated = 0;     //!< contexts moved prefill -> decode
    Bytes kvTransferBytes = 0;
    Seconds kvTransferSeconds = 0.0;
    Seconds transferStallSeconds = 0.0;
    std::vector<ServingStepResult> steps;      //!< every applied step
    std::vector<RetuneWallSample> retuneWall;  //!< one per retune
};

/** The simulator's observability component (see the file comment). */
class ServingObs
{
  public:
    explicit ServingObs(const ServingConfig &config);

    TraceRecorder *trace() const { return trace_; }
    MetricsRegistry *registry() const { return registry_; }

    /** The request-trace recorder when it samples `id`, else null. */
    ReqTraceRecorder *sampled(int id) const
    {
        return LAER_REQ_SAMPLED(reqTrace_, id) ? reqTrace_ : nullptr;
    }

    /** Track ids; call only with a trace attached. */
    int poolTrack(const std::vector<EngineSlot> &slots, std::size_t i)
    {
        return slotTrack(poolTracks_, slots, i, "");
    }
    int kvTrack() { return sharedTrack(kvTrack_, "kv_transfer"); }
    int controlTrack() { return sharedTrack(controlTrack_, "control"); }
    int faultTrack() { return sharedTrack(faultTrack_, "faults"); }

    /** Collect the sampled requests' residency shares of one priced
     * step, before its commit: the scheduled decoders (read from
     * `batcher`, in admission order), then the plan's entries (each
     * says whether it replays a preempted context and whether it
     * emits the first token). Reads only its arguments and the
     * recorder's pure sampling predicate, so a worker may call it;
     * no-op when no recorder is attached. */
    void captureStepShares(const BatchPlan &plan,
                           const ContinuousBatcher &batcher,
                           const ServingStepResult &result,
                           int pool_index,
                           std::vector<ReqStepShare> &out) const;

    /** Emit one applied step of engine `i`: preemption instants, the
     * request-trace replay of its preemptions and shares, the step
     * span, the step-time histogram and its retune span and samples. */
    void step(const std::vector<EngineSlot> &slots, std::size_t i,
              const StepRecord &rec, double tuner_budget_ms);

    /** One completed request: latency histograms, and for a sampled
     * one its exact attribution, folded into `metrics` per class. */
    void complete(const std::vector<EngineSlot> &slots,
                  const Request &done, Seconds slo_ttft,
                  ServingMetrics &metrics);

    /** Fold the run's authoritative counters and gauges into the
     * registry (no-op without one). `faults` is null on fault-free
     * runs, whose metric stream carries no fault series. */
    void updateGauges(const std::vector<EngineSlot> &slots,
                      const ServingMetrics &metrics,
                      const RunTotals &totals, std::size_t migrating,
                      std::int64_t held, const FaultRecovery *faults,
                      double device_seconds, Seconds now) const;

    /** Record every periodic snapshot due by `now`, each after
     * `update_gauges()`. Snapshots are stamped with the boundary they
     * represent; a long event jump can cross several boundaries, each
     * recorded with the state as of the first event at-or-after it. */
    template <typename UpdateGauges>
    void maybeSnapshot(Seconds now, UpdateGauges update_gauges)
    {
        for (; now >= snapshotGrid(); nextSnapshot_ += interval_) {
            update_gauges();
            registry_->recordSnapshot(nextSnapshot_);
        }
    }

    /** Next periodic snapshot boundary; +infinity without a grid. */
    Seconds snapshotGrid() const
    {
        return registry_ != nullptr && interval_ > 0.0
                   ? nextSnapshot_
                   : std::numeric_limits<Seconds>::infinity();
    }

    /** Account for one fan-out window's wall-time profile. */
    void window(const std::vector<WindowBuffer> &buffers,
                double fanout_ms);

    /** End of run: the self-profile gauges and, when a window fanned
     * out, the fan-out profile, then the final snapshot at `now`, so
     * --metrics-out always captures the run's totals. */
    void finish(const ServingReport &report, Seconds now);

  private:
    int sharedTrack(int &id, const char *name)
    {
        if (id < 0)
            id = trace_->track(prefix_ + name);
        return id;
    }
    int slotTrack(std::vector<int> &ids,
                  const std::vector<EngineSlot> &slots, std::size_t i,
                  const char *suffix);

    TraceRecorder *trace_;
    MetricsRegistry *registry_;
    ReqTraceRecorder *reqTrace_;
    std::string prefix_;  //!< "<obsLabel>/" or ""
    bool swapPreemption_; //!< preemptions replay as swaps
    bool selfProfile_;
    Seconds interval_;     //!< snapshot cadence; 0 = final only
    Seconds nextSnapshot_; //!< next periodic boundary
    // Track ids, -1 until first use; the per-slot lists are sized on
    // first use.
    std::vector<int> poolTracks_, plannerTracks_;
    int kvTrack_ = -1, controlTrack_ = -1, faultTrack_ = -1;
    // Fan-out profile (profile.descore.* gauges).
    std::int64_t descoreWindows_ = 0;   //!< fan-out windows advanced
    std::int64_t descoreSteps_ = 0;     //!< engine steps inside them
    double descoreFanoutMs_ = 0.0;      //!< wall across the fan-out
    double descoreWorkerBusyMs_ = 0.0;  //!< sum of worker busy wall
    double descoreBarrierWaitMs_ = 0.0; //!< fan-out wall minus busy,
                                        //!< summed over engines
};

} // namespace laer

#endif // LAER_SERVE_SERVING_OBS_HH
