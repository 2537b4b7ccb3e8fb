/**
 * @file
 * Continuous batcher — the serving engine's scheduler.
 *
 * Implements iteration-level (continuous) batching with a token
 * budget, the scheduling discipline of vLLM/Orca-class engines: every
 * engine step assembles a mixed batch of decode tokens and chunked
 * prefill work, bounded by `tokenBudget` scheduled tokens. Decode work
 * is scheduled first so running sequences never starve behind long
 * prompts; remaining budget continues partially-prefilled requests and
 * then admits new ones. Admission is strict FIFO within an SLO class,
 * with lower class ids admitted first.
 *
 * The running decoders advance as one cohort: the batcher keeps a
 * decode tick, each decoder its progress relative to the tick it
 * joined at, and a calendar of finish ticks. A step therefore touches
 * only the requests whose state changes: admissions, prefill chunks
 * and finishes. A plan names the cohort by two numbers, its size and
 * the sum of its contexts; prefill continuations and admissions are
 * explicit entries.
 *
 * Concurrency is bounded one of two ways:
 *
 *  - Legacy slot count: at most `maxRunning` sequences run at once
 *    (kvBudgetBytes == 0).
 *  - KV-cache memory model (kvBudgetBytes > 0): a request is admitted
 *    only when the KvCachePool can reserve blocks for its context,
 *    every decode step grows the running sequence's reservation, and
 *    when growth exhausts the pool the batcher preempts the
 *    lowest-priority (highest class id), youngest running sequence.
 *    Growth never displaces a higher-priority sequence (the grower
 *    yields instead), and a head-of-queue request blocked on memory
 *    halts admission for every lower-priority class so its bytes
 *    cannot be sniped. `maxRunning` is ignored in this mode;
 *    simulated HBM is the only concurrency limit.
 *
 * Two preemption disciplines exist (PreemptionMode):
 *
 *  - Recompute (default, vLLM-style): the victim's KV is dropped, it
 *    re-queues at the FRONT of its class, and on re-admission it
 *    replays prompt + generated tokens as prefill to rebuild the
 *    cache.
 *  - Swap: the victim's KV reservation is offloaded to host memory
 *    (the batcher records the bytes; the engine charges the PCIe
 *    time) and restored on re-admission — no recompute work, but the
 *    swap traffic lands on the step timeline. The victim keeps its
 *    prefill progress and resumes decoding the step after
 *    re-admission.
 *
 * The batch is data-parallel sharded across devices, so the per-step
 * token budget doubles as the per-device expert capacity knob: with N
 * devices and top-k routing, a step schedules at most
 * tokenBudget * K / N expected expert tokens per device.
 */

#ifndef LAER_SERVE_BATCHER_HH
#define LAER_SERVE_BATCHER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "serve/kv_cache.hh"
#include "serve/request.hh"

namespace laer
{

/** What happens to a sequence evicted under KV pressure. */
enum class PreemptionMode
{
    Recompute, //!< drop KV; replay prompt + generated tokens as prefill
    Swap,      //!< offload KV to host; restore bytes on re-admission
};

/** Printable preemption-mode name. */
const char *preemptionModeName(PreemptionMode mode);

/** Scheduler knobs. */
struct BatcherConfig
{
    TokenCount tokenBudget = 8192; //!< scheduled tokens per step
    int maxRunning = 128;          //!< concurrent sequences; only
                                   //!< enforced when kvBudgetBytes == 0
    TokenCount prefillChunk = 512; //!< max prefill tokens per request
                                   //!< per step (Sarathi chunking)
    int numSloClasses = 1;         //!< admission priority classes

    /** Cluster-wide KV-cache pool in bytes; 0 keeps the legacy
     * `maxRunning` slot count. Derived from per-device HBM by
     * servingMemoryBudget() when driven through ServingConfig. */
    Bytes kvBudgetBytes = 0;
    Bytes kvBytesPerToken = 0;     //!< required when kvBudgetBytes > 0
    TokenCount kvBlockTokens = 16; //!< paged-allocation granularity

    /** Eviction discipline under KV pressure; Recompute is the
     * default and the only one exercised when the KV model is off. */
    PreemptionMode preemptionMode = PreemptionMode::Recompute;
};

/** Work scheduled for one prefill continuation or admission in one
 * engine step. nextBatch() decides every field; pricing, tracing and
 * the commit only read. */
struct BatchEntry
{
    int requestId = 0;
    TokenCount prefillTokens = 0; //!< prompt tokens processed this step
    TokenCount decodeTokens = 0;  //!< output tokens produced (0 or 1)
    int slot = 0;            //!< the request's handle in the batcher
    TokenCount context = 0;  //!< prefill target, or decode's context
    bool emitsToken = false; //!< a decode, or a first prefill's end
    bool restoring = false;  //!< the prefill is a KV recompute
};

/** One eviction event, in eviction order. */
struct PreemptionRecord
{
    int sloClass = 0;
    int requestId = 0;
};

/** The work of one engine step: the decode cohort's share, then the
 * explicit entries (prefill continuations, then admissions). */
struct BatchPlan
{
    std::vector<BatchEntry> entries;
    TokenCount decoders = 0;      //!< cohort decoders, one token each
    TokenCount decodeContext = 0; //!< sum of their contexts

    bool empty() const { return decoders == 0 && entries.empty(); }

    /** Scheduled tokens (prefill + decode) in this step. */
    TokenCount totalTokens() const;

    /** Prefill tokens scheduled. */
    TokenCount prefillTokens() const;

    /** Decode tokens scheduled. */
    TokenCount decodeTokens() const;
};

/**
 * The batcher owns every request from admission to completion:
 * enqueue() accepts arrivals, nextBatch() plans a step, applyStep()
 * commits the step's progress at its simulated finish time, and
 * takeFinished() drains completed requests for metrics accounting.
 */
class ContinuousBatcher
{
  public:
    explicit ContinuousBatcher(const BatcherConfig &config);

    /**
     * Admit a request into its class's waiting queue.
     * @param request  Must carry a valid SLO class and at least one
     *                 prefill and decode token; with the KV model
     *                 enabled its full context (prompt + output) must
     *                 fit the pool, or no schedule could ever run it.
     */
    void enqueue(const Request &request);

    /**
     * Admit a request at the FRONT of its class's waiting queue — the
     * fault-recovery re-queue primitive (src/fault/): a request that
     * lost its engine resumes before fresh arrivals of its class, the
     * same discipline a preemption victim gets. Validation matches
     * enqueue().
     */
    void enqueueFront(const Request &request);

    /**
     * Re-point the KV pool at `budget` bytes (device loss or repair
     * re-derives capacity from the surviving devices). Running
     * sequences are force-preempted through the normal recompute/swap
     * machinery — lowest priority, youngest first — until the
     * survivors' reservations fit the new budget; preemption records
     * and counters flow as usual. Requests (waiting or running) whose
     * FULL context could never fit the new budget are removed and
     * returned — no schedule could ever run them, so the caller
     * decides their fate (the fault layer counts them failed). A
     * no-op returning empty when the KV model is off.
     */
    std::vector<Request> resizeKvBudget(Bytes budget);

    /**
     * Remove and return every request, waiting or running, that
     * `servable` is false for, releasing its KV reservation.
     * resizeKvBudget() sweeps with canEverHold(); a disaggregated run
     * also sweeps its prefill pool with the decode pool's rule when a
     * device fault resizes the decode pool.
     */
    std::vector<Request>
    sweep(const std::function<bool(const Request &)> &servable);

    /**
     * Plan the next engine step. With the KV model enabled this is
     * also where preemption happens: decode growth that no longer
     * fits the pool evicts victims before the plan is assembled.
     * Entries name their requests by handle: a non-empty plan must be
     * committed by its own applyStep() before anything else touches
     * the batcher.
     * @return the planned step; empty when nothing can run.
     */
    BatchPlan nextBatch();

    /**
     * Commit a planned step that finished at `finish_time`: advance
     * prefill/decode progress, stamp first-token and finish times, and
     * retire completed requests (releasing their KV reservation).
     * @param plan         The plan returned by the last nextBatch();
     *                     a stale handle is a FatalError.
     * @param finish_time  Simulated time the step completed.
     */
    void applyStep(const BatchPlan &plan, Seconds finish_time);

    /** Drain requests completed since the last call. */
    std::vector<Request> takeFinished();

    /**
     * Evict every live request so the pool can be reconfigured: the
     * control plane's drain primitive. Running sequences get the
     * recompute disposition (their KV lives on devices about to be
     * re-purposed: the reservation is dropped, prefill progress reset,
     * and the context replays on whatever engine re-admits them);
     * host-parked swap state is likewise dropped. Completed-but-not-
     * yet-collected requests stay in the finished buffer — call
     * takeFinished() separately.
     *
     * @return every waiting and running request, in re-admission
     *         order: per SLO class (lowest id first), running
     *         sequences in admission order, then the class's waiting
     *         FIFO — so re-enqueueing the returned list on another
     *         batcher preserves scheduling priority. The KV pool is
     *         empty afterwards and drained evictions do NOT count as
     *         preemptions.
     */
    std::vector<Request> drainAll();

    /**
     * Drain the preemptions since the last call, in eviction order
     * (one record per event, carrying class AND request id — the
     * request-level trace needs to know WHO was evicted).
     */
    std::vector<PreemptionRecord> takePreempted();

    /**
     * Pause or resume the admission of waiting requests. While paused
     * nextBatch() still schedules running sequences (decode and
     * prefill continuations) but admits nothing new — the back-pressure
     * valve a downstream pool closes when its KV pool is full.
     */
    void setAdmissionPaused(bool paused) { admissionPaused_ = paused; }

    /** True while admission is paused (see setAdmissionPaused). */
    bool admissionPaused() const { return admissionPaused_; }

    /**
     * Could a sequence whose current context is `context` tokens join
     * the back of the queue and still be admitted promptly? True when
     * the KV pool's free bytes cover the context ON TOP of everything
     * already waiting (admission is FIFO, so the queue's demand is
     * committed first) — or, without the KV model, when a maxRunning
     * slot remains after the queue. Used by the disaggregated
     * simulator to decide when a migrated context may enter the
     * decode pool; false is the back-pressure signal.
     */
    bool canAdmitContext(TokenCount context) const;

    /** Block-rounded KV bytes the waiting queues will reserve when
     * admitted (their current contexts); 0 when the KV model is off. */
    Bytes waitingKvDemand() const;

    /** Largest Request::fullContext() of any live request — the
     * ceiling a reconfigured pool must still admit; 0 when no request
     * is live. */
    TokenCount maxLiveFullContext() const;

    /**
     * Could this pool ever hold `request` whole? True when its full
     * context here (prompt + requested output) fits the KV budget, or
     * when the KV model is off. enqueue() rejects, and
     * resizeKvBudget() sweeps out, every request this is false for.
     */
    bool canEverHold(const Request &request) const;

    /**
     * KV bytes a context of `context` tokens reserves (block-rounded).
     * @return the reservation size; 0 when the KV model is disabled.
     */
    Bytes kvBytesFor(TokenCount context) const;

    /** Drain KV bytes swapped OUT to host since the last call. */
    Bytes takeSwapOutBytes();

    /** Drain KV bytes swapped IN from host since the last call. */
    Bytes takeSwapInBytes();

    /** A copy of the live (waiting or running) request `id`, its
     * progress brought up to date; empty when none is live. */
    std::optional<Request> find(int id) const;

    /** Call `fn(id)` for each cohort decoder `plan` schedules, in
     * admission order. Valid between nextBatch() and applyStep(). */
    template <typename Fn>
    void forEachScheduledDecoder(const BatchPlan &plan, Fn &&fn) const
    {
        TokenCount left = plan.decoders;
        for (int s = head_; s >= 0 && left > 0; s = slab_[s].next)
            if (slab_[s].cohort) {
                fn(slab_[s].request.id);
                --left;
            }
    }

    /** True while any request is waiting or running. */
    bool hasWork() const;

    /** Requests waiting for admission across all classes. */
    int waitingCount() const;

    /** Requests currently running (prefill or decode). */
    int runningCount() const { return running_; }

    /** True when admission is bounded by KV bytes, not maxRunning. */
    bool kvEnabled() const { return kv_.has_value(); }

    /** Total KV pool bytes; 0 when the KV model is disabled. */
    Bytes kvBudgetBytes() const;

    /** KV bytes currently reserved; 0 when disabled. */
    Bytes kvReservedBytes() const;

    /** KV pool utilization in [0, 1]; 0 when disabled. */
    double kvUtilization() const;

    /** Recompute-style evictions since construction. */
    std::int64_t totalPreemptions() const { return totalPreemptions_; }

    /** Evictions since construction, per SLO class (indexed by class
     * id, always numSloClasses long). Unlike the drained preemption
     * log these are never reset; they sum to totalPreemptions(). */
    const std::vector<std::int64_t> &preemptionsByClass() const
    {
        return preemptionsByClass_;
    }

    /** Waiting requests moved to running since construction. Counts
     * every admission event, so a preempted-then-readmitted request
     * contributes more than once. */
    std::int64_t totalAdmissions() const { return totalAdmissions_; }

    const BatcherConfig &config() const { return config_; }

  private:
    /** One running sequence. Slots are stable handles: retiring a
     * request unlinks its slot and touches no other. */
    struct Running
    {
        Request request;  //!< decodeDone is stale while in the cohort
        std::int64_t seq = -1; //!< admission sequence; -1 when free
        std::int64_t base = 0; //!< in the cohort, decodeDone is
                               //!< tick_ - base
        Bytes held = 0;        //!< KV bytes reserved (KV model only)
        std::int64_t securedIn = 0; //!< growth pass that secured it
        int prev = -1;              //!< admission-order neighbours
        int next = -1;
        bool cohort = false; //!< decoding, advanced by tick_
    };

    /** A cohort decoder's last token lands at `tick`; a slot that no
     * longer holds `seq` (its decoder left early) makes it stale. */
    struct Finish
    {
        std::int64_t tick = 0;
        std::int64_t seq = 0;
        int slot = 0;

        bool operator>(const Finish &o) const
        {
            return tick != o.tick ? tick > o.tick : seq > o.seq;
        }
    };

    /** Shared enqueue()/enqueueFront() validation: class and token
     * ranges, and full-context-fits under the KV model. */
    void validateAdmissible(const Request &request) const;

    /** Output tokens running slot `s` has produced. */
    TokenCount decodeDoneOf(const Running &s) const
    {
        return s.cohort ? tick_ - s.base : s.request.decodeDone;
    }

    /** Append `request` to the running sequences; returns its slot. */
    int link(const Request &request);

    /** Remove running slot `s` (cohort, prefill list and admission
     * order) and return its request, progress brought up to date. */
    Request unlink(int s);

    /** Slot `s` joins the decode cohort at the current tick. */
    void joinCohort(int s);

    /** Reserve decode growth for running sequences, evicting when the
     * pool runs dry. Only called with the KV model enabled. */
    void secureDecodeGrowth();

    /** Slot of the preferred victim (highest class id, then youngest),
     * skipping slots secured in growth pass `protect_pass` and any
     * request of a class more urgent than `grower_class` — growth
     * never evicts a higher-priority sequence; -1 when none
     * qualifies. */
    int pickVictim(std::int64_t protect_pass, int grower_class) const;

    /** Evict running slot `s` per the configured PreemptionMode
     * (recompute: drop KV and reset prefill progress; swap: offload
     * the reservation to host) and re-queue it at the front of its
     * class. */
    void preempt(int s);

    /** The plan entry for running slot `s`: a prefill chunk of at most
     * `budget` tokens while its prefill is unfinished, else a decode. */
    BatchEntry entryFor(int s, TokenCount budget) const;

    BatcherConfig config_;
    std::optional<KvCachePool> kv_;
    std::vector<std::deque<Request>> waiting_; //!< FIFO per SLO class
    std::vector<Running> slab_;     //!< running sequences by slot
    std::vector<int> freeSlots_;
    int head_ = -1;                 //!< eldest running slot
    int tail_ = -1;                 //!< youngest running slot
    int running_ = 0;
    std::vector<int> prefilling_;   //!< unfinished prefills, admission
                                    //!< order
    int cohort_ = 0;                //!< decoders in the cohort
    TokenCount cohortContext_ = 0;  //!< their contexts, summed
    std::int64_t tick_ = 0;         //!< decode steps committed
    std::vector<Finish> calendar_;  //!< min-heap of cohort finishes
    std::vector<int> retiring_;     //!< applyStep() scratch
    std::int64_t growPass_ = 0;
    std::vector<Request> finished_;
    std::vector<PreemptionRecord> preemptedLog_; //!< since last drain
    std::int64_t totalPreemptions_ = 0;
    std::vector<std::int64_t> preemptionsByClass_; //!< per class id
    std::int64_t totalAdmissions_ = 0;
    bool admissionPaused_ = false;
    Bytes swapOutBytes_ = 0; //!< host offload since last drain
    Bytes swapInBytes_ = 0;  //!< host restore since last drain
};

} // namespace laer

#endif // LAER_SERVE_BATCHER_HH
