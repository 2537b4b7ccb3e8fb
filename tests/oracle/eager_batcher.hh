/**
 * @file
 * The eager continuous batcher (test oracle: part of the laer_oracle
 * library, which only tests and the tab05 bench link).
 *
 * ContinuousBatcher advances its running decoders as one cohort by a
 * decode tick and retires them off a finish calendar. This is the
 * formulation it replaced, kept so the tests can pin it against it:
 * every step writes one entry per running decoder, every commit
 * rewrites every running request, and retiring a request moves the
 * running queue behind it. Same config, same scheduling rules, same
 * preemption order; the plan is the full entry list (decoders first,
 * then prefill continuations, then admissions), slots are indices
 * into the running queue.
 */

#ifndef LAER_ORACLE_EAGER_BATCHER_HH
#define LAER_ORACLE_EAGER_BATCHER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "serve/batcher.hh"
#include "serve/kv_cache.hh"
#include "serve/request.hh"

namespace laer
{

/** ContinuousBatcher's contract, one Request write per running
 * sequence per step. See ContinuousBatcher for each member. */
class EagerBatcherReference
{
  public:
    explicit EagerBatcherReference(const BatcherConfig &config);

    void enqueue(const Request &request);
    void enqueueFront(const Request &request);
    std::vector<Request> resizeKvBudget(Bytes budget);
    std::vector<Request>
    sweep(const std::function<bool(const Request &)> &servable);

    /** The step's entries: one decode per running decoder (admission
     * order, within the budget), then prefill continuations, then
     * admissions. */
    std::vector<BatchEntry> nextBatch();
    void applyStep(const std::vector<BatchEntry> &entries,
                   Seconds finish_time);

    std::vector<Request> takeFinished();
    std::vector<Request> drainAll();
    std::vector<PreemptionRecord> takePreempted();
    void setAdmissionPaused(bool paused) { admissionPaused_ = paused; }

    bool canAdmitContext(TokenCount context) const;
    Bytes waitingKvDemand() const;
    TokenCount maxLiveFullContext() const;
    bool canEverHold(const Request &request) const;
    Bytes kvBytesFor(TokenCount context) const;
    Bytes takeSwapOutBytes();
    Bytes takeSwapInBytes();
    const Request *find(int id) const;
    bool hasWork() const;
    int waitingCount() const;
    int runningCount() const
    {
        return static_cast<int>(running_.size());
    }
    Bytes kvBudgetBytes() const;
    Bytes kvReservedBytes() const;
    double kvUtilization() const;
    std::int64_t totalPreemptions() const { return totalPreemptions_; }
    std::int64_t totalAdmissions() const { return totalAdmissions_; }

  private:
    void validateAdmissible(const Request &request) const;
    void secureDecodeGrowth();
    int pickVictim(const std::vector<int> &protected_ids,
                   int grower_class) const;
    void preempt(int index);
    BatchEntry entryFor(int slot, TokenCount budget) const;

    BatcherConfig config_;
    std::optional<KvCachePool> kv_;
    std::vector<std::deque<Request>> waiting_;
    std::vector<Request> running_;
    std::vector<Request> finished_;
    std::vector<PreemptionRecord> preemptedLog_;
    std::int64_t totalPreemptions_ = 0;
    std::vector<std::int64_t> preemptionsByClass_;
    std::int64_t totalAdmissions_ = 0;
    bool admissionPaused_ = false;
    Bytes swapOutBytes_ = 0;
    Bytes swapInBytes_ = 0;
};

} // namespace laer

#endif // LAER_ORACLE_EAGER_BATCHER_HH
