#include "oracle/eager_batcher.hh"

#include <algorithm>
#include <utility>

#include "core/error.hh"

namespace laer
{

EagerBatcherReference::EagerBatcherReference(const BatcherConfig &config)
    : config_(config), waiting_(config.numSloClasses),
      preemptionsByClass_(config.numSloClasses, 0)
{
    LAER_CHECK(config_.tokenBudget >= 1, "token budget must be positive");
    LAER_CHECK(config_.prefillChunk >= 1,
               "prefill chunk must be positive");
    LAER_CHECK(config_.numSloClasses >= 1, "need at least one SLO class");
    if (config_.kvBudgetBytes > 0) {
        LAER_CHECK(config_.kvBytesPerToken >= 1,
                   "KV model needs kvBytesPerToken");
        kv_.emplace(config_.kvBudgetBytes, config_.kvBytesPerToken,
                    config_.kvBlockTokens);
    } else {
        LAER_CHECK(config_.maxRunning >= 1, "need at least one KV slot");
    }
}

Bytes
EagerBatcherReference::kvBudgetBytes() const
{
    return kv_ ? kv_->budgetBytes() : 0;
}

Bytes
EagerBatcherReference::kvReservedBytes() const
{
    return kv_ ? kv_->reservedBytes() : 0;
}

double
EagerBatcherReference::kvUtilization() const
{
    return kv_ ? kv_->utilization() : 0.0;
}

void
EagerBatcherReference::validateAdmissible(const Request &request) const
{
    LAER_CHECK(request.sloClass >= 0 &&
                   request.sloClass < config_.numSloClasses,
               "request SLO class out of range");
    LAER_CHECK(request.prefillTokens >= 1 && request.decodeTokens >= 1,
               "request needs at least one prefill and decode token");
    // A request whose full context can never fit the pool would
    // deadlock admission; that is a configuration error.
    LAER_CHECK(canEverHold(request),
               "request " << request.id << " needs "
                          << kvBytesFor(request.prefillTokens +
                                        request.decodeTokens)
                          << " KV bytes but the pool holds only "
                          << kvBudgetBytes());
}

bool
EagerBatcherReference::canEverHold(const Request &request) const
{
    return !kv_ ||
           kv_->bytesFor(request.prefillTokens + request.decodeTokens) <=
               kv_->budgetBytes();
}

void
EagerBatcherReference::enqueue(const Request &request)
{
    validateAdmissible(request);
    waiting_[request.sloClass].push_back(request);
}

void
EagerBatcherReference::enqueueFront(const Request &request)
{
    validateAdmissible(request);
    waiting_[request.sloClass].push_front(request);
}

std::vector<Request>
EagerBatcherReference::resizeKvBudget(Bytes budget)
{
    if (!kv_ || budget == kv_->budgetBytes())
        return {};
    LAER_CHECK(budget >= 1, "KV resize needs a positive budget");
    // Shrink first: force-preempt running sequences through the normal
    // eviction machinery (lowest priority, youngest first — grower
    // class 0 puts every sequence in scope) until the survivors fit.
    // Only running sequences hold reservations, so reserved > budget
    // guarantees a victim exists.
    while (kv_->reservedBytes() > budget) {
        const int victim = pickVictim({}, 0);
        LAER_ASSERT(victim >= 0,
                    "KV bytes reserved with nothing running");
        preempt(victim);
    }
    kv_->setBudget(budget);
    // Sweep out requests whose FULL context can never fit again (the
    // preempt loop parked its victims in waiting_, so one pass over
    // the queues after it catches them too).
    return sweep([this](const Request &r) { return canEverHold(r); });
}

std::vector<Request>
EagerBatcherReference::sweep(
    const std::function<bool(const Request &)> &servable)
{
    std::vector<Request> unservable;
    for (auto &queue : waiting_) {
        for (auto it = queue.begin(); it != queue.end();) {
            if (servable(*it)) {
                ++it;
                continue;
            }
            unservable.push_back(*it);
            it = queue.erase(it);
        }
    }
    for (auto it = running_.begin(); it != running_.end();) {
        if (servable(*it)) {
            ++it;
            continue;
        }
        if (kv_)
            kv_->release(it->id);
        unservable.push_back(*it);
        it = running_.erase(it);
    }
    return unservable;
}

int
EagerBatcherReference::pickVictim(const std::vector<int> &protected_ids,
                              int grower_class) const
{
    // Lowest priority = highest SLO class id. Within that class the
    // tie-break depends on the eviction discipline: recompute evicts
    // the youngest (latest admitted, i.e. furthest back in running_ —
    // it has the least cache to rebuild so far); swap prefers the
    // sequence with the FEWEST remaining decode tokens, whose parked
    // KV comes back for the cheapest remaining work (final ties still
    // go to the youngest). A grower may only displace requests of its
    // own or a lower-priority class — when only higher-priority
    // sequences hold the pool, the grower yields instead (see
    // secureDecodeGrowth).
    const bool swap = config_.preemptionMode == PreemptionMode::Swap;
    int best = -1;
    int best_class = -1;
    TokenCount best_remaining = 0;
    for (int i = 0; i < static_cast<int>(running_.size()); ++i) {
        const Request &r = running_[i];
        if (r.sloClass < grower_class)
            continue;
        if (std::find(protected_ids.begin(), protected_ids.end(),
                      r.id) != protected_ids.end())
            continue;
        if (r.sloClass > best_class) {
            best_class = r.sloClass;
            best = i;
            best_remaining = r.decodeTokens - r.decodeDone;
            continue;
        }
        if (r.sloClass < best_class)
            continue;
        const TokenCount remaining = r.decodeTokens - r.decodeDone;
        if (!swap || remaining <= best_remaining) {
            best = i;
            best_remaining = remaining;
        }
    }
    return best;
}

void
EagerBatcherReference::preempt(int index)
{
    Request victim = running_[static_cast<std::size_t>(index)];
    running_.erase(running_.begin() + index);
    if (config_.preemptionMode == PreemptionMode::Swap) {
        // The reservation moves to host intact: prefill progress (and
        // the cache behind it) survives, and re-admission restores
        // exactly the bytes parked here.
        victim.swappedBytes = kv_->reservedOf(victim.id);
        victim.swapped = true;
        swapOutBytes_ += victim.swappedBytes;
        kv_->release(victim.id);
    } else {
        kv_->release(victim.id);
        victim.restoring = true;
        victim.prefillDone = 0;
    }
    ++victim.preemptions;
    preemptedLog_.push_back(
        PreemptionRecord{victim.sloClass, victim.id});
    ++totalPreemptions_;
    ++preemptionsByClass_[victim.sloClass];
    // Front of the class queue: a preempted request resumes before
    // fresh arrivals of its class. Victims are evicted youngest-first,
    // so successive push_fronts restore admission order among them.
    waiting_[victim.sloClass].push_front(victim);
}

void
EagerBatcherReference::secureDecodeGrowth()
{
    // Grow in scheduling priority order — class first, admission order
    // within a class — so when the pool runs dry the high-priority old
    // sequences keep decoding and the low-priority young ones yield.
    std::vector<int> growers;
    for (int c = 0; c < config_.numSloClasses; ++c)
        for (const Request &r : running_)
            if (r.sloClass == c && r.phase() == RequestPhase::Decode)
                growers.push_back(r.id);

    std::vector<int> secured;
    for (const int id : growers) {
        const auto self = std::find_if(
            running_.begin(), running_.end(),
            [id](const Request &r) { return r.id == id; });
        if (self == running_.end())
            continue; // already evicted by an earlier grower
        const TokenCount target = self->contextLength() + 1;
        const int grower_class = self->sloClass;

        std::vector<int> protected_ids = secured;
        protected_ids.push_back(id);
        while (!kv_->canGrow(id, target)) {
            const int victim = pickVictim(protected_ids, grower_class);
            if (victim < 0)
                break;
            preempt(victim);
        }
        if (kv_->canGrow(id, target)) {
            kv_->grow(id, target);
            secured.push_back(id);
        } else {
            // No same-or-lower-priority sequence is left to evict and
            // the growth still does not fit: the grower yields rather
            // than over-committing or displacing higher priorities.
            const auto again = std::find_if(
                running_.begin(), running_.end(),
                [id](const Request &r) { return r.id == id; });
            preempt(static_cast<int>(again - running_.begin()));
        }
    }
}

BatchEntry
EagerBatcherReference::entryFor(int slot, TokenCount budget) const
{
    const Request &r = running_[slot];
    BatchEntry e;
    e.requestId = r.id;
    e.slot = slot;
    if (r.prefillDone >= r.prefillTarget()) {
        e.decodeTokens = 1;
        e.context = r.contextLength();
        e.emitsToken = true;
        return e;
    }
    e.context = r.prefillTarget();
    e.prefillTokens =
        std::min({e.context - r.prefillDone, config_.prefillChunk, budget});
    e.restoring = r.restoring;
    // The chunk completing the prefill emits the first output token,
    // unless an earlier prefill already did.
    e.emitsToken = r.prefillDone + e.prefillTokens == e.context &&
                   r.firstTokenTime < 0.0;
    return e;
}

std::vector<BatchEntry>
EagerBatcherReference::nextBatch()
{
    std::vector<BatchEntry> entries;
    TokenCount budget = config_.tokenBudget;

    // KV pre-pass: reserve this step's decode growth, evicting victims
    // (recompute-style) when the pool is exhausted. Every decode-phase
    // sequence still running afterwards holds a reservation covering
    // its next token.
    if (kv_)
        secureDecodeGrowth();

    // Decode first: one token per running sequence past prefill, in
    // admission order, so generation latency never queues behind
    // prompt processing. Each entry takes at least one budget token,
    // so the plan holds at most min(running, budget) entries before
    // admissions: one allocation instead of a growth series.
    const int running = runningCount();
    entries.reserve(static_cast<std::size_t>(
        std::min<TokenCount>(running, config_.tokenBudget) + 1));
    for (int slot = 0; slot < running && budget >= 1; ++slot) {
        if (running_[slot].phase() != RequestPhase::Decode)
            continue;
        entries.push_back(entryFor(slot, budget));
        budget -= 1;
    }

    // Continue chunked prefills of already-running requests (after a
    // preemption the target also covers recomputing generated tokens).
    for (int slot = 0; slot < running && budget >= 1; ++slot) {
        const Request &r = running_[slot];
        if (r.prefillDone >= r.prefillTarget())
            continue;
        entries.push_back(entryFor(slot, budget));
        budget -= entries.back().prefillTokens;
    }

    // Admit waiting requests: class order, FIFO within a class. With
    // the KV model the pool must cover the request's current context
    // (prompt, plus generated tokens when it re-enters after a
    // preemption); without it, the legacy maxRunning slot count rules.
    // A head blocked on memory halts admission for EVERY later class
    // too — otherwise lower-priority requests would keep sniping the
    // bytes the higher-priority head is waiting for and starve it.
    // Paused admission (downstream back-pressure) skips this phase
    // entirely; running sequences above were still scheduled.
    bool memory_blocked = false;
    for (auto &queue : waiting_) {
        if (admissionPaused_ || memory_blocked)
            break;
        while (!queue.empty() && budget >= 1) {
            Request &head = queue.front();
            if (kv_) {
                if (!kv_->canGrow(head.id, head.contextLength())) {
                    memory_blocked = true;
                    break; // strict FIFO: everyone waits for memory
                }
                kv_->grow(head.id, head.contextLength());
            } else if (runningCount() >= config_.maxRunning) {
                break;
            }
            Request r = head;
            queue.pop_front();
            if (r.swapped) {
                // Host restore: the engine charges the PCIe time for
                // these bytes against this step.
                swapInBytes_ += r.swappedBytes;
                r.swappedBytes = 0;
                r.swapped = false;
            }
            running_.push_back(r);
            ++totalAdmissions_;
            // A context entering with its prefill already done (a
            // swapped-in decoder, or a sequence migrated from a
            // prefill pool) resumes decoding immediately.
            const BatchEntry e = entryFor(runningCount() - 1, budget);
            budget -= e.prefillTokens + e.decodeTokens;
            entries.push_back(e);
        }
    }
    return entries;
}

void
EagerBatcherReference::applyStep(const std::vector<BatchEntry> &entries,
                                 Seconds finish_time)
{
    // Only a request in the plan can finish (the previous commit
    // retired every other), so the lowest finishing slot bounds the
    // retire pass, and a step that finishes none makes one pass.
    int first_finished = runningCount();
    for (const BatchEntry &e : entries) {
        LAER_CHECK(e.slot >= 0 && e.slot < runningCount() &&
                       running_[e.slot].id == e.requestId,
                   "stale slot " << e.slot << " for request "
                                 << e.requestId);
        Request &r = running_[e.slot];
        if (e.prefillTokens > 0) {
            LAER_ASSERT(e.decodeTokens == 0,
                        "a step schedules prefill or decode, not both");
            r.prefillDone += e.prefillTokens;
            LAER_ASSERT(r.prefillDone <= r.prefillTarget(),
                        "prefill overran its target");
            // A KV recompute after preemption ends here; the tokens
            // it replayed were already delivered.
            if (r.prefillDone == r.prefillTarget())
                r.restoring = false;
            if (e.emitsToken) {
                r.firstTokenTime = finish_time;
                r.decodeDone = 1;
            }
        } else if (e.decodeTokens > 0) {
            LAER_ASSERT(r.phase() == RequestPhase::Decode,
                        "decode scheduled for a non-decoding request");
            r.decodeDone += e.decodeTokens;
        }
        if (r.phase() == RequestPhase::Finished) {
            r.finishTime = finish_time;
            first_finished = std::min(first_finished, e.slot);
        }
    }
    if (first_finished == runningCount())
        return;

    // Retire finished requests in one stable pass from the first of
    // them: the survivors keep their admission order, the finished
    // keep theirs in finished_.
    auto keep = running_.begin() + first_finished;
    for (auto it = keep; it != running_.end(); ++it) {
        if (it->phase() == RequestPhase::Finished) {
            if (kv_)
                kv_->release(it->id);
            finished_.push_back(std::move(*it));
        } else {
            if (keep != it)
                *keep = std::move(*it);
            ++keep;
        }
    }
    running_.erase(keep, running_.end());
}

std::vector<Request>
EagerBatcherReference::drainAll()
{
    std::vector<Request> out;
    out.reserve(running_.size() + waitingCount());
    const auto evict = [this, &out](Request r) {
        if (kv_)
            kv_->release(r.id);
        if (r.swapped) {
            // Host-parked KV belongs to the old pool's shard layout;
            // the re-homed sequence rebuilds its cache instead.
            r.swapped = false;
            r.swappedBytes = 0;
        }
        if (r.prefillDone > 0 || r.decodeDone > 0) {
            r.restoring = r.decodeDone > 0;
            r.prefillDone = 0;
        }
        out.push_back(r);
    };
    for (int c = 0; c < config_.numSloClasses; ++c) {
        for (const Request &r : running_)
            if (r.sloClass == c)
                evict(r);
        for (const Request &r : waiting_[c])
            evict(r);
        waiting_[c].clear();
    }
    running_.clear();
    return out;
}

std::vector<Request>
EagerBatcherReference::takeFinished()
{
    std::vector<Request> out;
    out.swap(finished_);
    return out;
}

std::vector<PreemptionRecord>
EagerBatcherReference::takePreempted()
{
    std::vector<PreemptionRecord> out;
    out.swap(preemptedLog_);
    return out;
}

bool
EagerBatcherReference::canAdmitContext(TokenCount context) const
{
    if (kv_)
        return kv_->bytesFor(context) + waitingKvDemand() <=
               kv_->freeBytes();
    return runningCount() + waitingCount() < config_.maxRunning;
}

Bytes
EagerBatcherReference::waitingKvDemand() const
{
    if (!kv_)
        return 0;
    Bytes demand = 0;
    for (const auto &queue : waiting_)
        for (const Request &r : queue)
            demand += kv_->bytesFor(r.contextLength());
    return demand;
}

TokenCount
EagerBatcherReference::maxLiveFullContext() const
{
    TokenCount max_context = 0;
    for (const Request &r : running_)
        max_context = std::max(max_context, r.fullContext());
    for (const auto &queue : waiting_)
        for (const Request &r : queue)
            max_context = std::max(max_context, r.fullContext());
    return max_context;
}

Bytes
EagerBatcherReference::kvBytesFor(TokenCount context) const
{
    return kv_ ? kv_->bytesFor(context) : 0;
}

Bytes
EagerBatcherReference::takeSwapOutBytes()
{
    const Bytes bytes = swapOutBytes_;
    swapOutBytes_ = 0;
    return bytes;
}

Bytes
EagerBatcherReference::takeSwapInBytes()
{
    const Bytes bytes = swapInBytes_;
    swapInBytes_ = 0;
    return bytes;
}

const Request *
EagerBatcherReference::find(int id) const
{
    for (const Request &r : running_)
        if (r.id == id)
            return &r;
    for (const auto &queue : waiting_)
        for (const Request &r : queue)
            if (r.id == id)
                return &r;
    return nullptr;
}

bool
EagerBatcherReference::hasWork() const
{
    return !running_.empty() || waitingCount() > 0;
}

int
EagerBatcherReference::waitingCount() const
{
    int n = 0;
    for (const auto &queue : waiting_)
        n += static_cast<int>(queue.size());
    return n;
}

} // namespace laer
