#include "serve/batcher.hh"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

#include "core/error.hh"

namespace laer
{

const char *
preemptionModeName(PreemptionMode mode)
{
    switch (mode) {
      case PreemptionMode::Recompute:
        return "recompute";
      case PreemptionMode::Swap:
        return "swap";
    }
    return "?";
}

TokenCount
BatchPlan::totalTokens() const
{
    return prefillTokens() + decodeTokens();
}

TokenCount
BatchPlan::prefillTokens() const
{
    TokenCount total = 0;
    for (const BatchEntry &e : entries)
        total += e.prefillTokens;
    return total;
}

TokenCount
BatchPlan::decodeTokens() const
{
    TokenCount total = decoders;
    for (const BatchEntry &e : entries)
        total += e.decodeTokens;
    return total;
}

ContinuousBatcher::ContinuousBatcher(const BatcherConfig &config)
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
ContinuousBatcher::kvBudgetBytes() const
{
    return kv_ ? kv_->budgetBytes() : 0;
}

Bytes
ContinuousBatcher::kvReservedBytes() const
{
    return kv_ ? kv_->reservedBytes() : 0;
}

double
ContinuousBatcher::kvUtilization() const
{
    return kv_ ? kv_->utilization() : 0.0;
}

void
ContinuousBatcher::validateAdmissible(const Request &request) const
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
ContinuousBatcher::canEverHold(const Request &request) const
{
    return !kv_ ||
           kv_->bytesFor(request.prefillTokens + request.decodeTokens) <=
               kv_->budgetBytes();
}

void
ContinuousBatcher::enqueue(const Request &request)
{
    validateAdmissible(request);
    waiting_[request.sloClass].push_back(request);
}

void
ContinuousBatcher::enqueueFront(const Request &request)
{
    validateAdmissible(request);
    waiting_[request.sloClass].push_front(request);
}

std::vector<Request>
ContinuousBatcher::resizeKvBudget(Bytes budget)
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
        const int victim = pickVictim(-1, 0);
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
ContinuousBatcher::sweep(
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
    for (int s = head_; s >= 0;) {
        Running &slot = slab_[s];
        const int next = slot.next;
        slot.request.decodeDone = decodeDoneOf(slot);
        if (!servable(slot.request)) {
            if (kv_)
                kv_->release(slot.request.id);
            unservable.push_back(unlink(s));
        }
        s = next;
    }
    return unservable;
}

int
ContinuousBatcher::link(const Request &request)
{
    int s = static_cast<int>(slab_.size());
    if (freeSlots_.empty()) {
        slab_.emplace_back();
    } else {
        s = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Running &slot = slab_[s];
    slot.request = request;
    slot.seq = totalAdmissions_++;
    slot.held = 0;
    slot.cohort = false;
    slot.prev = tail_;
    slot.next = -1;
    (tail_ >= 0 ? slab_[tail_].next : head_) = s;
    tail_ = s;
    ++running_;
    return s;
}

Request
ContinuousBatcher::unlink(int s)
{
    Running &slot = slab_[s];
    slot.request.decodeDone = decodeDoneOf(slot);
    if (slot.cohort) {
        // Its calendar entry goes stale with the slot's sequence.
        --cohort_;
        cohortContext_ -= slot.request.contextLength();
        slot.cohort = false;
    } else {
        const auto it =
            std::find(prefilling_.begin(), prefilling_.end(), s);
        if (it != prefilling_.end())
            prefilling_.erase(it);
    }
    (slot.prev >= 0 ? slab_[slot.prev].next : head_) = slot.next;
    (slot.next >= 0 ? slab_[slot.next].prev : tail_) = slot.prev;
    slot.seq = -1;
    freeSlots_.push_back(s);
    --running_;
    return std::move(slot.request);
}

void
ContinuousBatcher::joinCohort(int s)
{
    Running &slot = slab_[s];
    slot.cohort = true;
    slot.base = tick_ - slot.request.decodeDone;
    ++cohort_;
    cohortContext_ += slot.request.contextLength();
    calendar_.push_back(
        Finish{slot.base + slot.request.decodeTokens, slot.seq, s});
    std::push_heap(calendar_.begin(), calendar_.end(),
                   std::greater<Finish>());
}

int
ContinuousBatcher::pickVictim(std::int64_t protect_pass,
                              int grower_class) const
{
    // Lowest priority = highest SLO class id. Within that class the
    // tie-break depends on the eviction discipline: recompute evicts
    // the youngest (latest admitted — it has the least cache to
    // rebuild so far); swap prefers the sequence with the FEWEST
    // remaining decode tokens, whose parked KV comes back for the
    // cheapest remaining work (final ties still go to the youngest).
    // A grower may only displace requests of its own or a
    // lower-priority class — when only higher-priority sequences hold
    // the pool, the grower yields instead (see secureDecodeGrowth).
    const bool swap = config_.preemptionMode == PreemptionMode::Swap;
    int best = -1;
    int best_class = -1;
    TokenCount best_remaining = 0;
    for (int s = head_; s >= 0; s = slab_[s].next) {
        const Running &slot = slab_[s];
        const Request &r = slot.request;
        if (r.sloClass < grower_class || slot.securedIn == protect_pass)
            continue;
        const TokenCount remaining = r.decodeTokens - decodeDoneOf(slot);
        if (r.sloClass > best_class) {
            best_class = r.sloClass;
            best = s;
            best_remaining = remaining;
            continue;
        }
        if (r.sloClass < best_class)
            continue;
        if (!swap || remaining <= best_remaining) {
            best = s;
            best_remaining = remaining;
        }
    }
    return best;
}

void
ContinuousBatcher::preempt(int s)
{
    Request victim = unlink(s);
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
    waiting_[victim.sloClass].push_front(std::move(victim));
}

void
ContinuousBatcher::secureDecodeGrowth()
{
    // Grow in scheduling priority order — class first, admission order
    // within a class — so when the pool runs dry the high-priority old
    // sequences keep decoding and the low-priority young ones yield.
    // Every decoder this pass has secured (and the grower itself) is
    // protected from eviction. The pool is asked only when the next
    // token crosses a KV block: below that, growth is a no-op.
    ++growPass_;
    for (int c = 0; c < config_.numSloClasses; ++c) {
        for (int s = head_; s >= 0;) {
            Running &slot = slab_[s];
            if (!slot.cohort || slot.request.sloClass != c) {
                s = slot.next;
                continue;
            }
            slot.securedIn = growPass_;
            const int id = slot.request.id;
            const TokenCount target =
                slot.request.prefillTokens + decodeDoneOf(slot) + 1;
            if (kv_->bytesFor(target) > slot.held) {
                while (!kv_->canGrow(id, target)) {
                    const int victim = pickVictim(growPass_, c);
                    if (victim < 0)
                        break;
                    preempt(victim);
                }
                if (!kv_->canGrow(id, target)) {
                    // No same-or-lower-priority sequence is left to
                    // evict and the growth still does not fit: the
                    // grower yields rather than over-committing or
                    // displacing higher priorities.
                    const int next = slot.next;
                    preempt(s);
                    s = next;
                    continue;
                }
                kv_->grow(id, target);
                slot.held = kv_->bytesFor(target);
            }
            s = slot.next;
        }
    }
}

BatchEntry
ContinuousBatcher::entryFor(int s, TokenCount budget) const
{
    const Request &r = slab_[s].request;
    BatchEntry e;
    e.requestId = r.id;
    e.slot = s;
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

BatchPlan
ContinuousBatcher::nextBatch()
{
    BatchPlan plan;
    TokenCount budget = config_.tokenBudget;

    // KV pre-pass: reserve this step's decode growth, evicting victims
    // (recompute-style) when the pool is exhausted. Every decoder
    // still running afterwards holds a reservation covering its next
    // token.
    if (kv_)
        secureDecodeGrowth();

    // Decode first: one token per cohort decoder, so generation
    // latency never queues behind prompt processing. The budget always
    // covers the whole cohort: every decoder and unfinished prefill
    // took at least one budget token in the step that admitted it, and
    // admission needs budget left after all of them, so decoders plus
    // prefills never outnumber the budget.
    LAER_ASSERT(cohort_ + static_cast<TokenCount>(prefilling_.size()) <=
                    budget,
                cohort_ << " decoders and " << prefilling_.size()
                        << " prefills outnumber the token budget");
    plan.decoders = cohort_;
    plan.decodeContext = cohortContext_;
    budget -= plan.decoders;

    // Continue chunked prefills of already-running requests (after a
    // preemption the target also covers recomputing generated tokens).
    // Admissions are bounded by the waiting requests, the budget and,
    // without the KV model, the free slots.
    TokenCount admissible =
        admissionPaused_ ? 0 : std::min<TokenCount>(waitingCount(), budget);
    if (!kv_)
        admissible = std::min<TokenCount>(admissible,
                                          config_.maxRunning - running_);
    plan.entries.reserve(prefilling_.size() +
                         static_cast<std::size_t>(std::max<TokenCount>(
                             admissible, 0)));
    for (const int s : prefilling_) {
        if (budget < 1)
            break;
        plan.entries.push_back(entryFor(s, budget));
        budget -= plan.entries.back().prefillTokens;
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
            } else if (running_ >= config_.maxRunning) {
                break;
            }
            if (head.swapped) {
                // Host restore: the engine charges the PCIe time for
                // these bytes against this step.
                swapInBytes_ += head.swappedBytes;
                head.swappedBytes = 0;
                head.swapped = false;
            }
            const int s = link(head);
            queue.pop_front();
            if (kv_)
                slab_[s].held = kv_->reservedOf(slab_[s].request.id);
            // A context entering with its prefill already done (a
            // swapped-in decoder, or a sequence migrated from a
            // prefill pool) decodes at once and joins the cohort at
            // the commit.
            const BatchEntry e = entryFor(s, budget);
            budget -= e.prefillTokens + e.decodeTokens;
            if (e.prefillTokens > 0)
                prefilling_.push_back(s);
            plan.entries.push_back(e);
        }
    }
    return plan;
}

void
ContinuousBatcher::applyStep(const BatchPlan &plan, Seconds finish_time)
{
    for (const BatchEntry &e : plan.entries)
        LAER_CHECK(e.slot >= 0 &&
                       e.slot < static_cast<int>(slab_.size()) &&
                       slab_[e.slot].seq >= 0 &&
                       slab_[e.slot].request.id == e.requestId,
                   "stale slot " << e.slot << " for request "
                                 << e.requestId);
    LAER_CHECK(plan.decoders == cohort_,
               "plan schedules " << plan.decoders << " decoders of "
                                 << cohort_);

    // The cohort advances one token by the tick; its finishes come off
    // the calendar in admission order.
    ++tick_;
    cohortContext_ += cohort_;
    retiring_.clear();
    while (!calendar_.empty() && calendar_.front().tick <= tick_) {
        std::pop_heap(calendar_.begin(), calendar_.end(),
                      std::greater<Finish>());
        const Finish f = calendar_.back();
        calendar_.pop_back();
        Running &slot = slab_[f.slot];
        if (slot.seq != f.seq)
            continue; // left the cohort early
        LAER_ASSERT(f.tick == tick_, "a decoder overran its output");
        slot.request.finishTime = finish_time;
        retiring_.push_back(f.slot);
    }

    // Explicit entries: prefill chunks and admitted decoders.
    for (const BatchEntry &e : plan.entries) {
        Request &r = slab_[e.slot].request;
        if (e.prefillTokens > 0) {
            LAER_ASSERT(e.decodeTokens == 0,
                        "a step schedules prefill or decode, not both");
            r.prefillDone += e.prefillTokens;
            LAER_ASSERT(r.prefillDone <= r.prefillTarget(),
                        "prefill overran its target");
            if (r.prefillDone == r.prefillTarget()) {
                // A KV recompute after preemption ends here; the
                // tokens it replayed were already delivered.
                r.restoring = false;
                prefilling_.erase(std::find(prefilling_.begin(),
                                            prefilling_.end(), e.slot));
            }
            if (e.emitsToken) {
                r.firstTokenTime = finish_time;
                r.decodeDone = 1;
            }
        } else {
            LAER_ASSERT(r.phase() == RequestPhase::Decode,
                        "decode scheduled for a non-decoding request");
            r.decodeDone += e.decodeTokens;
        }
        const RequestPhase phase = r.phase();
        if (phase == RequestPhase::Finished) {
            r.finishTime = finish_time;
            retiring_.push_back(e.slot);
        } else if (phase == RequestPhase::Decode) {
            joinCohort(e.slot);
        }
    }

    // Retire in admission order: the survivors keep theirs, the
    // finished keep theirs in finished_.
    std::sort(retiring_.begin(), retiring_.end(), [this](int a, int b) {
        return slab_[a].seq < slab_[b].seq;
    });
    for (const int s : retiring_) {
        if (kv_)
            kv_->release(slab_[s].request.id);
        finished_.push_back(unlink(s));
    }
}

std::vector<Request>
ContinuousBatcher::drainAll()
{
    std::vector<Request> out;
    out.reserve(static_cast<std::size_t>(running_ + waitingCount()));
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
        for (int s = head_; s >= 0; s = slab_[s].next) {
            Running &slot = slab_[s];
            if (slot.request.sloClass != c)
                continue;
            slot.request.decodeDone = decodeDoneOf(slot);
            evict(slot.request);
        }
        for (const Request &r : waiting_[c])
            evict(r);
        waiting_[c].clear();
    }
    slab_.clear();
    freeSlots_.clear();
    prefilling_.clear();
    calendar_.clear();
    head_ = tail_ = -1;
    running_ = cohort_ = 0;
    cohortContext_ = 0;
    return out;
}

std::vector<Request>
ContinuousBatcher::takeFinished()
{
    // One exact allocation per call; finished_ keeps its capacity.
    std::vector<Request> out(std::make_move_iterator(finished_.begin()),
                             std::make_move_iterator(finished_.end()));
    finished_.clear();
    return out;
}

std::vector<PreemptionRecord>
ContinuousBatcher::takePreempted()
{
    std::vector<PreemptionRecord> out;
    out.swap(preemptedLog_);
    return out;
}

bool
ContinuousBatcher::canAdmitContext(TokenCount context) const
{
    if (kv_)
        return kv_->bytesFor(context) + waitingKvDemand() <=
               kv_->freeBytes();
    return runningCount() + waitingCount() < config_.maxRunning;
}

Bytes
ContinuousBatcher::waitingKvDemand() const
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
ContinuousBatcher::maxLiveFullContext() const
{
    TokenCount max_context = 0;
    for (int s = head_; s >= 0; s = slab_[s].next)
        max_context =
            std::max(max_context, slab_[s].request.fullContext());
    for (const auto &queue : waiting_)
        for (const Request &r : queue)
            max_context = std::max(max_context, r.fullContext());
    return max_context;
}

Bytes
ContinuousBatcher::kvBytesFor(TokenCount context) const
{
    return kv_ ? kv_->bytesFor(context) : 0;
}

Bytes
ContinuousBatcher::takeSwapOutBytes()
{
    const Bytes bytes = swapOutBytes_;
    swapOutBytes_ = 0;
    return bytes;
}

Bytes
ContinuousBatcher::takeSwapInBytes()
{
    const Bytes bytes = swapInBytes_;
    swapInBytes_ = 0;
    return bytes;
}

std::optional<Request>
ContinuousBatcher::find(int id) const
{
    for (int s = head_; s >= 0; s = slab_[s].next) {
        if (slab_[s].request.id != id)
            continue;
        Request r = slab_[s].request;
        r.decodeDone = decodeDoneOf(slab_[s]);
        return r;
    }
    for (const auto &queue : waiting_)
        for (const Request &r : queue)
            if (r.id == id)
                return r;
    return std::nullopt;
}

bool
ContinuousBatcher::hasWork() const
{
    return running_ > 0 || waitingCount() > 0;
}

int
ContinuousBatcher::waitingCount() const
{
    int n = 0;
    for (const auto &queue : waiting_)
        n += static_cast<int>(queue.size());
    return n;
}

} // namespace laer
