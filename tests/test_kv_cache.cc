/**
 * @file
 * Tests for the KV-cache memory model: per-token byte arithmetic, the
 * HBM budget split, block-granular pool accounting, KV-driven
 * admission at the exact budget boundary, recompute-style preemption
 * (victim choice, re-queue ordering, life-cycle restoration), and
 * conservation of the pool across full batcher runs.
 */

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "model/config.hh"
#include "serve/batcher.hh"
#include "serve/kv_cache.hh"

namespace laer
{
namespace
{

// ---- byte arithmetic -------------------------------------------------------

TEST(KvBytes, MatchesModelArithmetic)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    EXPECT_EQ(kvBytesPerToken(cfg),
              2LL * cfg.layers * cfg.numKvHeads * cfg.headDim *
                  kBytesPerParam);
}

TEST(KvBytes, MemoryBudgetComposesWithModelState)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    const int n = 8;
    const Bytes hbm = 40LL << 30;
    const ServingMemoryBudget mem =
        servingMemoryBudget(cfg, n, 2, hbm, 1024);

    // The three components account for the whole device exactly.
    EXPECT_EQ(mem.totalPerDevice(), hbm);
    EXPECT_EQ(mem.modelState.total(),
              inferenceModelState(cfg, n, 2).total());
    EXPECT_EQ(mem.modelState.optimizerState, 0); // inference: no Adam
    EXPECT_EQ(mem.modelState.gradState, 0);
    EXPECT_GT(mem.activationReserve, 0);
    EXPECT_GT(mem.kvPoolPerDevice, 0);
    EXPECT_EQ(mem.kvPoolTotal, n * mem.kvPoolPerDevice);

    // An HBM budget the model state alone exceeds is a config error.
    EXPECT_THROW(servingMemoryBudget(cfg, n, 2, 1LL << 30, 1024),
                 FatalError);
}

// ---- pool ------------------------------------------------------------------

TEST(KvPool, BlockRoundsReservations)
{
    KvCachePool pool(/*budget=*/1000, /*bytes_per_token=*/2,
                     /*block_tokens=*/16);
    EXPECT_EQ(pool.bytesFor(0), 0);
    EXPECT_EQ(pool.bytesFor(1), 16 * 2);
    EXPECT_EQ(pool.bytesFor(16), 16 * 2);
    EXPECT_EQ(pool.bytesFor(17), 32 * 2);
}

TEST(KvPool, GrowIsMonotoneAndReleaseFrees)
{
    KvCachePool pool(1024, 1, 16);
    EXPECT_TRUE(pool.canGrow(7, 100));
    pool.grow(7, 100); // 7 blocks = 112 bytes
    EXPECT_EQ(pool.reservedOf(7), 112);
    EXPECT_EQ(pool.reservedBytes(), 112);

    pool.grow(7, 50); // shrinking context is a no-op
    EXPECT_EQ(pool.reservedOf(7), 112);

    pool.grow(7, 113); // one more block
    EXPECT_EQ(pool.reservedOf(7), 128);
    EXPECT_EQ(pool.freeBytes(), 1024 - 128);

    pool.release(7);
    EXPECT_FALSE(pool.tracks(7));
    EXPECT_EQ(pool.reservedBytes(), 0);
    pool.release(7); // double release is harmless
    EXPECT_EQ(pool.reservedBytes(), 0);
}

TEST(KvPool, NeverOverCommits)
{
    KvCachePool pool(100, 1, 10);
    pool.grow(0, 60);
    EXPECT_TRUE(pool.canGrow(1, 40));
    EXPECT_FALSE(pool.canGrow(1, 41)); // would round to 50
    EXPECT_THROW(pool.grow(1, 41), FatalError);
    // Growing an existing reservation checks only the delta.
    EXPECT_TRUE(pool.canGrow(0, 100));
    pool.grow(0, 100);
    EXPECT_EQ(pool.reservedBytes(), 100);
    EXPECT_FALSE(pool.canGrow(1, 1));
}

// ---- batcher admission at the boundary -------------------------------------

Request
makeRequest(int id, Seconds arrival, TokenCount prefill,
            TokenCount decode, int slo_class = 0)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.prefillTokens = prefill;
    r.decodeTokens = decode;
    r.sloClass = slo_class;
    return r;
}

/** Batcher with a byte-per-token, token-sized-block KV pool so byte
 * counts equal token counts and the arithmetic is readable. */
BatcherConfig
kvBatcherConfig(Bytes pool_tokens)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 1 << 20; // tokens are never the binding limit
    cfg.prefillChunk = 1 << 20;
    cfg.kvBudgetBytes = pool_tokens;
    cfg.kvBytesPerToken = 1;
    cfg.kvBlockTokens = 1;
    return cfg;
}

TEST(KvBatcher, AdmitsExactlyAtTheBudgetBoundary)
{
    // The pool holds exactly one request's full context (8 prompt +
    // 4 output = 12 tokens = 12 bytes): the request admits, its
    // reservation walks up to exactly the budget, and it finishes
    // without ever being preempted.
    ContinuousBatcher exact(kvBatcherConfig(12));
    exact.enqueue(makeRequest(0, 0.0, 8, 4));
    Seconds t = 0.0;
    Bytes peak = 0;
    while (exact.hasWork()) {
        const BatchPlan plan = exact.nextBatch();
        ASSERT_FALSE(plan.empty());
        EXPECT_LE(exact.kvReservedBytes(), exact.kvBudgetBytes());
        peak = std::max(peak, exact.kvReservedBytes());
        t += 0.1;
        exact.applyStep(plan, t);
    }
    EXPECT_EQ(peak, 12);               // the last token fills the pool
    EXPECT_EQ(exact.kvReservedBytes(), 0); // released on finish
    EXPECT_EQ(exact.totalPreemptions(), 0);
    EXPECT_EQ(exact.takeFinished().size(), 1u);
}

TEST(KvBatcher, RejectsRequestsThatCanNeverFit)
{
    ContinuousBatcher batcher(kvBatcherConfig(12));
    EXPECT_THROW(batcher.enqueue(makeRequest(0, 0.0, 9, 4)),
                 FatalError); // 13 > 12: no schedule could run it
    batcher.enqueue(makeRequest(1, 0.0, 8, 4)); // 12 == 12 fits
}

TEST(KvBatcher, HeadOfLineWaitsWhenPoolIsFull)
{
    // Pool (12) fits request 0's prompt (8) but not request 1's on
    // top (8 + 8 > 12): strict FIFO keeps request 1 waiting even
    // though the step's token budget has room.
    ContinuousBatcher batcher(kvBatcherConfig(12));
    batcher.enqueue(makeRequest(0, 0.0, 8, 4));
    batcher.enqueue(makeRequest(1, 0.0, 8, 4));
    const BatchPlan plan = batcher.nextBatch();
    EXPECT_EQ(plan.entries.size(), 1u);
    EXPECT_EQ(plan.entries[0].requestId, 0);
    EXPECT_EQ(batcher.runningCount(), 1);
    EXPECT_EQ(batcher.waitingCount(), 1);
    EXPECT_EQ(batcher.kvReservedBytes(), 8);
}

/** Check each planned entry, before its commit, against the request
 * it names: the plan must say what the queue says. */
void
expectEntriesMatchQueue(const ContinuousBatcher &batcher,
                        const BatchPlan &plan)
{
    for (const BatchEntry &e : plan.entries) {
        const std::optional<Request> r = batcher.find(e.requestId);
        ASSERT_TRUE(r.has_value()) << "request " << e.requestId;
        EXPECT_GE(e.slot, 0);
        if (e.prefillTokens == 0) {
            EXPECT_EQ(e.decodeTokens, 1);
            EXPECT_EQ(e.context, r->contextLength());
            EXPECT_TRUE(e.emitsToken);
            EXPECT_FALSE(e.restoring);
            continue;
        }
        EXPECT_EQ(e.context, r->prefillTarget());
        EXPECT_EQ(e.restoring, r->restoring);
        EXPECT_EQ(e.emitsToken,
                  r->prefillDone + e.prefillTokens == r->prefillTarget() &&
                      r->firstTokenTime < 0.0);
    }
}

TEST(KvBatcher, ContextAdmittedPastPrefillDecodesAtOnce)
{
    // A context whose prefill is already done (one migrated from a
    // prefill pool) enters as a decode entry that emits a token.
    ContinuousBatcher batcher(kvBatcherConfig(32));
    Request r = makeRequest(0, 0.0, 8, 4);
    r.prefillDone = 8;
    r.decodeDone = 1;
    r.firstTokenTime = 0.5;
    batcher.enqueue(r);
    const BatchPlan plan = batcher.nextBatch();
    ASSERT_EQ(plan.entries.size(), 1u);
    const BatchEntry &e = plan.entries[0];
    EXPECT_EQ(e.slot, 0);
    EXPECT_EQ(e.prefillTokens, 0);
    EXPECT_EQ(e.decodeTokens, 1);
    EXPECT_EQ(e.context, 9);
    EXPECT_TRUE(e.emitsToken);
    EXPECT_FALSE(e.restoring);
    expectEntriesMatchQueue(batcher, plan);
    batcher.applyStep(plan, 1.0);
    EXPECT_EQ(batcher.find(0)->decodeDone, 2);
    EXPECT_DOUBLE_EQ(batcher.find(0)->firstTokenTime, 0.5);
}

// ---- preemption ------------------------------------------------------------

TEST(KvBatcher, DecodeGrowthPreemptsTheYoungest)
{
    // Two identical same-class requests; the pool fits both prompts
    // but not both full contexts, so decode growth must evict the
    // younger (request 1) while the elder keeps decoding.
    ContinuousBatcher batcher(kvBatcherConfig(14));
    batcher.enqueue(makeRequest(0, 0.0, 6, 4)); // max context 10
    batcher.enqueue(makeRequest(1, 0.1, 6, 4));

    Seconds t = 0.0;
    int steps = 0;
    while (batcher.hasWork()) {
        ASSERT_LT(++steps, 100) << "batcher failed to drain";
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        // Conservation: reserved KV bytes never exceed the budget.
        EXPECT_LE(batcher.kvReservedBytes(), batcher.kvBudgetBytes());
        expectEntriesMatchQueue(batcher, plan);
        t += 0.1;
        batcher.applyStep(plan, t);
    }

    std::vector<Request> done = batcher.takeFinished();
    ASSERT_EQ(done.size(), 2u);
    std::sort(done.begin(), done.end(),
              [](const Request &a, const Request &b) {
                  return a.id < b.id;
              });
    EXPECT_EQ(done[0].preemptions, 0); // the elder is never evicted
    EXPECT_GE(done[1].preemptions, 1); // the youngest pays
    EXPECT_GE(batcher.totalPreemptions(), 1);
    for (const Request &r : done) {
        EXPECT_EQ(r.decodeDone, r.decodeTokens); // full output delivered
        EXPECT_FALSE(r.restoring);
        EXPECT_GE(r.finishTime, r.firstTokenTime);
    }
    EXPECT_EQ(batcher.kvReservedBytes(), 0);
}

TEST(KvBatcher, LowerPriorityClassEvictedBeforeYoungerHighPriority)
{
    // The class-1 (low-priority) request is admitted BEFORE the
    // youngest class-0 request, yet it must be the first victim:
    // class outranks age in victim selection.
    BatcherConfig cfg = kvBatcherConfig(17);
    cfg.numSloClasses = 2;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 5, 6, /*slo=*/0)); // max 11
    batcher.enqueue(makeRequest(1, 0.1, 5, 6, /*slo=*/1)); // max 11

    // Step 1 admits requests 0 and 1; request 2 (class 0) arrives
    // after, so it is admitted later and is the youngest running.
    Seconds t = 0.1;
    batcher.applyStep(batcher.nextBatch(), t);
    EXPECT_EQ(batcher.runningCount(), 2);
    batcher.enqueue(makeRequest(2, 0.2, 5, 6, /*slo=*/0)); // max 11

    int steps = 0;
    std::vector<int> preempted_classes;
    while (batcher.hasWork()) {
        ASSERT_LT(++steps, 200) << "batcher failed to drain";
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        EXPECT_LE(batcher.kvReservedBytes(), batcher.kvBudgetBytes());
        for (const PreemptionRecord &p : batcher.takePreempted())
            preempted_classes.push_back(p.sloClass);
        t += 0.1;
        batcher.applyStep(plan, t);
    }

    ASSERT_FALSE(preempted_classes.empty());
    // The first request to yield is the class-1 one, despite the
    // younger class-0 request also holding pool space.
    EXPECT_EQ(preempted_classes.front(), 1);
    // The drained records are the whole story: they re-sum to the
    // batcher's lifetime counters, in total and per class.
    EXPECT_EQ(static_cast<std::int64_t>(preempted_classes.size()),
              batcher.totalPreemptions());
    for (int c = 0; c < cfg.numSloClasses; ++c)
        EXPECT_EQ(std::count(preempted_classes.begin(),
                             preempted_classes.end(), c),
                  batcher.preemptionsByClass()[c])
            << "class " << c;

    std::vector<Request> done = batcher.takeFinished();
    ASSERT_EQ(done.size(), 3u);
    for (const Request &r : done) {
        EXPECT_EQ(r.decodeDone, r.decodeTokens);
        if (r.id == 0) {
            EXPECT_EQ(r.preemptions, 0); // eldest class-0 never yields
        }
    }
}

TEST(KvBatcher, SwapModePrefersVictimWithFewestRemainingDecodeTokens)
{
    // Three same-class requests, prompts of 4 (pool 12 = all three
    // prompts exactly). After the prefill step everyone has emitted
    // its first token; the next step's decode growth makes request 0
    // (the eldest, so the first grower) evict someone. Request 1 has
    // the fewest remaining decode tokens (3 - 1 = 2) and request 2,
    // though youngest, still owes 7 — under swap the cheap-restore
    // rule picks request 1.
    BatcherConfig cfg = kvBatcherConfig(12);
    cfg.preemptionMode = PreemptionMode::Swap;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 4, 8));
    batcher.enqueue(makeRequest(1, 0.1, 4, 3));
    batcher.enqueue(makeRequest(2, 0.2, 4, 8));

    batcher.applyStep(batcher.nextBatch(), 0.1); // prefills complete
    EXPECT_EQ(batcher.runningCount(), 3);

    const BatchPlan plan = batcher.nextBatch(); // growth evicts one
    (void)plan;
    ASSERT_EQ(batcher.takePreempted().size(), 1u);
    const std::optional<Request> victim = batcher.find(1);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->preemptions, 1);
    EXPECT_TRUE(victim->swapped);
    EXPECT_EQ(batcher.find(2)->preemptions, 0);
}

TEST(KvBatcher, RecomputeModeStillEvictsTheYoungest)
{
    // The identical scenario under the default recompute rule picks
    // the youngest (request 2) regardless of remaining work — the
    // PR 1-3 behaviour is unchanged.
    BatcherConfig cfg = kvBatcherConfig(12);
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 4, 8));
    batcher.enqueue(makeRequest(1, 0.1, 4, 3));
    batcher.enqueue(makeRequest(2, 0.2, 4, 8));

    batcher.applyStep(batcher.nextBatch(), 0.1);
    const BatchPlan plan = batcher.nextBatch();
    (void)plan;
    ASSERT_EQ(batcher.takePreempted().size(), 1u);
    const std::optional<Request> victim = batcher.find(2);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->preemptions, 1);
    EXPECT_TRUE(victim->restoring);
    EXPECT_EQ(batcher.find(1)->preemptions, 0);
}

TEST(KvBatcher, LowPriorityGrowerYieldsInsteadOfEvictingHigherClass)
{
    // A class-0 (high-priority) request holds most of the pool while
    // still prefilling its long prompt; a class-1 decode sequence
    // that cannot grow must yield itself — it may never evict the
    // higher-priority request.
    BatcherConfig cfg = kvBatcherConfig(20);
    cfg.numSloClasses = 2;
    cfg.prefillChunk = 4; // the long prompt prefills across steps
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 16, 4, /*slo=*/0)); // max 20
    batcher.enqueue(makeRequest(1, 0.0, 4, 8, /*slo=*/1));  // max 12

    Seconds t = 0.0;
    int steps = 0;
    std::vector<int> preempted_classes;
    while (batcher.hasWork()) {
        ASSERT_LT(++steps, 200) << "batcher failed to drain";
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        EXPECT_LE(batcher.kvReservedBytes(), batcher.kvBudgetBytes());
        for (const PreemptionRecord &p : batcher.takePreempted())
            preempted_classes.push_back(p.sloClass);
        t += 0.1;
        batcher.applyStep(plan, t);
    }

    ASSERT_FALSE(preempted_classes.empty());
    for (const int c : preempted_classes)
        EXPECT_EQ(c, 1) << "a class-0 request was evicted";

    std::vector<Request> done = batcher.takeFinished();
    ASSERT_EQ(done.size(), 2u);
    for (const Request &r : done) {
        EXPECT_EQ(r.decodeDone, r.decodeTokens);
        if (r.sloClass == 0) {
            EXPECT_EQ(r.preemptions, 0);
        } else {
            EXPECT_GE(r.preemptions, 1);
        }
    }
}

TEST(KvBatcher, MemoryBlockedHeadHaltsLowerClassAdmission)
{
    // One running class-0 request holds 12 of 20 pool bytes. The
    // waiting class-0 head needs 10 (blocked); the class-1 request
    // behind it would fit (4) but must NOT be admitted — it would
    // consume the bytes the class-0 head is waiting for.
    BatcherConfig cfg = kvBatcherConfig(20);
    cfg.numSloClasses = 2;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 12, 8, /*slo=*/0)); // max 20
    batcher.applyStep(batcher.nextBatch(), 0.1);
    EXPECT_EQ(batcher.runningCount(), 1);
    EXPECT_EQ(batcher.kvReservedBytes(), 12);

    batcher.enqueue(makeRequest(1, 0.1, 10, 2, /*slo=*/0)); // needs 10
    batcher.enqueue(makeRequest(2, 0.2, 4, 2, /*slo=*/1));  // fits (4)
    batcher.nextBatch();
    EXPECT_EQ(batcher.runningCount(), 1); // neither was admitted
    EXPECT_EQ(batcher.waitingCount(), 2);
    EXPECT_EQ(batcher.find(2)->phase(), RequestPhase::Queued);
}

TEST(KvBatcher, PreemptedRequestsResumeAheadOfFreshArrivals)
{
    // One request whose decode growth can consume the whole pool
    // (4 + 16 = 20 = budget) plus two smaller ones of the same class.
    // Under pressure the small ones bounce in and out of the running
    // set; a fresh arrival injected at the first eviction must admit
    // only AFTER every preempted request has resumed — preemption
    // re-queues at the FRONT of the class, fresh arrivals at the back.
    ContinuousBatcher batcher(kvBatcherConfig(20));
    batcher.enqueue(makeRequest(0, 0.0, 4, 16)); // grows to 20 alone
    batcher.enqueue(makeRequest(1, 0.1, 4, 12)); // grows to 16
    batcher.enqueue(makeRequest(2, 0.2, 4, 12)); // grows to 16

    Seconds t = 0.0;
    int steps = 0;
    bool preempted_yet = false;
    std::vector<int> admissions; // first prefill entry per id, in order
    while (batcher.hasWork()) {
        ASSERT_LT(++steps, 300) << "batcher failed to drain";
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        EXPECT_LE(batcher.kvReservedBytes(), batcher.kvBudgetBytes());
        expectEntriesMatchQueue(batcher, plan);
        if (!batcher.takePreempted().empty() && !preempted_yet) {
            preempted_yet = true;
            // Inject a fresh arrival the moment pressure appears: it
            // must queue BEHIND the preempted requests.
            batcher.enqueue(makeRequest(3, t, 4, 2));
        }
        if (preempted_yet) {
            for (const BatchEntry &e : plan.entries) {
                if (e.prefillTokens > 0 &&
                    std::find(admissions.begin(), admissions.end(),
                              e.requestId) == admissions.end())
                    admissions.push_back(e.requestId);
            }
        }
        t += 0.1;
        batcher.applyStep(plan, t);
    }

    ASSERT_TRUE(preempted_yet) << "scenario produced no preemption";

    std::vector<Request> done = batcher.takeFinished();
    ASSERT_EQ(done.size(), 4u);
    std::sort(done.begin(), done.end(),
              [](const Request &a, const Request &b) {
                  return a.id < b.id;
              });
    // Both small requests were evicted at least once; everyone still
    // delivered its full output.
    EXPECT_GE(done[1].preemptions + done[2].preemptions, 2);
    for (const Request &r : done)
        EXPECT_EQ(r.decodeDone, r.decodeTokens);

    // The fresh request is the LAST admission: every preempted
    // request resumed (front of the class queue) before it ran.
    const auto pos = [&](int id) {
        return std::find(admissions.begin(), admissions.end(), id) -
               admissions.begin();
    };
    ASSERT_NE(pos(3), static_cast<long>(admissions.size()));
    EXPECT_GT(pos(3), pos(1));
    EXPECT_GT(pos(3), pos(2));

    EXPECT_EQ(batcher.kvReservedBytes(), 0);
}

TEST(KvBatcher, RestoreReplaysGeneratedTokensWithoutReEmittingThem)
{
    // One big grower plus one small victim; after preemption the
    // victim's restore must cover prompt + generated tokens, and its
    // firstTokenTime / decode counters must survive unchanged.
    ContinuousBatcher batcher(kvBatcherConfig(16));
    batcher.enqueue(makeRequest(0, 0.0, 4, 12)); // grows to 16 alone
    batcher.enqueue(makeRequest(1, 0.0, 4, 8));

    Seconds t = 0.0;
    int steps = 0;
    Seconds first_token_of_1 = -1.0;
    TokenCount decode_done_at_preempt = -1;
    int restore_chunks = 0;
    while (batcher.hasWork()) {
        ASSERT_LT(++steps, 200);
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        expectEntriesMatchQueue(batcher, plan);
        for (const BatchEntry &e : plan.entries) {
            if (e.requestId != 1 || !batcher.find(1)->restoring)
                continue;
            // The restore chunk replays the context without emitting.
            EXPECT_TRUE(e.restoring);
            EXPECT_FALSE(e.emitsToken);
            EXPECT_EQ(e.context, batcher.find(1)->prefillTarget());
            ++restore_chunks;
        }
        if (!batcher.takePreempted().empty() &&
            decode_done_at_preempt < 0) {
            const std::optional<Request> r1 = batcher.find(1);
            ASSERT_TRUE(r1.has_value());
            EXPECT_TRUE(r1->restoring);
            EXPECT_EQ(r1->prefillDone, 0);
            decode_done_at_preempt = r1->decodeDone;
            first_token_of_1 = r1->firstTokenTime;
            EXPECT_GT(decode_done_at_preempt, 0);
            // Restore target covers prompt + generated tokens.
            EXPECT_EQ(r1->prefillTarget(),
                      r1->prefillTokens + r1->decodeDone);
        }
        t += 0.1;
        batcher.applyStep(plan, t);
    }

    ASSERT_GE(decode_done_at_preempt, 0) << "no preemption happened";
    EXPECT_GE(restore_chunks, 1);
    std::vector<Request> done = batcher.takeFinished();
    ASSERT_EQ(done.size(), 2u);
    for (const Request &r : done) {
        if (r.id != 1)
            continue;
        EXPECT_EQ(r.decodeDone, r.decodeTokens);
        // The first token is emitted exactly once: the restore did not
        // restamp it.
        EXPECT_DOUBLE_EQ(r.firstTokenTime, first_token_of_1);
        EXPECT_GE(r.preemptions, 1);
    }
}

TEST(KvBatcher, SwapVictimsResumeAsDecodeEntries)
{
    // PreemptedRequestsResumeAheadOfFreshArrivals' pool under swap:
    // every victim is evicted past its prefill, so its re-admission is
    // a decode entry that emits a token, and no entry replays a
    // prefill.
    BatcherConfig cfg = kvBatcherConfig(20);
    cfg.preemptionMode = PreemptionMode::Swap;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 4, 16));
    batcher.enqueue(makeRequest(1, 0.1, 4, 12));
    batcher.enqueue(makeRequest(2, 0.2, 4, 12));

    Seconds t = 0.0;
    int steps = 0;
    std::vector<int> parked; // swapped out, not yet re-admitted
    int resumed = 0;
    while (batcher.hasWork()) {
        ASSERT_LT(++steps, 300) << "batcher failed to drain";
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        EXPECT_LE(batcher.kvReservedBytes(), batcher.kvBudgetBytes());
        expectEntriesMatchQueue(batcher, plan);
        // Evictions happen while planning, so a victim may resume in
        // the very plan that evicted it: park first, then scan.
        for (const PreemptionRecord &p : batcher.takePreempted())
            parked.push_back(p.requestId);
        for (const BatchEntry &e : plan.entries) {
            EXPECT_FALSE(e.restoring);
            const auto it =
                std::find(parked.begin(), parked.end(), e.requestId);
            if (it == parked.end())
                continue;
            EXPECT_EQ(e.prefillTokens, 0);
            EXPECT_TRUE(e.emitsToken);
            parked.erase(it);
            ++resumed;
        }
        t += 0.1;
        batcher.applyStep(plan, t);
    }

    EXPECT_GE(resumed, 1) << "scenario produced no swap-in";
    EXPECT_TRUE(parked.empty());
    EXPECT_EQ(batcher.takeFinished().size(), 3u);
    EXPECT_EQ(batcher.kvReservedBytes(), 0);
}

TEST(ContinuousBatcher, ApplyStepRejectsAStaleSlot)
{
    // A plan addresses its requests by slot handle; an entry whose
    // slot does not hold its request is refused. Only the
    // first entry is tampered with, so nothing is committed before
    // the refusal.
    ContinuousBatcher batcher(kvBatcherConfig(32));
    batcher.enqueue(makeRequest(0, 0.0, 4, 4));
    batcher.enqueue(makeRequest(1, 0.0, 4, 4));
    const BatchPlan plan = batcher.nextBatch();
    ASSERT_EQ(plan.entries.size(), 2u);
    ASSERT_EQ(plan.entries[0].slot, 0);

    for (const int stale : {1, 2, -1}) {
        BatchPlan tampered = plan;
        tampered.entries[0].slot = stale;
        EXPECT_THROW(batcher.applyStep(tampered, 1.0), FatalError)
            << "slot " << stale;
    }

    // The untampered plan still commits.
    batcher.applyStep(plan, 1.0);
    EXPECT_EQ(batcher.find(0)->decodeDone, 1);
    EXPECT_EQ(batcher.find(1)->decodeDone, 1);
}

} // namespace
} // namespace laer
