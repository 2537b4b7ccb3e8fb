/**
 * @file
 * The cohort batcher against the eager reference (tests/oracle/).
 *
 * Fuzzed operation sequences drive ContinuousBatcher and
 * EagerBatcherReference side by side: enqueue and enqueueFront
 * (fresh prompts and contexts admitted past their prefill), plan and
 * commit at random finish times, paused admission, drainAll, sweep and
 * resizeKvBudget, with the KV model on and off, both preemption modes
 * and token budgets small enough that the decoders fill them. After
 * every operation the two must agree on everything a caller can
 * observe.
 */

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "model/config.hh"
#include "oracle/eager_batcher.hh"
#include "serve/batcher.hh"
#include "serve/engine.hh"

namespace laer
{
namespace
{

void
expectSameRequest(const Request &a, const Request &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.sloClass, b.sloClass) << "request " << a.id;
    EXPECT_EQ(a.arrival, b.arrival) << "request " << a.id;
    EXPECT_EQ(a.prefillTokens, b.prefillTokens) << "request " << a.id;
    EXPECT_EQ(a.decodeTokens, b.decodeTokens) << "request " << a.id;
    EXPECT_EQ(a.prefillDone, b.prefillDone) << "request " << a.id;
    EXPECT_EQ(a.decodeDone, b.decodeDone) << "request " << a.id;
    EXPECT_EQ(a.firstTokenTime, b.firstTokenTime) << "request " << a.id;
    EXPECT_EQ(a.finishTime, b.finishTime) << "request " << a.id;
    EXPECT_EQ(a.restoring, b.restoring) << "request " << a.id;
    EXPECT_EQ(a.swapped, b.swapped) << "request " << a.id;
    EXPECT_EQ(a.decodeTarget, b.decodeTarget) << "request " << a.id;
    EXPECT_EQ(a.swappedBytes, b.swappedBytes) << "request " << a.id;
    EXPECT_EQ(a.preemptions, b.preemptions) << "request " << a.id;
    EXPECT_EQ(a.retries, b.retries) << "request " << a.id;
}

void
expectSameRequests(const std::vector<Request> &cohort,
                   const std::vector<Request> &eager, const char *what)
{
    ASSERT_EQ(cohort.size(), eager.size()) << what;
    for (std::size_t i = 0; i < cohort.size(); ++i)
        expectSameRequest(cohort[i], eager[i]);
}

void
expectSameEntry(const BatchEntry &a, const BatchEntry &b)
{
    EXPECT_EQ(a.requestId, b.requestId);
    EXPECT_EQ(a.prefillTokens, b.prefillTokens) << "request " << a.requestId;
    EXPECT_EQ(a.decodeTokens, b.decodeTokens) << "request " << a.requestId;
    EXPECT_EQ(a.context, b.context) << "request " << a.requestId;
    EXPECT_EQ(a.emitsToken, b.emitsToken) << "request " << a.requestId;
    EXPECT_EQ(a.restoring, b.restoring) << "request " << a.requestId;
}

/** The eager plan's work, summed entry by entry as the engine did
 * before the cohort. */
StepWork
eagerStepWork(const ModelConfig &model,
              const std::vector<BatchEntry> &entries)
{
    StepWork work;
    for (const BatchEntry &e : entries) {
        const TokenCount tokens = e.prefillTokens + e.decodeTokens;
        work.tokens += tokens;
        work.prefill += e.prefillTokens;
        work.decode += e.decodeTokens;
        work.attnFlops += static_cast<double>(tokens) *
                          model.attnFlopsPerToken(static_cast<int>(e.context));
        work.sampled += e.emitsToken ? 1 : 0;
    }
    return work;
}

/** What the fuzzed scenarios exercised, summed over all of them. */
struct Coverage
{
    int fullBudgetSteps = 0; //!< decoders alone fill the token budget
    int recomputeEvictions = 0;
    int swapEvictions = 0;
    int admittedDecoders = 0; //!< contexts admitted past prefill
    int multiFinishSteps = 0; //!< steps retiring two or more
    int resizes = 0;
    int drains = 0;
    int sweeps = 0;
};

/** One fuzzed scenario's knobs. */
struct FuzzCase
{
    BatcherConfig config;
    int steps = 0;
};

FuzzCase
drawCase(Rng &rng)
{
    FuzzCase c;
    BatcherConfig &cfg = c.config;
    // A third of the cases run budgets the decoders fill.
    cfg.tokenBudget = rng.uniformInt(0, 2) == 0 ? rng.uniformInt(1, 6)
                                                : rng.uniformInt(8, 200);
    cfg.prefillChunk = rng.uniformInt(1, 48);
    cfg.numSloClasses = rng.uniformInt(1, 3);
    cfg.maxRunning = rng.uniformInt(1, 24);
    cfg.preemptionMode = rng.uniformInt(0, 1) == 0
                             ? PreemptionMode::Recompute
                             : PreemptionMode::Swap;
    if (rng.uniformInt(0, 2) != 0) {
        cfg.kvBytesPerToken = rng.uniformInt(1, 3);
        cfg.kvBlockTokens = rng.uniformInt(1, 8);
        // From a pool that fits one largest request to a roomy one.
        const TokenCount tokens = rng.uniformInt(80, 400);
        cfg.kvBudgetBytes = tokens * cfg.kvBytesPerToken +
                            cfg.kvBlockTokens * cfg.kvBytesPerToken;
    }
    c.steps = rng.uniformInt(40, 160);
    return c;
}

/** A fresh prompt, or a context admitted past its prefill as a
 * prefill pool hands it over. */
Request
drawRequest(Rng &rng, int id, const BatcherConfig &cfg, Seconds now)
{
    Request r;
    r.id = id;
    r.sloClass = rng.uniformInt(0, cfg.numSloClasses - 1);
    r.arrival = now;
    r.prefillTokens = rng.uniformInt(1, 40);
    r.decodeTokens = rng.uniformInt(1, 30);
    if (r.decodeTokens >= 2 && rng.uniformInt(0, 4) == 0) {
        r.prefillDone = r.prefillTokens;
        r.decodeDone = 1;
        r.firstTokenTime = now;
    }
    return r;
}

/** Drive one scenario through both batchers, comparing as it goes. */
void
runCase(std::uint64_t seed, Coverage &cov)
{
    Rng rng(seed);
    const FuzzCase fc = drawCase(rng);
    const BatcherConfig &cfg = fc.config;
    const ModelConfig model = mixtral8x7bE8K2();
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " budget " << cfg.tokenBudget
                 << " chunk " << cfg.prefillChunk << " classes "
                 << cfg.numSloClasses << " kv " << cfg.kvBudgetBytes
                 << " block " << cfg.kvBlockTokens << " mode "
                 << preemptionModeName(cfg.preemptionMode));

    ContinuousBatcher cohort(cfg);
    EagerBatcherReference eager(cfg);
    int next_id = 0;
    std::vector<int> live; // ids enqueued and not yet finished or removed
    Seconds now = 0.0;
    const auto retire = [&live](const std::vector<Request> &gone) {
        for (const Request &r : gone)
            live.erase(std::find(live.begin(), live.end(), r.id));
    };

    const auto admit = [&](const Request &r, bool front) {
        if (!cohort.canEverHold(r))
            return;
        live.push_back(r.id);
        if (front) {
            cohort.enqueueFront(r);
            eager.enqueueFront(r);
        } else {
            cohort.enqueue(r);
            eager.enqueue(r);
        }
    };
    const auto expectSameState = [&]() {
        EXPECT_EQ(cohort.runningCount(), eager.runningCount());
        EXPECT_EQ(cohort.waitingCount(), eager.waitingCount());
        EXPECT_EQ(cohort.hasWork(), eager.hasWork());
        EXPECT_EQ(cohort.kvReservedBytes(), eager.kvReservedBytes());
        EXPECT_EQ(cohort.kvBudgetBytes(), eager.kvBudgetBytes());
        EXPECT_EQ(cohort.waitingKvDemand(), eager.waitingKvDemand());
        EXPECT_EQ(cohort.maxLiveFullContext(), eager.maxLiveFullContext());
        EXPECT_EQ(cohort.totalAdmissions(), eager.totalAdmissions());
        EXPECT_EQ(cohort.totalPreemptions(), eager.totalPreemptions());
        EXPECT_EQ(cohort.canAdmitContext(32), eager.canAdmitContext(32));
        // Every live request reads the same, progress included.
        for (const int id : live) {
            const std::optional<Request> a = cohort.find(id);
            const Request *b = eager.find(id);
            ASSERT_TRUE(a.has_value() && b != nullptr) << "request " << id;
            expectSameRequest(*a, *b);
        }
        EXPECT_FALSE(cohort.find(next_id).has_value());
    };

    for (int step = 0; step < fc.steps; ++step) {
        // Arrivals, a few re-queued at the front.
        for (int k = rng.uniformInt(0, 3); k > 0; --k)
            admit(drawRequest(rng, next_id++, cfg, now),
                  rng.uniformInt(0, 9) == 0);

        const int op = rng.uniformInt(0, 39);
        if (op == 0) {
            const bool paused = rng.uniformInt(0, 1) == 1;
            cohort.setAdmissionPaused(paused);
            eager.setAdmissionPaused(paused);
        } else if (op == 1) {
            // Drain and re-home everything on the same batcher.
            const std::vector<Request> a = cohort.drainAll();
            const std::vector<Request> b = eager.drainAll();
            expectSameRequests(a, b, "drainAll");
            retire(b);
            ++cov.drains;
            for (const Request &r : b)
                admit(r, false);
        } else if (op == 2) {
            const int mod = rng.uniformInt(2, 6);
            const auto servable = [mod](const Request &r) {
                return (r.id + r.prefillTokens) % mod != 0;
            };
            const std::vector<Request> b = eager.sweep(servable);
            expectSameRequests(cohort.sweep(servable), b, "sweep");
            retire(b);
            ++cov.sweeps;
        } else if (op == 3 && cfg.kvBudgetBytes > 0) {
            const Bytes budget =
                cohort.kvBytesFor(rng.uniformInt(40, 500));
            const std::vector<Request> b = eager.resizeKvBudget(budget);
            expectSameRequests(cohort.resizeKvBudget(budget), b,
                               "resizeKvBudget");
            retire(b);
            ++cov.resizes;
        }
        expectSameState();

        // Plan.
        const BatchPlan plan = cohort.nextBatch();
        const std::vector<BatchEntry> entries = eager.nextBatch();
        const std::vector<PreemptionRecord> pa = cohort.takePreempted();
        const std::vector<PreemptionRecord> pb = eager.takePreempted();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
            EXPECT_EQ(pa[i].requestId, pb[i].requestId);
            EXPECT_EQ(pa[i].sloClass, pb[i].sloClass);
        }
        (cfg.preemptionMode == PreemptionMode::Swap
             ? cov.swapEvictions
             : cov.recomputeEvictions) += static_cast<int>(pa.size());
        EXPECT_EQ(cohort.takeSwapOutBytes(), eager.takeSwapOutBytes());
        EXPECT_EQ(cohort.takeSwapInBytes(), eager.takeSwapInBytes());
        EXPECT_EQ(cohort.kvReservedBytes(), eager.kvReservedBytes());

        // The eager plan opens with the cohort's decoders, eldest
        // first; the rest is the cohort plan's explicit entries.
        const auto d = static_cast<std::size_t>(plan.decoders);
        ASSERT_LE(d, entries.size());
        std::vector<int> scheduled;
        cohort.forEachScheduledDecoder(
            plan, [&](int id) { scheduled.push_back(id); });
        ASSERT_EQ(scheduled.size(), d);
        TokenCount context = 0;
        for (std::size_t i = 0; i < d; ++i) {
            EXPECT_EQ(entries[i].requestId, scheduled[i]);
            EXPECT_EQ(entries[i].decodeTokens, 1);
            EXPECT_EQ(entries[i].prefillTokens, 0);
            context += entries[i].context;
        }
        EXPECT_EQ(plan.decodeContext, context);
        ASSERT_EQ(plan.entries.size(), entries.size() - d);
        for (std::size_t i = 0; i < plan.entries.size(); ++i) {
            expectSameEntry(plan.entries[i], entries[d + i]);
            cov.admittedDecoders += plan.entries[i].decodeTokens;
        }
        cov.fullBudgetSteps += plan.decoders == cfg.tokenBudget ? 1 : 0;
        EXPECT_EQ(plan.empty(), entries.empty());

        const StepWork a = stepWork(model, plan);
        const StepWork b = eagerStepWork(model, entries);
        EXPECT_EQ(a.tokens, b.tokens);
        EXPECT_EQ(a.prefill, b.prefill);
        EXPECT_EQ(a.decode, b.decode);
        EXPECT_EQ(a.sampled, b.sampled);
        EXPECT_EQ(a.attnFlops, b.attnFlops); // bit for bit
        EXPECT_EQ(plan.totalTokens(), b.tokens);
        EXPECT_EQ(plan.prefillTokens(), b.prefill);
        EXPECT_EQ(plan.decodeTokens(), b.decode);

        // Commit at a random finish time (an empty plan is never
        // committed, as in the simulator).
        if (!plan.empty()) {
            now += 0.001 * rng.uniformInt(1, 50);
            cohort.applyStep(plan, now);
            eager.applyStep(entries, now);
        }
        const std::vector<Request> finished = cohort.takeFinished();
        expectSameRequests(finished, eager.takeFinished(), "takeFinished");
        retire(finished);
        cov.multiFinishSteps += finished.size() >= 2 ? 1 : 0;
        expectSameState();
        if (::testing::Test::HasFatalFailure() ||
            ::testing::Test::HasNonfatalFailure())
            return;
    }
}

TEST(Batcher, CohortMatchesEagerReference)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        runCase(seed, cov);
        if (::testing::Test::HasFailure())
            return;
    }
    // The scenarios reach every path the comparison is meant to pin.
    EXPECT_GT(cov.fullBudgetSteps, 100);
    EXPECT_GT(cov.recomputeEvictions, 100);
    EXPECT_GT(cov.swapEvictions, 100);
    EXPECT_GT(cov.admittedDecoders, 100);
    EXPECT_GT(cov.multiFinishSteps, 100);
    EXPECT_GT(cov.resizes, 20);
    EXPECT_GT(cov.drains, 20);
    EXPECT_GT(cov.sweeps, 20);
}

} // namespace
} // namespace laer
