/**
 * @file
 * Tests for the worker pool (core/thread_pool.hh): completeness,
 * deterministic reduction, exception propagation, nesting, and the
 * tuner's thread-count invariance built on top of it.
 */

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "planner/layout_tuner.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(257, [&](int i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialWhenSingleThreaded)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1);
    std::vector<int> order;
    pool.parallelFor(8, [&](int i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoOps)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(0, [&](int) { ++calls; });
    pool.parallelFor(-3, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ReductionIntoSlotsIsThreadCountInvariant)
{
    // The contract the tuner relies on: write per-index slots in
    // parallel, reduce serially — same winner for any thread count.
    const auto run = [](int threads) {
        ThreadPool pool(threads);
        std::vector<double> score(64);
        pool.parallelFor(64, [&](int i) {
            Rng rng(static_cast<std::uint64_t>(i) + 1);
            score[static_cast<std::size_t>(i)] = rng.uniform();
        });
        std::size_t winner = 0;
        for (std::size_t i = 1; i < score.size(); ++i)
            if (score[i] < score[winner])
                winner = i;
        return winner;
    };
    const std::size_t serial = run(1);
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

TEST(ThreadPool, PropagatesLowestIndexException)
{
    ThreadPool pool(4);
    for (int trial = 0; trial < 10; ++trial) {
        try {
            pool.parallelFor(32, [&](int i) {
                if (i == 7 || i == 21)
                    throw std::runtime_error(
                        "boom " + std::to_string(i));
            });
            FAIL() << "exception was swallowed";
        } catch (const std::runtime_error &err) {
            EXPECT_STREQ(err.what(), "boom 7");
        }
    }
}

TEST(ThreadPool, PoolSurvivesAnExceptionalBatch)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     4, [](int) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](int i) { sum += i; });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(16 * 16);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(16, [&](int outer) {
        pool.parallelFor(16, [&](int inner) {
            ++hits[static_cast<std::size_t>(outer * 16 + inner)];
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3);
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);
}

RoutingMatrix
skewedRouting(int n, int e, std::uint64_t seed)
{
    Rng rng(seed);
    RoutingMatrix r(n, e);
    const auto pop = rng.dirichlet(e, 0.3);
    for (DeviceId d = 0; d < n; ++d) {
        const auto counts = rng.multinomial(4096, pop);
        for (ExpertId j = 0; j < e; ++j)
            r.at(d, j) = counts[j];
    }
    return r;
}

TEST(ThreadPool, TunerWinnerIndependentOfThreadCount)
{
    const Cluster c(2, 4, 100e9, 10e9, 1e12);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const RoutingMatrix r = skewedRouting(8, 8, seed);
        TunerConfig serial;
        serial.capacity = 2;
        serial.setSize = 8;
        serial.cost.commBytesPerToken = 8192;
        serial.cost.compFlopsPerToken = 3.5e8;
        const LayoutDecision base = tuneExpertLayout(c, r, serial);

        for (const int threads : {2, 4, 8}) {
            ThreadPool pool(threads);
            TunerConfig parallel = serial;
            parallel.pool = &pool;
            const LayoutDecision dec =
                tuneExpertLayout(c, r, parallel);
            EXPECT_TRUE(dec.layout == base.layout)
                << "threads " << threads << " seed " << seed;
            EXPECT_DOUBLE_EQ(dec.cost.total(), base.cost.total());
        }
    }
}

} // namespace
} // namespace laer
