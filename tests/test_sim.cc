/**
 * @file
 * Tests for the discrete-event engine: stream FIFO semantics,
 * dependencies, breakdown accounting and exposed-time measurement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/error.hh"
#include "core/rng.hh"
#include "sim/engine.hh"

namespace laer
{
namespace
{

TEST(SimEngine, SerialTasksOnOneStream)
{
    SimEngine eng(1);
    const TaskId a = eng.addTask("a", 0, StreamKind::Compute, 1.0);
    const TaskId b = eng.addTask("b", 0, StreamKind::Compute, 2.0);
    eng.run();
    EXPECT_DOUBLE_EQ(eng.task(a).start, 0.0);
    EXPECT_DOUBLE_EQ(eng.task(a).finish, 1.0);
    EXPECT_DOUBLE_EQ(eng.task(b).start, 1.0);
    EXPECT_DOUBLE_EQ(eng.makespan(), 3.0);
}

TEST(SimEngine, IndependentStreamsOverlap)
{
    SimEngine eng(1);
    eng.addTask("compute", 0, StreamKind::Compute, 2.0);
    eng.addTask("comm", 0, StreamKind::Prefetch, 2.0);
    eng.run();
    EXPECT_DOUBLE_EQ(eng.makespan(), 2.0);
}

TEST(SimEngine, DependencyDelaysStart)
{
    SimEngine eng(2);
    const TaskId a = eng.addTask("a", 0, StreamKind::Compute, 3.0);
    const TaskId b =
        eng.addTask("b", 1, StreamKind::Compute, 1.0, {a});
    eng.run();
    EXPECT_DOUBLE_EQ(eng.task(b).start, 3.0);
    EXPECT_DOUBLE_EQ(eng.makespan(), 4.0);
}

TEST(SimEngine, BarrierAcrossDevices)
{
    // Two devices with unequal work feed a shared collective: the
    // collective starts only when the slower device is done.
    SimEngine eng(2);
    const TaskId fast = eng.addTask("f", 0, StreamKind::Compute, 1.0);
    const TaskId slow = eng.addTask("s", 1, StreamKind::Compute, 5.0);
    const TaskId c0 = eng.addTask("a2a0", 0, StreamKind::Dispatch, 1.0,
                                  {fast, slow});
    const TaskId c1 = eng.addTask("a2a1", 1, StreamKind::Dispatch, 1.0,
                                  {fast, slow});
    eng.run();
    EXPECT_DOUBLE_EQ(eng.task(c0).start, 5.0);
    EXPECT_DOUBLE_EQ(eng.task(c1).start, 5.0);
    EXPECT_DOUBLE_EQ(eng.makespan(), 6.0);
}

TEST(SimEngine, FifoOrderWithinStreamEvenWhenDepsAllow)
{
    // Task c has no deps but is launched after b on the same stream;
    // FIFO means it cannot jump the queue.
    SimEngine eng(1);
    const TaskId a = eng.addTask("a", 0, StreamKind::Prefetch, 4.0);
    const TaskId b =
        eng.addTask("b", 0, StreamKind::Compute, 1.0, {a});
    const TaskId c = eng.addTask("c", 0, StreamKind::Compute, 1.0);
    eng.run();
    EXPECT_DOUBLE_EQ(eng.task(b).start, 4.0);
    EXPECT_DOUBLE_EQ(eng.task(c).start, 5.0);
}

TEST(SimEngine, RejectsForwardDependencies)
{
    SimEngine eng(1);
    EXPECT_THROW(eng.addTask("x", 0, StreamKind::Compute, 1.0, {5}),
                 FatalError);
    EXPECT_THROW(eng.addTask("x", 3, StreamKind::Compute, 1.0),
                 FatalError);
}

TEST(SimEngine, CategoryBusyAveragesOverDevices)
{
    SimEngine eng(2);
    eng.addTask("e0", 0, StreamKind::Compute, 2.0, {}, "expert");
    eng.addTask("e1", 1, StreamKind::Compute, 4.0, {}, "expert");
    eng.addTask("a", 0, StreamKind::Dispatch, 1.0, {}, "a2a");
    eng.run();
    const auto busy = eng.categoryBusyPerDevice();
    EXPECT_DOUBLE_EQ(busy.at("expert"), 3.0);
    EXPECT_DOUBLE_EQ(busy.at("a2a"), 0.5);
}

TEST(SimEngine, ExposedTimeZeroWhenFullyOverlapped)
{
    // Prefetch runs entirely under a longer compute task.
    SimEngine eng(1);
    eng.addTask("c", 0, StreamKind::Compute, 5.0, {}, "expert");
    eng.addTask("p", 0, StreamKind::Prefetch, 3.0, {}, "prefetch");
    eng.run();
    EXPECT_NEAR(eng.exposedTime("prefetch"), 0.0, 1e-12);
}

TEST(SimEngine, ExposedTimeCountsUncoveredTail)
{
    // Prefetch (4s) under compute (1s): 3 s exposed.
    SimEngine eng(1);
    eng.addTask("c", 0, StreamKind::Compute, 1.0, {}, "expert");
    eng.addTask("p", 0, StreamKind::Prefetch, 4.0, {}, "prefetch");
    eng.run();
    EXPECT_NEAR(eng.exposedTime("prefetch"), 3.0, 1e-12);
}

TEST(SimEngine, ExposedTimeMissingCategoryIsZero)
{
    SimEngine eng(1);
    eng.addTask("c", 0, StreamKind::Compute, 1.0, {}, "expert");
    eng.run();
    EXPECT_DOUBLE_EQ(eng.exposedTime("prefetch"), 0.0);
}

TEST(SimEngine, StreamKindNames)
{
    EXPECT_STREQ(streamKindName(StreamKind::Compute), "compute");
    EXPECT_STREQ(streamKindName(StreamKind::Prefetch), "prefetch");
    EXPECT_STREQ(streamKindName(StreamKind::Dispatch), "dispatch");
    EXPECT_STREQ(streamKindName(StreamKind::GradSync), "gradsync");
}

TEST(SimEngine, ZeroDurationTasksAreInstant)
{
    SimEngine eng(1);
    const TaskId a = eng.addTask("a", 0, StreamKind::Compute, 0.0);
    const TaskId b =
        eng.addTask("b", 0, StreamKind::Compute, 1.0, {a});
    eng.run();
    EXPECT_DOUBLE_EQ(eng.task(b).start, 0.0);
    EXPECT_EQ(eng.taskCount(), 2);
}

/** The per-device scan exposedTime used before it bucketed the
 * compute intervals in one pass: every device walks the whole task
 * list. */
Seconds
exposedTimeByDeviceScan(const SimEngine &eng, int n_devices,
                        const std::string &category)
{
    struct Interval
    {
        Seconds lo, hi;
    };
    const auto by_lo = [](const Interval &a, const Interval &b) {
        return a.lo < b.lo;
    };
    std::vector<Interval> cat;
    for (TaskId t = 0; t < eng.taskCount(); ++t)
        if (eng.task(t).category == category && eng.task(t).duration > 0)
            cat.push_back({eng.task(t).start, eng.task(t).finish});
    if (cat.empty())
        return 0.0;
    std::sort(cat.begin(), cat.end(), by_lo);
    std::vector<Interval> merged;
    for (const auto &iv : cat) {
        if (!merged.empty() && iv.lo <= merged.back().hi)
            merged.back().hi = std::max(merged.back().hi, iv.hi);
        else
            merged.push_back(iv);
    }
    const Seconds end = eng.makespan();
    Seconds exposed_total = 0.0;
    for (DeviceId d = 0; d < n_devices; ++d) {
        std::vector<Interval> busy;
        for (TaskId t = 0; t < eng.taskCount(); ++t) {
            const SimTask &task = eng.task(t);
            if (task.device == d && task.stream == StreamKind::Compute &&
                task.duration > 0)
                busy.push_back({task.start, task.finish});
        }
        std::sort(busy.begin(), busy.end(), by_lo);
        for (const auto &iv : merged) {
            Seconds uncovered = std::min(iv.hi, end) - iv.lo;
            for (const auto &b : busy) {
                const Seconds lo = std::max(iv.lo, b.lo);
                const Seconds hi = std::min(iv.hi, b.hi);
                if (hi > lo)
                    uncovered -= (hi - lo);
            }
            if (uncovered > 0)
                exposed_total += uncovered;
        }
    }
    return exposed_total / n_devices;
}

TEST(SimEngine, ExposedTimeMatchesPerDeviceScanOnRandomGraphs)
{
    const StreamKind streams[] = {StreamKind::Compute,
                                  StreamKind::Prefetch,
                                  StreamKind::Dispatch,
                                  StreamKind::GradSync};
    const char *categories[] = {"prefetch", "gradsync", "expert",
                                "others", ""};
    Rng rng(20261017);
    for (int trial = 0; trial < 300; ++trial) {
        const int n = rng.uniformInt(1, 6);
        SimEngine eng(n);
        const int tasks = rng.uniformInt(1, 120);
        for (int t = 0; t < tasks; ++t) {
            std::vector<TaskId> deps;
            for (int k = rng.uniformInt(0, 3); k > 0 && t > 0; --k)
                deps.push_back(rng.uniformInt(0, t - 1));
            // Some zero durations and some shared start times, so
            // empty and tied intervals reach the sort.
            const Seconds dur = rng.uniformInt(0, 4) == 0
                                    ? 0.0
                                    : 0.25 * rng.uniformInt(1, 12);
            eng.addTask("t", rng.uniformInt(0, n - 1),
                        streams[rng.uniformInt(0, 3)], dur, deps,
                        categories[rng.uniformInt(0, 4)]);
        }
        eng.run();
        for (const char *cat : {"prefetch", "gradsync", "expert"})
            EXPECT_EQ(eng.exposedTime(cat),
                      exposedTimeByDeviceScan(eng, n, cat))
                << "trial " << trial << " category " << cat;
    }
}

} // namespace
} // namespace laer
