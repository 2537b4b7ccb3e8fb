#include "sim/engine.hh"

#include <algorithm>

#include "core/error.hh"

namespace laer
{

const char *
streamKindName(StreamKind kind)
{
    switch (kind) {
      case StreamKind::Compute:
        return "compute";
      case StreamKind::Prefetch:
        return "prefetch";
      case StreamKind::Dispatch:
        return "dispatch";
      case StreamKind::GradSync:
        return "gradsync";
    }
    return "?";
}

SimEngine::SimEngine(int n_devices)
    : numDevices_(n_devices), streamTails_(n_devices)
{
    LAER_CHECK(n_devices > 0, "engine needs at least one device");
}

TaskId
SimEngine::addTask(std::string name, DeviceId device, StreamKind stream,
                   Seconds duration, const std::vector<TaskId> &deps,
                   std::string category)
{
    LAER_CHECK(device >= 0 && device < numDevices_,
               "task device out of range");
    LAER_CHECK(duration >= 0.0, "negative task duration");
    const TaskId id = static_cast<TaskId>(tasks_.size());
    for (TaskId dep : deps)
        LAER_CHECK(dep >= 0 && dep < id,
                   "dependency must reference an earlier task");
    SimTask task;
    task.name = std::move(name);
    task.device = device;
    task.stream = stream;
    task.category = std::move(category);
    task.duration = duration;
    task.deps = deps;
    tasks_.push_back(std::move(task));
    scheduled_ = false;
    return id;
}

void
SimEngine::run()
{
    for (auto &tails : streamTails_)
        tails.clear();
    // Launch order == insertion order; deps are always earlier tasks,
    // so a single forward pass produces the fixed-point schedule.
    for (auto &task : tasks_) {
        Seconds ready = 0.0;
        for (TaskId dep : task.deps)
            ready = std::max(ready, tasks_[dep].finish);
        Seconds &tail = streamTails_[task.device][task.stream];
        task.start = std::max(ready, tail);
        task.finish = task.start + task.duration;
        tail = task.finish;
    }
    scheduled_ = true;
}

Seconds
SimEngine::makespan() const
{
    LAER_ASSERT(scheduled_, "makespan before run()");
    Seconds end = 0.0;
    for (const auto &task : tasks_)
        end = std::max(end, task.finish);
    return end;
}

const SimTask &
SimEngine::task(TaskId id) const
{
    LAER_ASSERT(id >= 0 && id < taskCount(), "bad task id");
    return tasks_[id];
}

std::map<std::string, Seconds>
SimEngine::categoryBusyPerDevice() const
{
    std::map<std::string, Seconds> busy;
    for (const auto &task : tasks_)
        if (!task.category.empty())
            busy[task.category] += task.duration;
    for (auto &[cat, secs] : busy)
        secs /= numDevices_;
    return busy;
}

Seconds
SimEngine::streamBusy(DeviceId device, StreamKind stream) const
{
    Seconds busy = 0.0;
    for (const auto &task : tasks_)
        if (task.device == device && task.stream == stream)
            busy += task.duration;
    return busy;
}

Seconds
SimEngine::exposedTime(const std::string &category) const
{
    LAER_ASSERT(scheduled_, "exposedTime before run()");
    // Collect the busy intervals of the category and, per device, the
    // idle intervals of the compute stream; the exposed time is the
    // average overlap of "category running" with "compute idle".
    struct Interval
    {
        Seconds lo, hi;
    };
    std::vector<Interval> cat;
    for (const auto &task : tasks_)
        if (task.category == category && task.duration > 0)
            cat.push_back({task.start, task.finish});
    if (cat.empty())
        return 0.0;
    std::sort(cat.begin(), cat.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo < b.lo;
              });
    // Merge the category intervals.
    std::vector<Interval> merged;
    for (const auto &iv : cat) {
        if (!merged.empty() && iv.lo <= merged.back().hi)
            merged.back().hi = std::max(merged.back().hi, iv.hi);
        else
            merged.push_back(iv);
    }

    // Busy intervals of every device's compute stream, bucketed in
    // one pass; each bucket keeps task order, so the sort below sees
    // the same input a per-device scan of the task list would give.
    std::vector<std::vector<Interval>> busy(
        static_cast<std::size_t>(numDevices_));
    for (const auto &task : tasks_)
        if (task.stream == StreamKind::Compute && task.duration > 0)
            busy[static_cast<std::size_t>(task.device)].push_back(
                {task.start, task.finish});

    const Seconds end = makespan();
    Seconds exposed_total = 0.0;
    for (auto &device_busy : busy) {
        std::sort(device_busy.begin(), device_busy.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.lo < b.lo;
                  });
        // Walk the merged category intervals and subtract compute-busy
        // overlap.
        for (const auto &iv : merged) {
            Seconds uncovered = std::min(iv.hi, end) - iv.lo;
            for (const auto &b : device_busy) {
                const Seconds lo = std::max(iv.lo, b.lo);
                const Seconds hi = std::min(iv.hi, b.hi);
                if (hi > lo)
                    uncovered -= (hi - lo);
            }
            if (uncovered > 0)
                exposed_total += uncovered;
        }
    }
    return exposed_total / numDevices_;
}

} // namespace laer
