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

DeviceBusy::DeviceBusy(int devices, std::size_t stride)
    : spans(static_cast<std::size_t>(devices) * stride),
      end(static_cast<std::size_t>(devices)), stride(stride)
{
    for (std::size_t d = 0; d < end.size(); ++d)
        end[d] = d * stride;
}

Seconds
foldExposedTime(std::vector<BusyInterval> &category,
                const DeviceBusy &compute_busy, Seconds end)
{
    if (category.empty())
        return 0.0;
    std::sort(category.begin(), category.end(),
              [](const BusyInterval &a, const BusyInterval &b) {
                  return a.lo < b.lo;
              });
    // Merge the category intervals.
    std::vector<BusyInterval> merged;
    for (const auto &iv : category) {
        if (!merged.empty() && iv.lo <= merged.back().hi)
            merged.back().hi = std::max(merged.back().hi, iv.hi);
        else
            merged.push_back(iv);
    }

    // Subtract each device's compute-busy overlap from every merged
    // interval. Both lists are disjoint and sorted, so each walk
    // skips what ended before and stops at what starts after.
    Seconds exposed_total = 0.0;
    for (std::size_t d = 0; d < compute_busy.end.size(); ++d) {
        const BusyInterval *busy =
            compute_busy.spans.data() + d * compute_busy.stride;
        const std::size_t size =
            compute_busy.end[d] - d * compute_busy.stride;
        std::size_t first = 0;
        for (const auto &iv : merged) {
            while (first < size && busy[first].hi <= iv.lo)
                ++first;
            Seconds uncovered = std::min(iv.hi, end) - iv.lo;
            for (std::size_t k = first; k < size && busy[k].lo < iv.hi;
                 ++k) {
                const Seconds lo = std::max(iv.lo, busy[k].lo);
                const Seconds hi = std::min(iv.hi, busy[k].hi);
                if (hi > lo)
                    uncovered -= (hi - lo);
            }
            if (uncovered > 0)
                exposed_total += uncovered;
        }
    }
    return exposed_total / static_cast<double>(compute_busy.end.size());
}

Seconds
SimEngine::exposedTime(const std::string &category) const
{
    LAER_ASSERT(scheduled_, "exposedTime before run()");
    std::vector<BusyInterval> cat;
    std::vector<std::size_t> per_device(numDevices_, 0);
    for (const auto &task : tasks_) {
        if (task.duration > 0 && task.category == category)
            cat.push_back({task.start, task.finish});
        if (task.duration > 0 && task.stream == StreamKind::Compute)
            ++per_device[task.device];
    }
    DeviceBusy busy(numDevices_, *std::max_element(per_device.begin(),
                                                   per_device.end()));
    for (const auto &task : tasks_)
        if (task.duration > 0 && task.stream == StreamKind::Compute)
            busy.push(task.device, {task.start, task.finish});
    return foldExposedTime(cat, busy, makespan());
}

} // namespace laer
