/**
 * @file
 * Stream-based discrete-event engine.
 *
 * Models the execution substrate of Sec. 3.1 / Fig. 5: every device
 * owns a small set of in-order streams (compute S1, prefetch comm S2,
 * dispatch All-to-All S3, gradient sync S4 — mirroring CUDA streams in
 * the real system). A task occupies one stream for a fixed duration
 * and may depend on tasks from any stream/device. Within a stream,
 * tasks run in launch order (FIFO), exactly like CUDA kernel launch
 * semantics; a task starts when its stream is free AND all
 * dependencies have finished.
 *
 * Because dependencies must reference already-created tasks, the task
 * list is topologically ordered by construction and the schedule is
 * computed in a single linear pass.
 */

#ifndef LAER_SIM_ENGINE_HH
#define LAER_SIM_ENGINE_HH

#include <map>
#include <string>
#include <vector>

#include "core/error.hh"
#include "core/types.hh"

namespace laer
{

/** Stream classes per device (paper Fig. 5 S1-S4). */
enum class StreamKind
{
    Compute,  //!< S1: forward/backward kernels
    Prefetch, //!< S2: parameter prefetch communication
    Dispatch, //!< S3: token All-to-All dispatch/combine
    GradSync, //!< S4: gradient reshard / synchronisation
};

/** Printable stream name. */
const char *streamKindName(StreamKind kind);

/** A busy span [lo, hi) of one task on the simulated clock. */
struct BusyInterval
{
    Seconds lo, hi;
};

/**
 * Every device's compute busy list in one flat array: device d owns
 * the `stride` slots from d * stride and has filled them up to
 * end[d], in launch order (which an in-order stream keeps disjoint
 * and sorted).
 */
struct DeviceBusy
{
    std::vector<BusyInterval> spans;
    std::vector<std::size_t> end;
    std::size_t stride;

    /** `stride` bounds the intervals any one device records. */
    DeviceBusy(int devices, std::size_t stride);

    void push(DeviceId d, BusyInterval iv)
    {
        std::size_t &e = end[static_cast<std::size_t>(d)];
        LAER_ASSERT(e < (static_cast<std::size_t>(d) + 1) * stride,
                    "device " << d << " overran its " << stride
                              << " busy slots");
        spans[e++] = iv;
    }
};

/**
 * Seconds each device's compute stream sat idle while at least one
 * `category` interval (any order; sorted in place) ran, clipped to
 * `end` and averaged over the devices of `compute_busy`.
 */
Seconds foldExposedTime(std::vector<BusyInterval> &category,
                        const DeviceBusy &compute_busy, Seconds end);

/** Handle to a scheduled task. */
using TaskId = int;

/** A task instance after scheduling. */
struct SimTask
{
    std::string name;
    DeviceId device = 0;
    StreamKind stream = StreamKind::Compute;
    std::string category; //!< aggregation key for breakdowns
    Seconds duration = 0.0;
    std::vector<TaskId> deps;
    Seconds start = 0.0;
    Seconds finish = 0.0;
};

/**
 * The engine: add tasks in launch order, then run() to timestamp them.
 */
class SimEngine
{
  public:
    /** Create an engine for `n_devices` devices. */
    explicit SimEngine(int n_devices);

    /**
     * Launch a task.
     *
     * @param name      Debug label.
     * @param device    Owning device.
     * @param stream    Stream the task serialises on.
     * @param duration  Busy time in seconds.
     * @param deps      Tasks that must finish first (must already
     *                  exist — enforces acyclicity).
     * @param category  Breakdown bucket (e.g. "a2a", "expert").
     * @return the new task's id.
     */
    TaskId addTask(std::string name, DeviceId device, StreamKind stream,
                   Seconds duration, const std::vector<TaskId> &deps = {},
                   std::string category = {});

    /** Compute start/finish times for every task (single pass). */
    void run();

    /** True once run() has executed. */
    bool scheduled() const { return scheduled_; }

    /** Latest finish time across all tasks. */
    Seconds makespan() const;

    /** Immutable view of a task (post-run for valid timestamps). */
    const SimTask &task(TaskId id) const;

    /** Number of tasks added. */
    int taskCount() const { return static_cast<int>(tasks_.size()); }

    /**
     * Total busy seconds per category, averaged over devices — the
     * quantity the paper's Fig. 10(a) breakdown reports.
     */
    std::map<std::string, Seconds> categoryBusyPerDevice() const;

    /**
     * Exposed (non-overlapped) seconds of a category on the critical
     * path of each device's compute stream: time the compute stream
     * spent idle while at least one task of that category ran.
     */
    Seconds exposedTime(const std::string &category) const;

  private:
    int numDevices_;
    bool scheduled_ = false;
    std::vector<SimTask> tasks_;
    /** streamTail_[device][kind] = finish of last task launched. */
    std::vector<std::map<StreamKind, Seconds>> streamTails_;
};

} // namespace laer

#endif // LAER_SIM_ENGINE_HH
