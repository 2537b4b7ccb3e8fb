#include "ctrl/telemetry.hh"

#include <algorithm>

#include "core/error.hh"
#include "core/stats.hh"

namespace laer
{

namespace
{

/** True when the pool is serving or about to serve. */
bool
live(const PoolSignal &pool)
{
    return pool.state == EngineState::Active ||
           pool.state == EngineState::Loading;
}

} // namespace

int
TelemetryWindow::totalQueueDepth() const
{
    int depth = 0;
    for (const PoolSignal &pool : pools)
        if (live(pool))
            depth += pool.queueDepth;
    return depth;
}

int
TelemetryWindow::totalRunning() const
{
    int running = 0;
    for (const PoolSignal &pool : pools)
        if (live(pool))
            running += pool.running;
    return running;
}

double
TelemetryWindow::maxKvUtilization() const
{
    double util = 0.0;
    for (const PoolSignal &pool : pools)
        if (live(pool))
            util = std::max(util, pool.kvUtilization);
    return util;
}

void
TelemetryBus::publish(const TelemetryWindow &window)
{
    LAER_CHECK(window.end > window.start,
               "telemetry window must have positive length");
    LAER_CHECK(windows_.empty() || window.start >= windows_.back().end,
               "telemetry windows must be published in time order");
    windows_.push_back(window);
}

const TelemetryWindow &
TelemetryBus::last() const
{
    LAER_CHECK(!windows_.empty(), "no telemetry window published yet");
    return windows_.back();
}

TelemetryWindow
TelemetryCollector::collect(const ServingSimulator &sim, Seconds start,
                            Seconds end)
{
    LAER_CHECK(end > start, "telemetry window must have positive length");
    TelemetryWindow w;
    w.start = start;
    w.end = end;

    const std::int64_t offered = sim.offeredRequests();
    w.arrivals = offered - lastOffered_;
    lastOffered_ = offered;
    w.arrivalRate = static_cast<double>(w.arrivals) / (end - start);

    const ServingMetrics &metrics = sim.metrics();
    w.completions = metrics.completed() - lastCompleted_;
    lastCompleted_ = metrics.completed();

    // Latency percentiles over the window's completions only: slice
    // the suffix of the sample vectors past the last cursor.
    const std::vector<double> &ttfts = metrics.ttftSamples();
    w.ttftP95 = percentile(
        std::vector<double>(ttfts.begin() + lastTtftIndex_, ttfts.end()),
        95.0);
    lastTtftIndex_ = ttfts.size();
    const std::vector<double> &tpots = metrics.tpotSamples();
    w.tpotP95 = percentile(
        std::vector<double>(tpots.begin() + lastTpotIndex_, tpots.end()),
        95.0);
    lastTpotIndex_ = tpots.size();

    w.transferStall = sim.transferStallSoFar() - lastStall_;
    lastStall_ = sim.transferStallSoFar();

    // In Streaming metrics mode the sample vectors are empty (the
    // estimators replaced them); the window p95s read 0 and the
    // cursors stay parked at 0 — collection itself is unaffected.

    w.faultsEnabled = sim.config().faults.enabled();
    const AvailabilityReport &avail = sim.availabilitySoFar();
    w.faults = avail.faultsInjected - lastFaults_;
    lastFaults_ = avail.faultsInjected;
    w.repairs = avail.repairs - lastRepairs_;
    lastRepairs_ = avail.repairs;
    w.failed = avail.requestsFailed - lastFailed_;
    lastFailed_ = avail.requestsFailed;
    w.deadReplicas = sim.deadReplicas();
    w.retrying = sim.retryingNow();

    w.activeReplicas = sim.activeReplicas();
    w.prefillDevices = sim.prefillDevices();
    for (int i = 0; i < sim.numEngines(); ++i) {
        const ServingEngine &engine = sim.engine(i);
        PoolSignal pool;
        pool.name = engine.slice().name;
        pool.devices = engine.slice().numDevices();
        pool.state = engine.state();
        pool.queueDepth = engine.batcher().waitingCount();
        pool.running = engine.batcher().runningCount();
        pool.kvUtilization = engine.batcher().kvUtilization();
        w.pools.push_back(pool);
    }
    return w;
}

void
exportWindowMetrics(const TelemetryWindow &window,
                    MetricsRegistry &registry)
{
    registry.counter("ctrl.windows").add(1);
    registry.gauge("ctrl.arrival_rate").set(window.arrivalRate);
    registry.gauge("ctrl.window_completions")
        .set(static_cast<double>(window.completions));
    registry.gauge("ctrl.queue_depth")
        .set(static_cast<double>(window.totalQueueDepth()));
    registry.gauge("ctrl.running")
        .set(static_cast<double>(window.totalRunning()));
    registry.gauge("ctrl.kv_utilization").set(window.maxKvUtilization());
    registry.gauge("ctrl.ttft_p95_s").set(window.ttftP95);
    registry.gauge("ctrl.tpot_p95_s").set(window.tpotP95);
    registry.gauge("ctrl.transfer_stall_s").set(window.transferStall);
    registry.gauge("ctrl.active_replicas")
        .set(static_cast<double>(window.activeReplicas));
    registry.gauge("ctrl.prefill_devices")
        .set(static_cast<double>(window.prefillDevices));
    // Fault signals mirror only on faulted runs, so fault-free
    // registries (and the golden snapshots pinning them) carry
    // exactly the historical name set.
    if (window.faultsEnabled) {
        registry.counter("ctrl.faults").add(window.faults);
        registry.counter("ctrl.repairs").add(window.repairs);
        registry.counter("ctrl.failed").add(window.failed);
        registry.gauge("ctrl.dead_replicas")
            .set(static_cast<double>(window.deadReplicas));
        registry.gauge("ctrl.retrying")
            .set(static_cast<double>(window.retrying));
    }
}

} // namespace laer
