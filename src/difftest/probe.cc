#include "difftest/probe.hh"

#include <cmath>
#include <sstream>

#include "core/error.hh"
#include "obs/req_trace.hh"
#include "serve/obs_sinks.hh"

namespace laer
{

double
SnapshotStream::value(std::size_t index, const std::string &name,
                      double fallback) const
{
    const CounterSnapshot &snap = snapshots.at(index);
    for (const auto &entry : snap.values)
        if (entry.first == name)
            return entry.second;
    return fallback;
}

bool
SnapshotStream::has(std::size_t index, const std::string &name) const
{
    const CounterSnapshot &snap = snapshots.at(index);
    for (const auto &entry : snap.values)
        if (entry.first == name)
            return true;
    return false;
}

namespace
{

/** difftest_main's campaign sinks; null until set (see probe.hh). */
ObsSinks *g_capture_sinks = nullptr;

} // namespace

void
setCaptureObsSinks(ObsSinks *sinks)
{
    g_capture_sinks = sinks;
}

RunCapture
captureServingRun(const Cluster &cluster, ServingConfig config,
                  Seconds interval, const ControlLoopConfig *loop,
                  const std::string &label)
{
    LAER_CHECK(interval > 0.0,
               "captureServingRun needs a positive snapshot interval");
    MetricsRegistry registry;
    config.metricsRegistry = &registry;
    config.snapshotInterval = interval;
    const bool observed = g_capture_sinks != nullptr && !label.empty();
    if (observed)
        g_capture_sinks->attach(config, registry, label);

    // Sample every request, so each retirement's additive latency
    // decomposition is checked against the measured TTFT/E2E and any
    // conservation failure surfaces as a capture finding.
    ReqTraceConfig trace_config;
    trace_config.sampleEvery = 1;
    ReqTraceRecorder req_trace(trace_config);
    config.reqTrace = &req_trace;

    RunCapture capture;
    ServingSimulator sim(cluster, config);
    if (loop != nullptr) {
        ControlLoop driver(sim, *loop);
        capture.report = driver.run();
    } else {
        capture.report = sim.run();
    }
    capture.stream.snapshots = registry.snapshots();
    capture.traceViolations = req_trace.violations();
    if (observed)
        g_capture_sinks->end(registry, label);
    return capture;
}

namespace
{

/** Format a violation line: "snapshot 3 (t=0.750): <detail>". */
std::string
violation(std::size_t index, Seconds t, const std::string &detail)
{
    std::ostringstream os;
    os << "snapshot " << index << " (t=" << t << "): " << detail;
    return os.str();
}

/** Counters that must never decrease between snapshots. */
const char *const kMonotone[] = {
    "serve.offered",         "serve.admissions",
    "serve.completed",       "serve.slo_met",
    "serve.decoded_tokens",  "serve.good_tokens",
    "serve.preemptions",     "serve.steps",
    "serve.migrated",        "serve.kv_transfer_bytes",
    "planner.retunes",       "serve.device_seconds",
    "serve.sim_now",         "serve.faults",
    "serve.repairs",         "serve.retries",
    "serve.failed",          "serve.transfer_aborts",
};

} // namespace

std::vector<std::string>
checkStreamInvariants(const SnapshotStream &stream,
                      const InvariantContext &context)
{
    std::vector<std::string> violations;
    const double tol = context.tol;

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Seconds t = stream.snapshots[i].simTime;
        const auto v = [&](const char *name) {
            return stream.value(i, name, 0.0);
        };
        const auto report = [&](const std::string &detail) {
            violations.push_back(violation(i, t, detail));
        };

        // Request conservation: tokens in = retired + in-flight.
        // Every offered request is exactly one of completed, waiting,
        // running, migrating between pools, held across a split,
        // counted failed (fault recovery gave up on it), or parked in
        // the retry queue between a fault kill and its re-enqueue.
        // The fault terms read 0 on fault-free runs (the simulator
        // only registers them when a fault plan is configured).
        const double offered = v("serve.offered");
        const double accounted =
            v("serve.completed") + v("serve.queue_depth") +
            v("serve.running") + v("serve.migrating") +
            v("serve.held") + v("serve.failed") +
            v("serve.retrying");
        if (std::fabs(offered - accounted) > tol) {
            std::ostringstream os;
            os << "request conservation broken: offered (" << offered
               << ") != completed + queued + running + migrating + "
                  "held + failed + retrying ("
               << accounted << ")";
            report(os.str());
        }

        // Accounting ties.
        if (v("serve.slo_met") > v("serve.completed") + tol)
            report("slo_met exceeds completed");
        if (v("serve.good_tokens") > v("serve.decoded_tokens") + tol)
            report("good_tokens exceeds decoded_tokens");
        if (v("serve.completed") > offered + tol)
            report("completed exceeds offered");
        if (stream.has(i, "serve.ttft_s.count") &&
            std::fabs(stream.value(i, "serve.ttft_s.count") -
                      v("serve.completed")) > tol)
            report("ttft histogram count != completed");

        // KV discipline: reserved bytes never exceed the pool.
        const double reserved = v("serve.kv_reserved_bytes");
        const double budget = v("serve.kv_budget_bytes");
        if (reserved < -tol)
            report("negative KV reservation");
        if (budget > 0.0 && reserved > budget + tol) {
            std::ostringstream os;
            os << "KV reservation (" << reserved
               << " B) exceeds the pool budget (" << budget << " B)";
            report(os.str());
        }

        // Power discipline: device-seconds = sum of powered-engine
        // time, bounded by every device powered since t = 0. The
        // gauges are read at the simulator clock (serve.sim_now),
        // which may lead the snapshot stamp after a long event jump.
        const double device_s = v("serve.device_seconds");
        const double sim_now = v("serve.sim_now");
        if (device_s < -tol)
            report("negative device-seconds");
        if (sim_now + tol < t)
            report("sim_now trails the snapshot stamp");
        if (device_s >
            static_cast<double>(context.totalDevices) * sim_now + tol) {
            std::ostringstream os;
            os << "device-seconds (" << device_s << ") exceed "
               << context.totalDevices << " devices * sim_now ("
               << sim_now << " s)";
            report(os.str());
        }

        // Cross-snapshot monotonicity.
        if (i > 0) {
            if (stream.snapshots[i - 1].simTime > t + tol)
                report("snapshot stamps run backwards");
            for (const char *name : kMonotone) {
                const double prev =
                    stream.value(i - 1, name, 0.0);
                if (stream.value(i, name, 0.0) < prev - tol) {
                    std::ostringstream os;
                    os << name << " decreased ("
                       << prev << " -> "
                       << stream.value(i, name, 0.0) << ")";
                    report(os.str());
                }
            }
        }
    }
    return violations;
}

} // namespace laer
