/**
 * @file
 * Checkpoint probe layer of the differential-testing subsystem.
 *
 * The flight recorder (src/obs/) already snapshots the metrics
 * registry at fixed simulated-time intervals; this layer lifts those
 * CounterSnapshot dumps into in-memory `SnapshotStream`s captured
 * from any `ServingSimulator` run — plain or driven through a
 * `ControlLoop` — so two configurations of the same scenario can be
 * compared checkpoint by checkpoint (difftest/diff.hh), in the style
 * of RTL co-simulation probes: fixed-cadence state captures with
 * first-divergence evidence instead of end-of-run totals.
 *
 * The probe layer also owns the conservation invariants every
 * snapshot must satisfy regardless of configuration:
 *
 *  - request conservation: every offered request is completed,
 *    queued, running, migrating between pools, held across a split
 *    re-partition, counted failed by fault recovery, or parked in
 *    the retry queue awaiting re-enqueue — nothing is dropped on
 *    the floor, with or without an active fault plan;
 *  - KV discipline: reserved bytes never exceed the pool budget;
 *  - power discipline: device-seconds integrate at most
 *    numDevices * simulated time and never run backwards;
 *  - monotonicity: the monotone counters (offered, completed, steps,
 *    preemptions, ...) never decrease between snapshots;
 *  - accounting ties: SLO-met <= completed, good tokens <= decoded
 *    tokens, and the TTFT histogram count equals completions.
 *
 * checkStreamInvariants() evaluates them over a whole stream; any
 * violation is a one-line human-readable finding naming the snapshot,
 * its simulated time, and both sides of the broken identity.
 */

#ifndef LAER_DIFFTEST_PROBE_HH
#define LAER_DIFFTEST_PROBE_HH

#include <string>
#include <vector>

#include "ctrl/control_loop.hh"
#include "obs/metrics.hh"
#include "serve/serving_sim.hh"

namespace laer
{

/**
 * An in-memory sequence of registry snapshots captured at fixed
 * simulated-time intervals from one run, plus lookup helpers. The
 * flattening convention is MetricsRegistry::snapshot(): counters and
 * gauges by name, histograms as name.count/.mean/.p50/.p95/.p99/.max.
 */
struct SnapshotStream
{
    std::vector<CounterSnapshot> snapshots;

    /** Number of captured snapshots. */
    std::size_t size() const { return snapshots.size(); }

    /**
     * Value of `name` in snapshot `index`.
     * @param index     Snapshot position in [0, size()).
     * @param name      Flattened counter/gauge/histogram-field name.
     * @param fallback  Returned when the snapshot lacks `name` (an
     *                  instrument not yet registered at capture time).
     */
    double value(std::size_t index, const std::string &name,
                 double fallback = 0.0) const;

    /** True when snapshot `index` carries an entry named `name`. */
    bool has(std::size_t index, const std::string &name) const;
};

/** A finished run: its report plus the captured checkpoint stream. */
struct RunCapture
{
    ServingReport report;
    SnapshotStream stream;

    /** Attribution-conservation findings from the every-request
     * sampler attached to the run: one line per retired request whose
     * latency components failed to re-sum to the measured TTFT/E2E
     * (see obs/req_trace.hh). Empty on a healthy run. */
    std::vector<std::string> traceViolations;
};

/**
 * Run one serving scenario to completion with checkpoint probes
 * attached and return the report plus the captured stream.
 *
 * The run's `metricsRegistry`/`snapshotInterval` are overridden with
 * a capture-local registry, and a capture-local ReqTraceRecorder
 * sampling every request is attached so each retirement's additive
 * latency decomposition is checked against the measured TTFT/E2E —
 * observability is write-only by contract, so attaching either probe
 * cannot change a single simulated number.
 *
 * @param cluster   Topology to run on.
 * @param config    Scenario configuration (copied; the registry and
 *                  snapshot fields are overwritten).
 * @param interval  Simulated seconds between checkpoints (> 0).
 * @param loop      When non-null, drive the run through a ControlLoop
 *                  with these knobs instead of ServingSimulator::run().
 * @return the finished run's report and snapshot stream (the stream
 *         always ends with the final end-of-run snapshot).
 */
RunCapture captureServingRun(const Cluster &cluster,
                             ServingConfig config, Seconds interval,
                             const ControlLoopConfig *loop = nullptr,
                             const std::string &label = std::string());

/**
 * Process-global observability sinks for captured serving runs
 * (difftest_main `--trace-out` / `--metrics-out`). Every labelled
 * capture attaches to them under its label, so its Perfetto tracks
 * land under "<label>/" and its checkpoint snapshots append as JSONL
 * keyed by the label; the capture keeps its own registry and
 * every-request recorder. Observability stays write-only by contract,
 * so the captured streams and reports are bit-identical with or
 * without sinks. Null (the default) turns them off. Set once before
 * the campaign; not thread-safe.
 */
class ObsSinks;
void setCaptureObsSinks(ObsSinks *sinks);

/** Facts the invariant checker needs about the run's topology. */
struct InvariantContext
{
    int totalDevices = 0;  //!< cluster size (power-discipline bound)
    double tol = 1e-6;     //!< absolute slack for float comparisons
};

/**
 * Evaluate the conservation invariants over every snapshot of a
 * stream, including the cross-snapshot monotonicity checks.
 * @param stream   Captured checkpoint stream.
 * @param context  Topology facts of the captured run.
 * @return one human-readable line per violation; empty when the
 *         stream is conservation-clean.
 */
std::vector<std::string>
checkStreamInvariants(const SnapshotStream &stream,
                      const InvariantContext &context);

} // namespace laer

#endif // LAER_DIFFTEST_PROBE_HH
