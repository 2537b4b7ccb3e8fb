/**
 * @file
 * Autoscale demo: one compressed day of diurnal traffic served by two
 * 4-device model replicas under the control plane, comparing no
 * control (both replicas always on) against the threshold+hysteresis
 * and target-utilization autoscalers. Prints the per-policy summary,
 * the scaling-event timeline, and the replica time series so the
 * observe -> decide -> act loop is visible end to end.
 *
 *   ./examples/autoscale_demo [--policy=NAME[,NAME...]] [--csv]
 *                             [--seed=N]
 *
 * Policy names: static, threshold, target-util.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/error.hh"
#include "core/table.hh"
#include "ctrl/control_loop.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace
{

laer::ServingConfig
demoConfig(std::uint64_t seed)
{
    laer::ServingConfig cfg;
    cfg.model = laer::mixtral8x7bE8K2();
    cfg.capacity = 4; // replication slack inside a 4-device replica
    cfg.simulatedLayers = 2;
    cfg.horizon = 60.0; // two 30 s "days"
    cfg.sloTtft = 0.5;

    cfg.arrival.kind = laer::ArrivalKind::Diurnal;
    cfg.arrival.ratePerSec = 36.0;
    cfg.arrival.diurnalPeriod = 30.0;
    cfg.arrival.diurnalAmplitude = 0.7;
    cfg.arrival.meanPrefillTokens = 384;
    cfg.arrival.meanDecodeTokens = 48;
    cfg.arrival.seed = seed + 1;

    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.hbmPerDevice = 32LL << 30; // 4-device shards are heavy

    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.retunePeriod = 16;
    cfg.seed = seed;

    cfg.replicas.replicaDevices = 4;
    cfg.replicas.initialReplicas = 1;
    return cfg;
}

laer::ControlLoopConfig
loopConfig(laer::AutoscalerKind kind)
{
    laer::ControlLoopConfig cfg;
    cfg.interval = 1.0;
    cfg.kind = kind;
    cfg.autoscaler.minReplicas = 1;
    cfg.autoscaler.maxReplicas = 2;
    cfg.autoscaler.downWindows = 4;
    cfg.autoscaler.targetUtilization = 0.25;
    cfg.autoscaler.deadband = 0.5;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace laer;

    const CliArgs args(argc, argv, {"policy", "csv", "seed", "help"});
    if (args.has("help")) {
        std::cout << "usage: autoscale_demo [--policy=NAME[,NAME...]] "
                     "[--csv] [--seed=N]\n  names: static, threshold, "
                     "target-util\n";
        return 0;
    }
    const bool csv = args.has("csv");
    const std::uint64_t seed = args.getUint("seed", 3);
    const std::vector<std::string> filter = args.getList("policy");

    const std::pair<const char *, AutoscalerKind> policies[] = {
        {"static", AutoscalerKind::None},
        {"threshold", AutoscalerKind::ThresholdHysteresis},
        {"target-util", AutoscalerKind::TargetUtilization},
    };
    for (const std::string &name : filter) {
        bool known = false;
        for (const auto &[label, kind] : policies)
            known |= name == label;
        LAER_CHECK(known, "unknown policy '"
                              << name
                              << "' (expected static, threshold or "
                                 "target-util)");
    }
    const auto wanted = [&filter](const std::string &label) {
        return filter.empty() ||
               std::find(filter.begin(), filter.end(), label) !=
                   filter.end();
    };

    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    std::cout << "Cluster: " << cluster.describe() << "\n"
              << "Workload: diurnal arrivals, 36 req/s mean "
                 "(10.8..61.2 over a 30 s day), two 4-device "
                 "replicas\n\n";

    Table summary("Autoscaler policies, two days of traffic + drain");
    summary.setHeader({"policy", "completed", "ttft_p50_ms",
                       "ttft_p99_ms", "goodput_tok/s", "device_s",
                       "events", "end"});
    // The threshold run's report and window series, reused for the
    // narration below.
    ServingReport threshold_report;
    std::vector<TelemetryWindow> threshold_windows;
    for (const auto &[label, kind] : policies) {
        if (!wanted(label))
            continue;
        ServingConfig cfg = demoConfig(seed);
        if (kind == AutoscalerKind::None)
            cfg.replicas.initialReplicas = 2; // static = always on
        ServingSimulator sim(cluster, cfg);
        ControlLoop loop(sim, loopConfig(kind));
        const ServingReport r = loop.run();
        if (kind == AutoscalerKind::ThresholdHysteresis) {
            threshold_report = r;
            threshold_windows = loop.telemetry().history();
        }
        summary.startRow();
        summary.cell(label);
        summary.cell(r.completed);
        summary.cell(1e3 * r.ttftP50, 1);
        summary.cell(1e3 * r.ttftP99, 1);
        summary.cell(r.goodputTps, 0);
        summary.cell(r.deviceSeconds, 0);
        summary.cell(
            static_cast<std::int64_t>(r.scalingEvents.size()));
        summary.cell("x" + std::to_string(sim.activeReplicas()));
    }
    if (csv)
        summary.printCsv(std::cout);
    else
        summary.print(std::cout);

    if (!wanted("threshold"))
        return 0;

    // Narrate the threshold run's control decisions.
    const ServingReport &r = threshold_report;

    Table events("Scaling events (threshold policy)");
    events.setHeader({"t_req_s", "t_applied_s", "action", "before",
                      "after", "load_ms", "rehomed"});
    for (const ScalingEvent &e : r.scalingEvents) {
        events.startRow();
        events.cell(e.requested, 2);
        events.cell(e.applied, 2);
        events.cell(e.action);
        events.cell(e.before);
        events.cell(e.after);
        events.cell(1e3 * e.loadDelay, 1);
        events.cell(e.rehomed);
    }
    if (csv)
        events.printCsv(std::cout);
    else
        events.print(std::cout);

    Table series("Replica series, every 3rd window");
    series.setHeader(
        {"t_s", "req/s", "replicas", "queue", "ttft_p95_ms"});
    for (std::size_t i = 0; i < threshold_windows.size(); i += 3) {
        const TelemetryWindow &w = threshold_windows[i];
        series.startRow();
        series.cell(w.end, 0);
        series.cell(w.arrivalRate, 1);
        series.cell(w.activeReplicas);
        series.cell(w.totalQueueDepth());
        series.cell(1e3 * w.ttftP95, 1);
    }
    if (csv)
        series.printCsv(std::cout);
    else
        series.print(std::cout);
    return 0;
} catch (const laer::FatalError &err) {
    std::cerr << "autoscale_demo: " << err.what() << "\n";
    return 2;
}
