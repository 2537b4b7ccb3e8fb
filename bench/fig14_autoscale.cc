/**
 * @file
 * Fig. 14 — control-plane sweep: replica autoscaling and dynamic
 * prefill/decode pool sizing under diurnal load.
 *
 * The serving cluster (8 nodes x 2 devices) faces a compressed
 * day/night cycle (sinusoidal arrival rate, two full periods per run)
 * and three configurations compete at each mean rate:
 *
 *  - Static8/8: the PR 3 disaggregated baseline — a fixed 8-device
 *    prefill pool and 8-device decode pool, no control plane.
 *  - AutoSplit: the same disaggregated topology under a
 *    threshold+hysteresis ControlLoop that migrates node-regular
 *    device boundaries between the pools as their pressure diverges
 *    (the prefill pool saturates first at high load — fig13c).
 *  - AutoReplica: two 8-device whole-model LAER replicas, scaled
 *    1 <-> 2 with offered load; a spun-up replica pays the model-load
 *    delay (inference model state over the host link) and an off-peak
 *    scale-down powers its slice off, which is what the
 *    device-seconds column measures.
 *
 * Expected shape: at the peak-hour rate the autoscaled configurations
 * beat the static 8/8 split on SLO goodput (more prefill devices /
 * a second replica exactly when the day peaks), while off-peak
 * AutoReplica serves from one slice and spends materially fewer
 * device-seconds than any static 16-device layout. The binary exits
 * non-zero when either half of that claim fails (skipped under
 * --quick or a --policy filter).
 *
 * Flags: `--policy=NAME[,NAME...]` (Static8/8, AutoSplit,
 * AutoReplica), `--csv`, `--seed=N`, `--quick` (tiny sweep for CI
 * smoke), `--fault-plan=FILE`, the obs flags (serve/obs_sinks.hh;
 * runs labelled config@rate), `--help`.
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/error.hh"
#include "core/table.hh"
#include "ctrl/control_loop.hh"
#include "fault/fault.hh"
#include "serve/obs_sinks.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace
{

enum class Variant
{
    StaticSplit,
    AutoSplit,
    AutoReplica,
};

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::StaticSplit:
        return "Static8/8";
      case Variant::AutoSplit:
        return "AutoSplit";
      case Variant::AutoReplica:
        return "AutoReplica";
    }
    return "?";
}

bool csv_output = false;
bool quick = false;
std::vector<std::string> policy_filter;
std::uint64_t seed = 7;

bool
selected(Variant v)
{
    return policy_filter.empty() ||
           std::find(policy_filter.begin(), policy_filter.end(),
                     variantName(v)) != policy_filter.end();
}

void
emit(const laer::Table &table)
{
    if (csv_output)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

laer::ServingConfig
servingConfig(Variant variant, double rate)
{
    laer::ServingConfig cfg;
    cfg.model = laer::mixtral8x7bE8K2();
    cfg.capacity = 2;
    cfg.simulatedLayers = 4;
    cfg.horizon = quick ? 30.0 : 80.0; // two 40 s "days"
    cfg.sloTtft = 0.5;

    cfg.arrival.kind = laer::ArrivalKind::Diurnal;
    cfg.arrival.ratePerSec = rate;
    cfg.arrival.diurnalPeriod = 40.0;
    cfg.arrival.diurnalAmplitude = 0.7;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.seed = seed + 1;

    cfg.batcher.tokenBudget = 16384;
    cfg.batcher.prefillChunk = 1024;
    // 24 GiB/device: an 8-device pool keeps a healthy KV budget; the
    // smallest feasible pool is 4 devices, whose shard nearly fills
    // the card (model state per device grows as pools shrink).
    cfg.hbmPerDevice = 24LL << 30;

    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.routing.deviceJitter = 0.15;
    cfg.retunePeriod = 16;
    cfg.seed = seed;

    switch (variant) {
      case Variant::StaticSplit:
      case Variant::AutoSplit:
        cfg.policy = laer::ServingPolicy::Disaggregated;
        cfg.disagg.prefillDevices = 8;
        break;
      case Variant::AutoReplica:
        cfg.policy = laer::ServingPolicy::LaerServe;
        cfg.replicas.replicaDevices = 8;
        cfg.replicas.initialReplicas = 1;
        break;
    }
    return cfg;
}

laer::ControlLoopConfig
loopConfig(Variant variant)
{
    laer::ControlLoopConfig cfg;
    cfg.interval = 1.0;
    cfg.kind = variant == Variant::StaticSplit
                   ? laer::AutoscalerKind::None
                   : laer::AutoscalerKind::ThresholdHysteresis;
    cfg.autoscaler.minReplicas = 1;
    cfg.autoscaler.maxReplicas = 2;
    // A 40 s day: demand must stay low for a good stretch before a
    // replica powers off, or the ramp down lands inside the next ramp
    // up (a scale-up costs a model load; churn is pure loss).
    cfg.autoscaler.downWindows = 5;
    // The split floor comes from the simulator (expert hosting +
    // memory feasibility of the shrunk pool's shard under the 24 GiB
    // budget).
    return cfg;
}

/** Final topology of a finished run, e.g. "10/6" or "x2". */
std::string
finalShape(Variant variant, const laer::ServingSimulator &sim)
{
    std::ostringstream oss;
    if (variant == Variant::AutoReplica)
        oss << "x" << sim.activeReplicas();
    else
        oss << sim.prefillDevices() << "/"
            << sim.cluster().numDevices() - sim.prefillDevices();
    return oss.str();
}

void
printTimeline(Variant variant, double rate,
              const laer::ServingReport &report)
{
    if (report.scalingEvents.empty())
        return;
    std::ostringstream title;
    title << "Fig. 14 — scaling-event timeline (" << variantName(variant)
          << ", " << rate << " req/s mean)";
    laer::Table table(title.str());
    table.setHeader({"t_req_s", "t_applied_s", "action", "before",
                     "after", "load_ms", "rehomed"});
    for (const laer::ScalingEvent &e : report.scalingEvents) {
        table.startRow();
        table.cell(e.requested, 2);
        table.cell(e.applied, 2);
        table.cell(e.action);
        table.cell(e.before);
        table.cell(e.after);
        table.cell(1e3 * e.loadDelay, 1);
        table.cell(e.rehomed);
    }
    emit(table);
}

void
printWindows(Variant variant, double rate,
             const std::vector<laer::TelemetryWindow> &windows)
{
    if (windows.empty())
        return;
    std::ostringstream title;
    title << "Fig. 14 — per-window series, every 5th window ("
          << variantName(variant) << ", " << rate << " req/s mean)";
    laer::Table table(title.str());
    table.setHeader({"t_s", "req/s", "replicas", "split", "queue",
                     "kv_util", "ttft_p95_ms"});
    for (std::size_t i = 0; i < windows.size(); i += 5) {
        const laer::TelemetryWindow &w = windows[i];
        table.startRow();
        table.cell(w.end, 0);
        table.cell(w.arrivalRate, 1);
        table.cell(w.activeReplicas);
        if (w.prefillDevices > 0) {
            std::ostringstream split;
            split << w.prefillDevices;
            table.cell(split.str());
        } else {
            table.cell("-");
        }
        table.cell(w.totalQueueDepth());
        table.cell(w.maxKvUtilization(), 2);
        table.cell(1e3 * w.ttftP95, 1);
    }
    emit(table);
}

} // namespace

int
main(int argc, char **argv)
try {
    const laer::CliArgs args(
        argc, argv,
        laer::ObsSinks::flags(
            {"policy", "csv", "seed", "quick", "fault-plan", "help"}));
    if (args.has("help")) {
        std::cout
            << "usage: fig14_autoscale [--policy=NAME[,NAME...]] "
               "[--csv] [--seed=N] [--quick] [--fault-plan=FILE] "
               "[obs flags]\n"
               "  --policy      run only the named configurations; "
               "names: Static8/8, AutoSplit, AutoReplica\n"
               "  --csv         emit tables as CSV\n"
               "  --seed        routing/arrival seed base (default 7)\n"
               "  --quick       one rate, one diurnal period (CI "
               "smoke; skips the acceptance gate)\n"
               "  --fault-plan  inject a parsed fault plan into every "
               "run (docs/ROBUSTNESS.md; skips the acceptance gate)\n"
            << laer::ObsSinks::help();
        return 0;
    }
    csv_output = args.has("csv");
    quick = args.has("quick");
    policy_filter = args.getChoices(
        "policy", {variantName(Variant::StaticSplit),
                   variantName(Variant::AutoSplit),
                   variantName(Variant::AutoReplica)});
    seed = args.getUint("seed", seed);
    laer::FaultConfig fault_plan;
    const bool faulted = !args.get("fault-plan").empty();
    if (faulted)
        fault_plan = laer::parseFaultPlanFile(args.get("fault-plan"));
    laer::ObsSinks sinks(args);

    const laer::Cluster cluster(8, 2, 300e9, 12.5e9, 0.68 * 312e12);
    const std::vector<double> rates =
        quick ? std::vector<double>{35.0}
              : std::vector<double>{20.0, 35.0, 50.0};
    const Variant variants[] = {Variant::StaticSplit,
                                Variant::AutoSplit,
                                Variant::AutoReplica};

    std::ostringstream title;
    title << "Fig. 14 — diurnal autoscaling sweep (" << cluster.describe()
          << ", 24 GiB HBM/device, sinusoidal day of "
          << "40 s, amplitude 0.7, TTFT SLO 500 ms)";
    laer::Table table(title.str());
    table.setHeader({"req/s", "config", "ttft_p50_ms", "ttft_p99_ms",
                     "tpot_p50_ms", "goodput_tok/s", "device_s",
                     "events", "final", "done"});

    const double top_rate = rates.back();
    const double low_rate = rates.front();
    double static_peak_good = -1.0, auto_peak_good = -1.0;
    double static_low_devs = -1.0, replica_low_devs = -1.0;
    /** A peak-rate run's report beside its loop's window history. */
    struct PeakRun
    {
        Variant variant;
        laer::ServingReport report;
        std::vector<laer::TelemetryWindow> windows;
    };
    std::vector<PeakRun> peak_runs;

    for (const double rate : rates) {
        for (const Variant variant : variants) {
            if (!selected(variant))
                continue;
            laer::ServingConfig cfg = servingConfig(variant, rate);
            if (faulted)
                cfg.faults = fault_plan;
            std::ostringstream label;
            label << variantName(variant) << "@" << rate;
            laer::MetricsRegistry registry;
            sinks.attach(cfg, registry, label.str());
            laer::ServingSimulator sim(cluster, cfg);
            laer::ControlLoop loop(sim, loopConfig(variant));
            const laer::ServingReport r = loop.run();
            sinks.end(registry, label.str());

            table.startRow();
            table.cell(rate, 0);
            table.cell(variantName(variant));
            table.cell(1e3 * r.ttftP50, 1);
            table.cell(1e3 * r.ttftP99, 1);
            table.cell(1e3 * r.tpotP50, 2);
            table.cell(r.goodputTps, 0);
            table.cell(r.deviceSeconds, 0);
            table.cell(static_cast<std::int64_t>(
                r.scalingEvents.size()));
            table.cell(finalShape(variant, sim));
            table.cell(r.completed);

            if (rate == top_rate) {
                if (variant == Variant::StaticSplit)
                    static_peak_good = r.goodputTps;
                else
                    auto_peak_good =
                        std::max(auto_peak_good, r.goodputTps);
                peak_runs.push_back(
                    {variant, r, loop.telemetry().history()});
            }
            if (rate == low_rate) {
                if (variant == Variant::StaticSplit)
                    static_low_devs = r.deviceSeconds;
                if (variant == Variant::AutoReplica)
                    replica_low_devs = r.deviceSeconds;
            }
        }
    }
    if (table.rowCount() > 0)
        emit(table);

    for (const PeakRun &run : peak_runs) {
        if (run.variant == Variant::StaticSplit)
            continue;
        printTimeline(run.variant, top_rate, run.report);
        printWindows(run.variant, top_rate, run.windows);
    }

    sinks.write();

    // The peak/off-peak acceptance claim is a fault-free statement —
    // under an injected plan the interesting output is the table.
    if (quick || !policy_filter.empty() || faulted)
        return 0;
    const bool peak_win = auto_peak_good > static_peak_good;
    const bool offpeak_win = replica_low_devs < static_low_devs;
    std::cout << "at " << top_rate
              << " req/s mean: best autoscaled goodput "
              << static_cast<long long>(auto_peak_good)
              << " tok/s vs static 8/8 "
              << static_cast<long long>(static_peak_good)
              << " tok/s; off-peak (" << low_rate
              << " req/s) device-seconds "
              << static_cast<long long>(replica_low_devs)
              << " autoscaled vs "
              << static_cast<long long>(static_low_devs)
              << " static\n";
    return peak_win && offpeak_win ? 0 : 1;
} catch (const laer::FatalError &err) {
    std::cerr << "fig14_autoscale: " << err.what() << "\n";
    return 2;
}
