/**
 * @file
 * Fig. 15 (new) — event-core throughput on a scaled diurnal day.
 *
 * One serving scenario sized so the full run offers >= 1M requests:
 * a sinusoidal "day" of Diurnal arrivals against a replica-sliced
 * cluster, Streaming metrics mode (bounded observability memory),
 * sparse routing draws on drain steps, and the event core's engine
 * windows (docs/PERF.md) fanned over --threads workers. The figure of
 * merit is the simulation rate:
 *
 *   sim_s_per_wall_s     simulated seconds per wall second
 *   requests_per_wall_s  completed requests per wall second
 *
 * Results land in BENCH_fig15.json (see --out) keyed by cluster size
 * so scripts/bench_diff.py can gate the perf trajectory against the
 * committed bench/BENCH_fig15.baseline.json; the JSON also carries
 * the lower-is-better reciprocals (wall_ms_per_sim_s,
 * wall_us_per_request) bench_diff's ratio logic compares.
 *
 * In full mode the run must clear the committed floors (kMinSimRate /
 * kMinReqRate, conservative measurements on a 1-core CI box) or the
 * bench exits non-zero — the hard perf gate of the event-core PR.
 * --quick shrinks the day for CI smoke (floors are skipped; the
 * bench_diff ratio gate covers regressions there).
 *
 *   ./fig15_million_requests [--quick] [--threads=N]
 *       [--compare-serial] [--out=PATH] [--trace-out=FILE]
 *       [--metrics-out=FILE]
 *
 * --compare-serial re-runs the identical scenario on the same event
 * core pinned to one thread, and records the thread fan-out's speedup
 * — the number quoted in docs/PERF.md. Both arms produce the same
 * report; every arm that runs must drain the whole day (completed ==
 * offered) or the bench exits non-zero. The trace and metrics flags
 * (serve/obs_sinks.hh) key each arm's tracks and 1 s snapshots by arm
 * ("threads", "one-thread").
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/error.hh"
#include "model/config.hh"
#include "serve/obs_sinks.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace
{

using Clock = std::chrono::steady_clock;

/** Committed full-mode floors: measured ~82 sim-s/wall-s and ~145k
 * req/wall-s on the 1-core reference box, committed at roughly a
 * third so machine jitter never flakes the gate. Speedup above these
 * floors scales with available cores (docs/PERF.md). */
constexpr double kMinSimRate = 25.0;   //!< sim seconds per wall second
constexpr double kMinReqRate = 45000.0; //!< requests per wall second

/** One arm's measurements. */
struct ArmResult
{
    long long offered = 0;
    long long completed = 0;
    double simSeconds = 0.0;
    double wallSeconds = 0.0;

    double simRate() const { return simSeconds / wallSeconds; }
    double reqRate() const
    {
        return static_cast<double>(completed) / wallSeconds;
    }
};

laer::ServingConfig
dayConfig(bool quick, int threads)
{
    laer::ServingConfig cfg;
    cfg.model = laer::mixtral8x7bE8K2();
    cfg.policy = laer::ServingPolicy::LaerServe;
    cfg.capacity = 2;
    cfg.simulatedLayers = 1;
    cfg.retunePeriod = 64;
    cfg.tuner.fastScoring = true;
    cfg.threads = threads;
    cfg.seed = 15;

    // One replica slice per 8-GPU node; every slice a full model.
    cfg.replicas.replicaDevices = 8;

    // The scaled day: one sinusoidal cycle of Diurnal arrivals over
    // the horizon. Full mode offers >= 1M requests; --quick keeps the
    // same shape at ~1/16 the day for CI smoke.
    cfg.horizon = quick ? 25.0 : 400.0;
    cfg.arrival.kind = laer::ArrivalKind::Diurnal;
    cfg.arrival.ratePerSec = 2600.0;
    cfg.arrival.diurnalPeriod = cfg.horizon;
    cfg.arrival.diurnalAmplitude = 0.7;
    cfg.arrival.meanPrefillTokens = 96;
    cfg.arrival.meanDecodeTokens = 24;
    cfg.arrival.numSloClasses = 2;
    cfg.arrival.seed = 15;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.maxRunning = 512;
    cfg.batcher.numSloClasses = 2;

    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    return cfg;
}

ArmResult
runArm(const laer::Cluster &cluster, laer::ServingConfig cfg,
       laer::MetricsRegistry &registry, laer::ObsSinks &sinks,
       const std::string &label)
{
    // Streaming metrics mode: bounded sample memory over a
    // million-request day, snapshotted at the dispatch grid's cadence,
    // so the snapshots end no window the grid does not.
    cfg.metricsRegistry = &registry;
    cfg.metricsMode = laer::MetricsMemoryMode::Streaming;
    cfg.snapshotInterval = 1.0;
    sinks.attach(cfg, registry, label);

    const Clock::time_point t0 = Clock::now();
    laer::ServingSimulator sim(cluster, cfg);
    const laer::ServingReport report = sim.run();
    ArmResult res;
    res.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    res.offered = report.offered;
    res.completed = report.completed;
    res.simSeconds = report.elapsed;
    sinks.end(registry, label);
    return res;
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace laer;

    const CliArgs args(argc, argv,
                       ObsSinks::flags({"quick", "threads",
                                        "compare-serial", "out", "help"},
                                       /*slo_report=*/false));
    if (args.has("help")) {
        std::cout << "usage: fig15_million_requests [--quick] "
                     "[--threads=N] [--compare-serial] [--out=PATH] "
                     "[obs flags]\n"
                     "  full mode runs the >= 1M-request day and "
                     "enforces the committed rate floors;\n"
                     "  --quick shrinks the day for CI smoke "
                     "(floors skipped).\n"
                     "  --compare-serial also runs the same event core "
                     "on 1 thread (same report) and records the "
                     "speedup of --threads over it.\n"
                  << ObsSinks::help(/*slo_report=*/false);
        return 0;
    }
    const bool quick = args.has("quick");
    const bool compare_serial = args.has("compare-serial");
    const int threads =
        static_cast<int>(args.getUint("threads", 0)); // 0 = hardware
    const std::string out_path = args.get("out", "BENCH_fig15.json");
    ObsSinks sinks(args);

    const int nodes = 8;
    const Cluster cluster = Cluster::a100(nodes, 8);

    std::cout << "fig15: " << (quick ? "quick" : "full")
              << " diurnal day on " << cluster.numDevices()
              << " devices (" << nodes << " replica slices)\n";

    MetricsRegistry registry;
    const ArmResult run = runArm(cluster, dayConfig(quick, threads),
                                 registry, sinks, "threads");

    std::cout << "event core: " << run.completed << "/"
              << run.offered << " requests over "
              << run.simSeconds << " sim s in "
              << run.wallSeconds << " wall s\n"
              << "  " << run.simRate() << " sim-s/wall-s, "
              << run.reqRate() << " req/wall-s\n";

    ArmResult one;
    // one-thread wall / --threads wall: above 1 when the fan-out pays.
    // Stdout and the JSON print it the same way.
    double speedup = 0.0;
    if (compare_serial) {
        MetricsRegistry one_registry;
        one = runArm(cluster, dayConfig(quick, /*threads=*/1),
                     one_registry, sinks, "one-thread");
        speedup = one.wallSeconds / run.wallSeconds;
        std::cout << "one thread: " << one.completed << "/"
                  << one.offered << " requests in "
                  << one.wallSeconds << " wall s ("
                  << one.simRate() << " sim-s/wall-s); thread "
                  << "speedup " << speedup << "x\n";
    }

    // ---- BENCH_fig15.json ----------------------------------------------
    {
        std::ostringstream json;
        json << "{\n"
             << "  \"bench\": \"fig15_million_requests\",\n"
             << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
             << "  \"scales\": [\n"
             << "    {\"devices\": " << cluster.numDevices()
             << ", \"requests_offered\": " << run.offered
             << ", \"requests_completed\": " << run.completed
             << ", \"sim_s\": " << run.simSeconds
             << ", \"wall_s\": " << run.wallSeconds
             << ", \"sim_s_per_wall_s\": " << run.simRate()
             << ", \"requests_per_wall_s\": " << run.reqRate()
             << ", \"wall_ms_per_sim_s\": "
             << 1e3 / run.simRate()
             << ", \"wall_us_per_request\": "
             << 1e6 * run.wallSeconds /
                    static_cast<double>(run.completed);
        if (compare_serial)
            json << ", \"one_thread_wall_s\": " << one.wallSeconds
                 << ", \"one_thread_sim_s_per_wall_s\": "
                 << one.simRate() << ", \"thread_speedup\": "
                 << speedup;
        json << "}\n  ]\n}\n";
        std::ofstream out(out_path);
        LAER_CHECK(out.good(), "cannot write " << out_path);
        out << json.str();
        std::cout << "wrote " << out_path << "\n";
    }
    sinks.write();

    // ---- acceptance gates ----------------------------------------------
    int rc = 0;
    if (run.completed != run.offered) {
        std::cerr << "FAIL: day did not drain ("
                  << run.completed << "/" << run.offered
                  << " completed)\n";
        rc = 1;
    }
    if (compare_serial && one.completed != one.offered) {
        std::cerr << "FAIL: one-thread arm did not drain ("
                  << one.completed << "/" << one.offered
                  << " completed)\n";
        rc = 1;
    }
    if (!quick) {
        if (run.offered < 1000000) {
            std::cerr << "FAIL: full day offered "
                      << run.offered
                      << " requests (need >= 1M)\n";
            rc = 1;
        }
        if (run.simRate() < kMinSimRate) {
            std::cerr << "FAIL: " << run.simRate()
                      << " sim-s/wall-s below the committed floor "
                      << kMinSimRate << "\n";
            rc = 1;
        }
        if (run.reqRate() < kMinReqRate) {
            std::cerr << "FAIL: " << run.reqRate()
                      << " req/wall-s below the committed floor "
                      << kMinReqRate << "\n";
            rc = 1;
        }
    } else if (run.offered < 10000) {
        std::cerr << "FAIL: quick day offered " << run.offered
                  << " requests (need >= 10k)\n";
        rc = 1;
    }
    return rc;
} catch (const laer::FatalError &err) {
    std::cerr << "fig15_million_requests: " << err.what() << "\n";
    return 2;
}
