/**
 * @file
 * Fig. 15 (new) — event-core throughput on a scaled diurnal day.
 *
 * One serving scenario sized so the full run offers >= 1M requests:
 * a sinusoidal "day" of Diurnal arrivals against a replica-sliced
 * cluster, Streaming metrics mode (bounded observability memory),
 * sparse routing draws on drain steps, and the windowed share-nothing
 * event core (ServingConfig::desParallel) fanned over --threads
 * workers. The figure of merit is the simulation rate:
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
 * --compare-serial re-runs the identical scenario on the classic
 * per-event serial core and records the windowed core's speedup —
 * the number quoted in docs/PERF.md. Every arm that runs must drain
 * the whole day (completed == offered) or the bench exits non-zero.
 * --trace-out writes one
 * Chrome/Perfetto trace of the run(s), tracks keyed by arm
 * ("windowed/", "serial/"); --metrics-out appends each arm's 1 s
 * counter snapshots as JSONL keyed the same way.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/error.hh"
#include "model/config.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace
{

using Clock = std::chrono::steady_clock;

/** Shared obs sinks (set from --trace-out/--metrics-out; both off by
 * default so the perf-gated run stays untouched). */
laer::TraceRecorder *trace_recorder = nullptr;
std::string metrics_path;

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
dayConfig(bool quick, int threads, bool windowed)
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
    cfg.desParallel = windowed;

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

    // Near-empty drain steps skip their Dirichlet draws entirely.
    cfg.routing.sparseDraw = true;
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    return cfg;
}

ArmResult
runArm(const laer::Cluster &cluster, laer::ServingConfig cfg,
       laer::MetricsRegistry &registry, const std::string &label)
{
    // Streaming metrics mode: bounded sample memory over a
    // million-request day, snapshotted at a coarse cadence (the
    // snapshot boundary also bounds the windowed core's windows).
    cfg.metricsRegistry = &registry;
    cfg.metricsMode = laer::MetricsMemoryMode::Streaming;
    cfg.snapshotInterval = 1.0;
    if (trace_recorder != nullptr) {
        cfg.trace = trace_recorder;
        cfg.obsLabel = label;
    }

    const Clock::time_point t0 = Clock::now();
    laer::ServingSimulator sim(cluster, cfg);
    const laer::ServingReport report = sim.run();
    ArmResult res;
    res.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    res.offered = report.offered;
    res.completed = report.completed;
    res.simSeconds = report.elapsed;
    if (!metrics_path.empty())
        registry.appendJsonlFile(metrics_path, label);
    return res;
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace laer;

    const CliArgs args(argc, argv,
                       {"quick", "threads", "compare-serial", "out",
                        "trace-out", "metrics-out", "help"});
    if (args.has("help")) {
        std::cout << "usage: fig15_million_requests [--quick] "
                     "[--threads=N] [--compare-serial] [--out=PATH] "
                     "[--trace-out=FILE] [--metrics-out=FILE]\n"
                     "  full mode runs the >= 1M-request day and "
                     "enforces the committed rate floors;\n"
                     "  --quick shrinks the day for CI smoke "
                     "(floors skipped).\n"
                     "  --trace-out   write a Chrome/Perfetto trace "
                     "of the run(s), tracks keyed by arm\n"
                     "  --metrics-out append per-arm JSONL counter "
                     "snapshots (1 s cadence)\n";
        return 0;
    }
    const bool quick = args.has("quick");
    const bool compare_serial = args.has("compare-serial");
    const int threads =
        static_cast<int>(args.getUint("threads", 0)); // 0 = hardware
    const std::string out_path = args.get("out", "BENCH_fig15.json");
    const std::string trace_out = args.get("trace-out");
    std::unique_ptr<TraceRecorder> recorder;
    if (!trace_out.empty()) {
        recorder = std::make_unique<TraceRecorder>();
        trace_recorder = recorder.get();
    }
    metrics_path = args.get("metrics-out");
    if (!metrics_path.empty())
        std::ofstream(metrics_path, std::ios::trunc);

    const int nodes = 8;
    const Cluster cluster = Cluster::a100(nodes, 8);

    std::cout << "fig15: " << (quick ? "quick" : "full")
              << " diurnal day on " << cluster.numDevices()
              << " devices (" << nodes << " replica slices)\n";

    MetricsRegistry registry;
    const ArmResult windowed =
        runArm(cluster, dayConfig(quick, threads, /*windowed=*/true),
               registry, "windowed");

    std::cout << "windowed core: " << windowed.completed << "/"
              << windowed.offered << " requests over "
              << windowed.simSeconds << " sim s in "
              << windowed.wallSeconds << " wall s\n"
              << "  " << windowed.simRate() << " sim-s/wall-s, "
              << windowed.reqRate() << " req/wall-s\n";

    ArmResult serial;
    // serial wall / windowed wall: above 1 when the windowed core is
    // the faster one. Stdout and the JSON print it the same way.
    double speedup = 0.0;
    if (compare_serial) {
        MetricsRegistry serial_registry;
        serial = runArm(cluster,
                        dayConfig(quick, threads, /*windowed=*/false),
                        serial_registry, "serial");
        speedup = serial.wallSeconds / windowed.wallSeconds;
        std::cout << "serial core:   " << serial.completed << "/"
                  << serial.offered << " requests in "
                  << serial.wallSeconds << " wall s ("
                  << serial.simRate() << " sim-s/wall-s); windowed "
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
             << ", \"requests_offered\": " << windowed.offered
             << ", \"requests_completed\": " << windowed.completed
             << ", \"sim_s\": " << windowed.simSeconds
             << ", \"wall_s\": " << windowed.wallSeconds
             << ", \"sim_s_per_wall_s\": " << windowed.simRate()
             << ", \"requests_per_wall_s\": " << windowed.reqRate()
             << ", \"wall_ms_per_sim_s\": "
             << 1e3 / windowed.simRate()
             << ", \"wall_us_per_request\": "
             << 1e6 * windowed.wallSeconds /
                    static_cast<double>(windowed.completed);
        if (compare_serial)
            json << ", \"serial_wall_s\": " << serial.wallSeconds
                 << ", \"serial_sim_s_per_wall_s\": "
                 << serial.simRate() << ", \"windowed_speedup\": "
                 << speedup;
        json << "}\n  ]\n}\n";
        std::ofstream out(out_path);
        LAER_CHECK(out.good(), "cannot write " << out_path);
        out << json.str();
        std::cout << "wrote " << out_path << "\n";
    }
    if (recorder) {
        recorder->writeFile(trace_out);
        std::cout << "wrote " << trace_out << "\n";
    }

    // ---- acceptance gates ----------------------------------------------
    int rc = 0;
    if (windowed.completed != windowed.offered) {
        std::cerr << "FAIL: day did not drain ("
                  << windowed.completed << "/" << windowed.offered
                  << " completed)\n";
        rc = 1;
    }
    if (compare_serial && serial.completed != serial.offered) {
        std::cerr << "FAIL: serial core did not drain ("
                  << serial.completed << "/" << serial.offered
                  << " completed)\n";
        rc = 1;
    }
    if (!quick) {
        if (windowed.offered < 1000000) {
            std::cerr << "FAIL: full day offered "
                      << windowed.offered
                      << " requests (need >= 1M)\n";
            rc = 1;
        }
        if (windowed.simRate() < kMinSimRate) {
            std::cerr << "FAIL: " << windowed.simRate()
                      << " sim-s/wall-s below the committed floor "
                      << kMinSimRate << "\n";
            rc = 1;
        }
        if (windowed.reqRate() < kMinReqRate) {
            std::cerr << "FAIL: " << windowed.reqRate()
                      << " req/wall-s below the committed floor "
                      << kMinReqRate << "\n";
            rc = 1;
        }
    } else if (windowed.offered < 10000) {
        std::cerr << "FAIL: quick day offered " << windowed.offered
                  << " requests (need >= 10k)\n";
        rc = 1;
    }
    return rc;
} catch (const laer::FatalError &err) {
    std::cerr << "fig15_million_requests: " << err.what() << "\n";
    return 2;
}
