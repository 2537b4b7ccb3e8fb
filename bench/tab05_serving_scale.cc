/**
 * @file
 * Tab. 5 (extends Tab. 4 / Appendix D) — planner/serving hot-path
 * scalability at 128-1024 devices, and the tuner wall-time budget.
 *
 * Two comparisons per cluster size, on the Mixtral-8x7B-e8k2 layer
 * constants:
 *
 *  1. Serving-step pricing: the dense path (liteRouting's N x E x N
 *     plan -> dense dispatch/combine VolumeMatrix ->
 *     a2aBottleneckTime -> receivedTokens) vs the serving engine's
 *     path (liteRoutingLoads against a cached ReplicaIndex: received
 *     tokens and per-device port loads, no plan). The priced times
 *     are asserted bit-identical; only wall time differs.
 *  2. A full per-step retune (simulatedLayers independent layer
 *     tunes): dense serial scoring (timeCost over the materialised
 *     dense plan per scheme, plus the dense winner plan — the
 *     formulation before the fused scorer) vs the sparse+parallel
 *     tuner (scoreLiteRouting + ThreadPool fan-out, no dense
 *     plan).
 *
 * The dense arms run the reference formulations of the test oracle
 * (tests/oracle/dense_plan.hh), which is why this bench links
 * laer_oracle.
 *
 * Then a real ServingSimulator run per scale (LAER policy,
 * --threads workers) records the solver wall time of every retune
 * against --tuner-budget-ms, as reported in ServingReport.
 *
 * Results land in BENCH_tab04.json (see --out) so CI can track the
 * perf trajectory (scripts/bench_diff.py). At >= 512 devices the
 * sparse+parallel arms must be >= 10x faster than the dense serial
 * arms or the bench exits non-zero.
 *
 * The serving runs self-profile: a per-scale wall-time breakdown
 * (step pricing vs retune solver vs event loop) prints at exit and
 * lands in the JSON, answering "where does the wall time go at 1024
 * devices". The trace and metrics flags (serve/obs_sinks.hh) record
 * the serving runs, snapshotted every 0.5 s.
 *
 *   ./tab05_serving_scale [--quick] [--devices=128,256,...]
 *       [--threads=N] [--tuner-budget-ms=MS] [--out=PATH] [--csv]
 *       [--trace-out=FILE] [--metrics-out=FILE]
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "comm/collectives.hh"
#include "core/cli.hh"
#include "core/error.hh"
#include "core/rng.hh"
#include "core/table.hh"
#include "difftest/diff.hh"
#include "core/thread_pool.hh"
#include "model/config.hh"
#include "oracle/dense_plan.hh"
#include "planner/cost_model.hh"
#include "planner/layout_tuner.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"
#include "serve/obs_sinks.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Skewed routing matrix with `tokens_per_device` routed per source. */
laer::RoutingMatrix
makeRouting(int n_devices, int n_experts, laer::TokenCount tokens,
            std::uint64_t seed)
{
    laer::Rng rng(seed);
    laer::RoutingMatrix r(n_devices, n_experts);
    const auto pop = rng.dirichlet(n_experts, 0.3);
    for (laer::DeviceId d = 0; d < n_devices; ++d) {
        const auto counts = rng.multinomial(tokens, pop);
        for (laer::ExpertId j = 0; j < n_experts; ++j)
            r.at(d, j) = counts[j];
    }
    return r;
}

/** One scale's measurements (milliseconds are wall-clock). */
struct ScaleResult
{
    int devices = 0;
    double stepDenseMs = 0.0;
    double stepSparseMs = 0.0;
    double retuneDenseMs = 0.0;
    double retuneSparseMs = 0.0;
    int serveSteps = 0;
    int serveRetunes = 0;
    double serveRetuneMeanMs = 0.0;
    double serveRetuneMaxMs = 0.0;
    int serveOverruns = 0;
    double profStepPricingMs = 0.0; //!< executeStep wall minus retunes
    double profRetuneMs = 0.0;      //!< retune solver wall
    double profEventLoopMs = 0.0;   //!< simulator bookkeeping wall

    double stepSpeedup() const { return stepDenseMs / stepSparseMs; }
    double retuneSpeedup() const
    {
        return retuneDenseMs / retuneSparseMs;
    }
};

/** The tuner's Alg. 2 scheme set, reproduced for the dense arm. */
std::vector<std::vector<int>>
schemeSet(const std::vector<laer::TokenCount> &loads, int n_devices,
          const laer::TunerConfig &config)
{
    std::vector<std::vector<int>> set;
    set.push_back(
        laer::replicaAllocation(loads, n_devices, config.capacity));
    set.push_back(
        laer::evenAllocation(loads, n_devices, config.capacity));
    laer::Rng rng(config.seed);
    while (static_cast<int>(set.size()) < config.setSize) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(set.size()) - 1));
        set.push_back(
            laer::perturbAllocation(set[pick], rng, n_devices));
    }
    return set;
}

/** Dense serial layer tune: every scheme scored by materialising the
 * dense plan and running timeCost over it; the winner's dense plan is
 * built — the pre-fused-scorer formulation of Alg. 2. */
laer::ExpertLayout
tuneLayerDense(const laer::Cluster &cluster,
               const laer::RoutingMatrix &routing,
               const laer::TunerConfig &config)
{
    const std::vector<laer::TokenCount> loads = routing.expertLoads();
    const auto set = schemeSet(loads, cluster.numDevices(), config);
    laer::ExpertLayout best;
    laer::Seconds best_cost = 0.0;
    bool have_best = false;
    for (const auto &replicas : set) {
        laer::ExpertLayout layout = laer::expertRelocation(
            cluster, replicas, loads, config.capacity);
        const laer::RoutingPlan plan =
            laer::liteRouting(cluster, routing, layout);
        const laer::Seconds cost =
            laer::timeCost(cluster, config.cost, plan).total();
        if (!have_best || cost < best_cost) {
            best = layout;
            best_cost = cost;
            have_best = true;
        }
    }
    // The serving engine needs S for the winner under this
    // formulation: materialise it.
    const laer::RoutingPlan winner_plan =
        laer::liteRouting(cluster, routing, best);
    (void)winner_plan;
    return best;
}

/** Dense serving-step pricing of one layer (the pre-sparse
 * ServingEngine::executeStep inner loop). */
struct LayerPrice
{
    laer::Seconds dispatch = 0.0;
    laer::Seconds combine = 0.0;
    std::vector<laer::TokenCount> recv;
};

LayerPrice
priceLayerDense(const laer::Cluster &cluster,
                const laer::RoutingMatrix &routing,
                const laer::ExpertLayout &layout, laer::Bytes token_bytes)
{
    const laer::RoutingPlan plan =
        laer::liteRouting(cluster, routing, layout);
    const laer::VolumeMatrix vol = laer::dispatchVolume(plan, token_bytes);
    const laer::VolumeMatrix combine = laer::transposeVolume(vol);
    LayerPrice price;
    price.dispatch = laer::kCollectiveAlpha +
                     laer::a2aBottleneckTime(cluster, vol);
    price.combine = laer::kCollectiveAlpha +
                    laer::a2aBottleneckTime(cluster, combine);
    price.recv = laer::receivedTokens(plan);
    return price;
}

LayerPrice
priceLayerSparse(const laer::Cluster &cluster,
                 const laer::RoutingMatrix &routing,
                 const laer::ReplicaIndex &index,
                 laer::Bytes token_bytes,
                 laer::LiteRoutingScratch &scratch,
                 laer::A2aPortLoads &load_scratch)
{
    LayerPrice price;
    laer::liteRoutingLoads(cluster, routing, index, token_bytes, scratch,
                           price.recv, load_scratch);
    price.dispatch =
        laer::kCollectiveAlpha +
        laer::a2aBottleneckTimeFromLoads(cluster, load_scratch);
    price.combine = laer::kCollectiveAlpha +
                    laer::a2aBottleneckTimeFromLoads(cluster,
                                                     load_scratch,
                                                     /*transpose=*/true);
    return price;
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace laer;

    const CliArgs args(argc, argv,
                       ObsSinks::flags({"quick", "devices", "threads",
                                        "tuner-budget-ms", "out", "csv",
                                        "help"},
                                       /*slo_report=*/false));
    if (args.has("help")) {
        std::cout
            << "usage: tab05_serving_scale [--quick] "
               "[--devices=128,256,...] [--threads=N] "
               "[--tuner-budget-ms=MS] [--out=PATH] [--csv] "
               "[obs flags]\n"
               "  --threads defaults to the hardware concurrency;\n"
               "  results are identical for any thread count.\n"
            << ObsSinks::help(/*slo_report=*/false);
        return 0;
    }
    const bool quick = args.has("quick");
    const bool csv = args.has("csv");
    const int threads = static_cast<int>(
        args.getUint("threads", 0)); // 0 = hardware concurrency
    const double budget_ms = args.getDouble("tuner-budget-ms", 30.0);
    const std::string out_path = args.get("out", "BENCH_tab04.json");
    ObsSinks sinks(args);

    std::vector<int> scales;
    if (args.has("devices")) {
        for (const std::string &item : args.getList("devices"))
            scales.push_back(static_cast<int>(std::stoul(item)));
    } else if (quick) {
        scales = {128, 256};
    } else {
        scales = {128, 256, 512, 1024};
    }

    const ModelConfig model = mixtral8x7bE8K2();
    const int capacity = 2;
    const int layers = 4; // simulated MoE layers per step
    ThreadPool pool(threads);

    TunerConfig tuner;
    tuner.capacity = capacity;
    tuner.cost.commBytesPerToken = model.tokenBytes();
    tuner.cost.compFlopsPerToken = model.expertFlopsPerToken();

    std::cout << "tab05: planner/serving hot path, "
              << pool.numThreads() << " thread(s), retune budget "
              << budget_ms << " ms\n\n";

    std::vector<ScaleResult> results;
    for (const int gpus : scales) {
        LAER_CHECK(gpus % 8 == 0, "device counts must be multiples "
                                  "of 8 (8-GPU nodes)");
        const Cluster cluster = Cluster::a100(gpus / 8, 8);
        ScaleResult res;
        res.devices = gpus;

        // ---- serving-step pricing: dense vs sparse ------------------
        // A serving-sized step: the fig13 token budget spread over
        // the cluster, skewed gating.
        const TokenCount step_tokens =
            std::max<TokenCount>(1, 16384 / gpus);
        const RoutingMatrix step_routing = makeRouting(
            gpus, model.numExperts, step_tokens,
            static_cast<std::uint64_t>(gpus));
        // Aggregated-window routing the tuner sees (fig11 load).
        const RoutingMatrix agg_routing = makeRouting(
            gpus, model.numExperts, 16384 * 2,
            static_cast<std::uint64_t>(gpus) + 1);
        const ExpertLayout layout =
            tuneExpertLayout(cluster, agg_routing, tuner).layout;

        const int step_reps = gpus >= 512 ? 3 : 10;
        {
            // Parity check once, then timed repetitions.
            const LayerPrice dense = priceLayerDense(
                cluster, step_routing, layout, model.tokenBytes());
            const ReplicaIndex index(cluster, layout);
            laer::LiteRoutingScratch scratch;
            A2aPortLoads load_scratch;
            const LayerPrice sparse = priceLayerSparse(
                cluster, step_routing, index, model.tokenBytes(),
                scratch, load_scratch);
            // Bit-identity through the diff harness: a divergence
            // names the first differing quantity with both values.
            laer::SnapshotStream dense_stream, sparse_stream;
            laer::CounterSnapshot ds, ss;
            ds.simTime = ss.simTime = static_cast<double>(gpus);
            ds.values = {{"dispatch_s", dense.dispatch},
                         {"combine_s", dense.combine}};
            ss.values = {{"dispatch_s", sparse.dispatch},
                         {"combine_s", sparse.combine}};
            for (std::size_t d = 0; d < dense.recv.size(); ++d)
                if (dense.recv[d] != sparse.recv[d]) {
                    ds.values.push_back(
                        {"recv." + std::to_string(d),
                         static_cast<double>(dense.recv[d])});
                    ss.values.push_back(
                        {"recv." + std::to_string(d),
                         static_cast<double>(sparse.recv[d])});
                }
            dense_stream.snapshots.push_back(std::move(ds));
            sparse_stream.snapshots.push_back(std::move(ss));
            const laer::DiffReport parity =
                diffStreams(dense_stream, sparse_stream);
            LAER_CHECK(parity.identical() &&
                           dense.recv.size() == sparse.recv.size(),
                       "sparse step pricing diverged from dense at "
                           << gpus << " devices\n"
                           << parity.toText());

            Clock::time_point t0 = Clock::now();
            for (int rep = 0; rep < step_reps; ++rep)
                for (int l = 0; l < layers; ++l)
                    priceLayerDense(cluster, step_routing, layout,
                                    model.tokenBytes());
            res.stepDenseMs = msSince(t0) / step_reps;

            t0 = Clock::now();
            for (int rep = 0; rep < step_reps; ++rep)
                for (int l = 0; l < layers; ++l)
                    priceLayerSparse(cluster, step_routing, index,
                                     model.tokenBytes(), scratch,
                                     load_scratch);
            res.stepSparseMs = msSince(t0) / step_reps;
        }

        // ---- retune: dense serial vs sparse+parallel ----------------
        {
            std::vector<RoutingMatrix> layer_routing;
            for (int l = 0; l < layers; ++l)
                layer_routing.push_back(makeRouting(
                    gpus, model.numExperts, 16384 * 2,
                    static_cast<std::uint64_t>(gpus) + 100 +
                        static_cast<std::uint64_t>(l)));

            Clock::time_point t0 = Clock::now();
            for (int l = 0; l < layers; ++l)
                tuneLayerDense(cluster, layer_routing[
                                   static_cast<std::size_t>(l)],
                               tuner);
            res.retuneDenseMs = msSince(t0);

            TunerConfig fast = tuner;
            fast.pool = &pool;
            t0 = Clock::now();
            pool.parallelFor(layers, [&](int l) {
                tuneExpertLayout(cluster,
                                 layer_routing[
                                     static_cast<std::size_t>(l)],
                                 fast);
            });
            res.retuneSparseMs = msSince(t0);
        }

        // ---- serving simulator at scale -----------------------------
        {
            ServingConfig cfg;
            cfg.model = model;
            cfg.policy = ServingPolicy::LaerServe;
            cfg.capacity = capacity;
            cfg.simulatedLayers = layers;
            cfg.horizon = quick ? 1.0 : 2.0;
            cfg.arrival.ratePerSec = 40.0;
            cfg.arrival.meanPrefillTokens = 512;
            cfg.arrival.meanDecodeTokens = 64;
            cfg.arrival.seed = 7;
            cfg.batcher.tokenBudget = 16384;
            cfg.batcher.maxRunning = 512;
            cfg.routing.skew = 1.2;
            cfg.routing.drift = 0.98;
            cfg.retunePeriod = 16;
            cfg.tuner = tuner;
            cfg.threads = threads;
            cfg.tunerBudgetMs = budget_ms;
            cfg.seed = 5;
            cfg.selfProfile = true;
            std::ostringstream label;
            label << "tab05@" << gpus;
            MetricsRegistry registry;
            sinks.attach(cfg, registry, label.str());
            if (cfg.metricsRegistry != nullptr)
                cfg.snapshotInterval = 0.5; // runs last only 1-2 s
            ServingSimulator sim(cluster, cfg);
            const ServingReport report = sim.run();
            sinks.end(registry, label.str());
            res.serveSteps = report.steps;
            res.serveRetunes = report.retunes;
            res.serveRetuneMeanMs = report.retuneWallMeanMs;
            res.serveRetuneMaxMs = report.retuneWallMaxMs;
            res.serveOverruns = report.retuneBudgetOverruns;
            res.profStepPricingMs = report.profStepPricingMs;
            res.profRetuneMs = report.profRetuneMs;
            res.profEventLoopMs = report.profEventLoopMs;
        }

        results.push_back(res);
    }

    Table table("Tab. 5 — hot-path wall time vs cluster scale "
                "(dense serial vs sparse+parallel)");
    table.setHeader({"GPUs", "step_dense_ms", "step_sparse_ms",
                     "step_x", "retune_dense_ms", "retune_sparse_ms",
                     "retune_x", "serve_retunes", "serve_mean_ms",
                     "serve_max_ms", "over_budget"});
    for (const ScaleResult &r : results) {
        table.startRow();
        table.cell(r.devices);
        table.cell(r.stepDenseMs, 3);
        table.cell(r.stepSparseMs, 3);
        table.cell(r.stepSpeedup(), 1);
        table.cell(r.retuneDenseMs, 2);
        table.cell(r.retuneSparseMs, 2);
        table.cell(r.retuneSpeedup(), 1);
        table.cell(r.serveRetunes);
        table.cell(r.serveRetuneMeanMs, 2);
        table.cell(r.serveRetuneMaxMs, 2);
        table.cell(r.serveOverruns);
    }
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    // ---- BENCH_tab04.json ----------------------------------------------
    {
        std::ostringstream json;
        json << "{\n"
             << "  \"bench\": \"tab05_serving_scale\",\n"
             << "  \"threads\": " << pool.numThreads() << ",\n"
             << "  \"budget_ms\": " << budget_ms << ",\n"
             << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
             << "  \"scales\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ScaleResult &r = results[i];
            json << "    {\"devices\": " << r.devices
                 << ", \"step_dense_ms\": " << r.stepDenseMs
                 << ", \"step_sparse_ms\": " << r.stepSparseMs
                 << ", \"step_speedup\": " << r.stepSpeedup()
                 << ", \"retune_dense_ms\": " << r.retuneDenseMs
                 << ", \"retune_sparse_ms\": " << r.retuneSparseMs
                 << ", \"retune_speedup\": " << r.retuneSpeedup()
                 << ", \"serve_steps\": " << r.serveSteps
                 << ", \"serve_retunes\": " << r.serveRetunes
                 << ", \"serve_retune_wall_mean_ms\": "
                 << r.serveRetuneMeanMs
                 << ", \"serve_retune_wall_max_ms\": "
                 << r.serveRetuneMaxMs
                 << ", \"budget_overruns\": " << r.serveOverruns
                 << ", \"profile_step_pricing_ms\": "
                 << r.profStepPricingMs
                 << ", \"profile_retune_ms\": " << r.profRetuneMs
                 << ", \"profile_event_loop_ms\": "
                 << r.profEventLoopMs << "}"
                 << (i + 1 < results.size() ? "," : "") << "\n";
        }
        json << "  ]\n}\n";
        std::ofstream out(out_path);
        LAER_CHECK(out.good(), "cannot write " << out_path);
        out << json.str();
        std::cout << "\nwrote " << out_path << "\n";
    }

    sinks.write();

    // Where the serving run's wall time went, per scale: step pricing
    // (engine executeStep minus the solver), the retune solver, and
    // the event loop / bookkeeping around them.
    for (const ScaleResult &r : results)
        std::cout << "serve wall breakdown @" << r.devices
                  << ": step pricing "
                  << static_cast<long long>(r.profStepPricingMs)
                  << " ms, retune "
                  << static_cast<long long>(r.profRetuneMs)
                  << " ms, event loop "
                  << static_cast<long long>(r.profEventLoopMs)
                  << " ms\n";

    // ---- acceptance guards ---------------------------------------------
    int rc = 0;
    for (const ScaleResult &r : results) {
        if (r.serveRetunes == 0) {
            std::cerr << "FAIL: serving run at " << r.devices
                      << " devices never retuned\n";
            rc = 1;
        }
        if (r.devices < 512)
            continue;
        if (r.stepSpeedup() < 10.0) {
            std::cerr << "FAIL: step-pricing speedup "
                      << r.stepSpeedup() << "x at " << r.devices
                      << " devices (need >= 10x)\n";
            rc = 1;
        }
        if (r.retuneSpeedup() < 10.0) {
            std::cerr << "FAIL: retune speedup " << r.retuneSpeedup()
                      << "x at " << r.devices
                      << " devices (need >= 10x)\n";
            rc = 1;
        }
    }
    return rc;
} catch (const laer::FatalError &err) {
    std::cerr << "tab05_serving_scale: " << err.what() << "\n";
    return 2;
}
