/**
 * @file
 * Serving demo: one bursty serving run per policy on a small cluster,
 * with the latency summary and a peek at the first engine steps of
 * the LAER run. The aggregated runs carry a 12.75 GiB/device HBM
 * budget, so admission is KV-cache bound (serve/kv_cache.hh) and the
 * summary shows preemptions and pool utilization alongside the
 * latencies. The disaggregated run splits the cluster into a prefill
 * and a decode pool and additionally reports the KV bytes it moved
 * between them.
 *
 *   ./examples/serving_demo [--policy=NAME[,NAME...]] [--csv]
 *                           [obs flags]
 *
 * Policy names: StaticEP, FlexMoE, LAER, Disagg. The obs flags
 * (serve/obs_sinks.hh) record every policy's run under its name.
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/error.hh"
#include "core/table.hh"
#include "serve/obs_sinks.hh"
#include "serve/serving_sim.hh"

namespace
{

bool seed_overridden = false;
std::uint64_t seed_override = 0;
int threads_flag = 0;            // --threads; 0 = hardware concurrency
double tuner_budget_ms = 0.0;    // --tuner-budget-ms; 0 = unbudgeted

laer::ServingConfig
demoConfig(laer::ServingPolicy policy)
{
    laer::ServingConfig cfg;
    cfg.model = laer::mixtral8x7bE8K2();
    cfg.policy = policy;
    cfg.capacity = 2;
    cfg.simulatedLayers = 4;
    cfg.horizon = 10.0;
    cfg.sloTtft = 0.5;

    cfg.arrival.kind = laer::ArrivalKind::Bursty;
    cfg.arrival.ratePerSec = 30.0;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.seed = 11;

    cfg.batcher.tokenBudget = 16384;
    cfg.batcher.prefillChunk = 1024;
    if (policy == laer::ServingPolicy::Disaggregated) {
        // Each pool shards the model over half the devices, so the
        // resident state per device doubles; 25.5 GiB leaves each
        // pool a KV budget about as tight as the aggregated runs'.
        cfg.hbmPerDevice = 2 * (51LL << 30) / 4;
    } else {
        cfg.hbmPerDevice = (51LL << 30) / 4; // 12.75 GiB: tight KV pool
    }

    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.retunePeriod = 16;
    cfg.threads = threads_flag;
    cfg.tunerBudgetMs = tuner_budget_ms;
    cfg.seed = 3;
    if (seed_overridden) {
        cfg.seed = seed_override;
        cfg.arrival.seed = seed_override + 1;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace laer;

    const CliArgs args(argc, argv,
                       ObsSinks::flags({"policy", "csv", "seed",
                                        "threads", "tuner-budget-ms",
                                        "help"}));
    if (args.has("help")) {
        std::cout << "usage: serving_demo [--policy=NAME[,NAME...]] "
                     "[--csv] [--seed=N] [--threads=N] "
                     "[--tuner-budget-ms=MS] [obs flags]\n"
                     "  names: StaticEP, "
                     "FlexMoE, LAER, Disagg\n  --threads=0 uses the "
                     "hardware concurrency (results are identical "
                     "for any value)\n"
                  << ObsSinks::help();
        return 0;
    }
    const bool csv = args.has("csv");
    if (args.has("seed")) {
        seed_overridden = true;
        seed_override = args.getUint("seed", 0);
    }
    threads_flag = static_cast<int>(args.getUint("threads", 0));
    tuner_budget_ms =
        static_cast<double>(args.getUint("tuner-budget-ms", 0));

    const std::pair<const char *, ServingPolicy> policies[] = {
        {"StaticEP", ServingPolicy::StaticEp},
        {"FlexMoE", ServingPolicy::FlexMoe},
        {"LAER", ServingPolicy::LaerServe},
        {"Disagg", ServingPolicy::Disaggregated},
    };
    const std::vector<std::string> filter = args.getChoices(
        "policy", {"StaticEP", "FlexMoE", "LAER", "Disagg"});
    ObsSinks sinks(args);
    const auto selected = [&filter](const std::string &label) {
        return filter.empty() ||
               std::find(filter.begin(), filter.end(), label) !=
                   filter.end();
    };

    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    std::cout << "Cluster: " << cluster.describe() << "\n"
              << "Workload: bursty arrivals, 30 req/s mean, skewed "
                 "drifting routing\n\n";

    std::vector<std::string> budget_lines;
    Table summary("Serving policies, 10 s of traffic + drain");
    summary.setHeader({"policy", "completed", "ttft_p50_ms",
                       "ttft_p99_ms", "tpot_p50_ms", "goodput_tok/s",
                       "max_rel_tok", "preempts", "kv_peak",
                       "xfer_gib", "retunes"});
    for (const auto &[label, policy] : policies) {
        if (!selected(label))
            continue;
        ServingConfig cfg = demoConfig(policy);
        MetricsRegistry registry;
        sinks.attach(cfg, registry, label);
        ServingSimulator sim(cluster, cfg);
        const ServingReport r = sim.run();
        sinks.end(registry, label);
        summary.startRow();
        summary.cell(label);
        summary.cell(r.completed);
        summary.cell(1e3 * r.ttftP50, 1);
        summary.cell(1e3 * r.ttftP99, 1);
        summary.cell(1e3 * r.tpotP50, 2);
        summary.cell(r.goodputTps, 0);
        summary.cell(r.meanMaxRelTokens, 2);
        summary.cell(r.preemptions);
        summary.cell(r.peakKvUtilization, 2);
        summary.cell(static_cast<double>(r.kvTransferBytes) /
                         (1LL << 30),
                     2);
        summary.cell(r.retunes);
        // Planner wall-time vs budget, only when a budget was asked
        // for (keeps the default output stable).
        if (tuner_budget_ms > 0.0 && r.retunes > 0) {
            std::ostringstream line;
            line << "[" << label << "] tuner wall/retune: mean "
                 << r.retuneWallMeanMs << " ms, max "
                 << r.retuneWallMaxMs << " ms, "
                 << r.retuneBudgetOverruns << "/" << r.retunes
                 << " over the " << tuner_budget_ms << " ms budget";
            budget_lines.push_back(line.str());
        }
    }
    if (csv)
        summary.printCsv(std::cout);
    else
        summary.print(std::cout);
    // Keep --csv stdout machine-readable: wall-time summaries go to
    // stderr there.
    for (const std::string &line : budget_lines)
        (csv ? std::cerr : std::cout) << line << "\n";

    if (selected("LAER")) {
        // Narrate the first LAER engine steps.
        ServingSimulator laer_sim(cluster,
                                  demoConfig(ServingPolicy::LaerServe));
        laer_sim.run();
        Table steps("First LAER engine steps");
        steps.setHeader({"step", "t_ms", "tokens", "prefill", "decode",
                         "dur_ms", "max_rel_tok", "retuned"});
        const auto &results = laer_sim.stepResults();
        for (std::size_t i = 0; i < results.size() && i < 10; ++i) {
            const ServingStepResult &s = results[i];
            steps.startRow();
            steps.cell(static_cast<std::int64_t>(i));
            steps.cell(1e3 * s.start, 1);
            steps.cell(s.tokens);
            steps.cell(s.prefill);
            steps.cell(s.decode);
            steps.cell(1e3 * s.duration, 2);
            steps.cell(s.maxRelTokens, 2);
            steps.cell(s.retuned ? "yes" : "");
        }
        if (csv)
            steps.printCsv(std::cout);
        else
            steps.print(std::cout);
    }
    sinks.write();
    return 0;
} catch (const laer::FatalError &err) {
    std::cerr << "serving_demo: " << err.what() << "\n";
    return 2;
}
