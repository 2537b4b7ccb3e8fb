/**
 * @file
 * Fig. 13 (serving extension) — throughput-latency curve,
 * memory-pressure sweep, and prefill/decode disaggregation sweep of
 * the continuous-batching MoE serving simulator.
 *
 * Part 1 sweeps the offered load (requests/s) of a bursty arrival
 * stream with skewed, drifting expert routing, and reports per
 * policy: p50/p99 TTFT, p50 TPOT, decode throughput, and
 * SLO-conditioned goodput (decode tokens of requests whose TTFT met
 * the target). Expected shape: all policies coincide at low load; as
 * the offered load approaches the knee, StaticEP's hot-expert
 * stragglers stretch step times and its p99 TTFT collapses first,
 * while LAER's async re-tuning keeps expert loads near-balanced and
 * sustains higher goodput at the same p99 TTFT. FlexMoE lands in
 * between: it adapts, but pays migration time on the serving
 * critical path.
 *
 * Part 2 fixes the load at the knee and sweeps the per-device HBM
 * budget instead: the KV-cache pool (HBM minus model state minus
 * activation reserve, serve/kv_cache.hh) shrinks along the x-axis,
 * so admission throttles and recompute-style preemptions appear.
 * Expected shape: with ample HBM the policies match Part 1; as the
 * pool tightens, preemption recompute work inflates every policy's
 * step times, and the policies' goodput converges — memory pressure,
 * not expert placement, becomes the binding constraint.
 *
 * Part 3 splits the cluster into a prefill and a decode pool
 * (ServingPolicy::Disaggregated) and sweeps the offered load under a
 * fixed HBM budget, comparing the aggregated LAER engine against
 * per-pool LAER tuning and against one shared layout tuned from the
 * combined traffic. Per-pool KV utilization, the KV bytes transferred
 * between the pools, and the transfer-stall time (contexts blocked at
 * the decode pool's door) are reported alongside the latencies.
 *
 * Flags: `--policy=NAME[,NAME...]` restricts every sweep to the named
 * policies (StaticEP, FlexMoE, LAER, Disagg, DisaggShared); `--csv`
 * emits the tables as CSV for machine consumption; the obs flags
 * (serve/obs_sinks.hh) record every sweep point under a
 * sweep/policy@point label.
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/error.hh"
#include "core/table.hh"
#include "serve/kv_cache.hh"
#include "serve/obs_sinks.hh"
#include "serve/serving_sim.hh"

namespace
{

/** One policy column of the sweeps: an expert-placement policy, or a
 * disaggregation variant. */
struct PolicyVariant
{
    const char *label;
    laer::ServingPolicy policy;
    bool sharedLayout; //!< Disaggregated only
};

constexpr PolicyVariant kStaticEp = {
    "StaticEP", laer::ServingPolicy::StaticEp, false};
constexpr PolicyVariant kFlexMoe = {
    "FlexMoE", laer::ServingPolicy::FlexMoe, false};
constexpr PolicyVariant kLaer = {
    "LAER", laer::ServingPolicy::LaerServe, false};
constexpr PolicyVariant kDisagg = {
    "Disagg", laer::ServingPolicy::Disaggregated, false};
constexpr PolicyVariant kDisaggShared = {
    "DisaggShared", laer::ServingPolicy::Disaggregated, true};

bool csv_output = false;
std::vector<std::string> policy_filter;
bool seed_overridden = false;
std::uint64_t seed_override = 0;
/** True when the variant survives the --policy filter. */
bool
selected(const PolicyVariant &v)
{
    return policy_filter.empty() ||
           std::find(policy_filter.begin(), policy_filter.end(),
                     v.label) != policy_filter.end();
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
servingConfig(const PolicyVariant &variant, double rate)
{
    laer::ServingConfig cfg;
    cfg.model = laer::mixtral8x7bE8K2();
    cfg.policy = variant.policy;
    cfg.disagg.sharedLayout = variant.sharedLayout;
    cfg.capacity = 2;
    cfg.simulatedLayers = 4;
    cfg.horizon = 20.0;
    cfg.sloTtft = 0.5;

    cfg.arrival.kind = laer::ArrivalKind::Bursty;
    cfg.arrival.ratePerSec = rate;
    cfg.arrival.burstFactor = 4.0;
    cfg.arrival.burstFraction = 0.15;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.seed = 2024;

    cfg.batcher.tokenBudget = 16384;
    cfg.batcher.prefillChunk = 1024;

    // Skewed, drifting routing: the regime the planner exists for.
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.routing.deviceJitter = 0.15;
    cfg.retunePeriod = 16;
    cfg.seed = 7;
    if (seed_overridden) {
        cfg.seed = seed_override;
        cfg.arrival.seed = seed_override + 1;
    }
    return cfg;
}

/** Part 2 — fixed near-knee load, per-device HBM on the x-axis. */
void
kvBudgetSweep(const laer::Cluster &cluster, laer::ObsSinks &sinks)
{
    const double hbm_gib[] = {7.2, 8.0, 10.0, 14.0};
    const PolicyVariant policies[] = {kStaticEp, kFlexMoe, kLaer};

    laer::Table table(
        "Fig. 13b — KV-cache memory-pressure sweep (" +
        cluster.describe() +
        ", 60 req/s bursty, TTFT SLO 500 ms, KV pool = HBM - model "
        "state - activations)");
    table.setHeader({"hbm_gib", "kv_pool_gib", "policy", "ttft_p99_ms",
                     "tpot_p50_ms", "goodput_tok/s", "preempts",
                     "kv_peak", "kv_mean", "done"});

    for (const double gib : hbm_gib) {
        for (const PolicyVariant &policy : policies) {
            if (!selected(policy))
                continue;
            laer::ServingConfig cfg = servingConfig(policy, 60.0);
            cfg.hbmPerDevice =
                static_cast<laer::Bytes>(gib * (1LL << 30));
            std::ostringstream label;
            label << "13b/" << policy.label << "@" << gib << "GiB";
            laer::MetricsRegistry registry;
            sinks.attach(cfg, registry, label.str());
            laer::ServingSimulator sim(cluster, cfg);
            const laer::ServingReport r = sim.run();
            sinks.end(registry, label.str());
            table.startRow();
            table.cell(gib, 1);
            table.cell(static_cast<double>(r.kvBudgetBytes) /
                           cluster.numDevices() / (1LL << 30),
                       2);
            table.cell(policy.label);
            table.cell(1e3 * r.ttftP99, 1);
            table.cell(1e3 * r.tpotP50, 2);
            table.cell(r.goodputTps, 0);
            table.cell(r.preemptions);
            table.cell(r.peakKvUtilization, 2);
            table.cell(r.meanKvUtilization, 2);
            table.cell(r.completed);
        }
    }
    if (table.rowCount() > 0)
        emit(table);
}

/** Part 3 — prefill/decode disaggregation sweep: aggregated LAER vs
 * per-pool LAER tuning vs one shared layout, under a fixed HBM
 * budget. */
void
disaggSweep(const laer::Cluster &cluster, laer::ObsSinks &sinks)
{
    const double rates[] = {40.0, 60.0};
    const PolicyVariant policies[] = {kLaer, kDisagg, kDisaggShared};
    const double hbm_gib = 16.0;

    laer::Table table(
        "Fig. 13c — prefill/decode disaggregation sweep (" +
        cluster.describe() +
        ", 16 GiB HBM/device, bursty arrivals, TTFT SLO 500 ms)");
    table.setHeader({"req/s", "policy", "ttft_p50_ms", "ttft_p99_ms",
                     "tpot_p50_ms", "goodput_tok/s", "kv_peak_pre",
                     "kv_peak_dec", "xfer_gib", "stall_ms", "preempts",
                     "done"});

    double good_per_pool = 0.0, good_shared = 0.0;
    for (const double rate : rates) {
        for (const PolicyVariant &policy : policies) {
            if (!selected(policy))
                continue;
            laer::ServingConfig cfg = servingConfig(policy, rate);
            cfg.hbmPerDevice =
                static_cast<laer::Bytes>(hbm_gib * (1LL << 30));
            std::ostringstream label;
            label << "13c/" << policy.label << "@" << rate;
            laer::MetricsRegistry registry;
            sinks.attach(cfg, registry, label.str());
            laer::ServingSimulator sim(cluster, cfg);
            const laer::ServingReport r = sim.run();
            sinks.end(registry, label.str());
            table.startRow();
            table.cell(rate, 0);
            table.cell(policy.label);
            table.cell(1e3 * r.ttftP50, 1);
            table.cell(1e3 * r.ttftP99, 1);
            table.cell(1e3 * r.tpotP50, 2);
            table.cell(r.goodputTps, 0);
            if (r.pools.size() == 2) {
                table.cell(r.pools[0].peakKvUtilization, 2);
                table.cell(r.pools[1].peakKvUtilization, 2);
            } else {
                table.cell(r.peakKvUtilization, 2);
                table.cell("-");
            }
            table.cell(static_cast<double>(r.kvTransferBytes) /
                           (1LL << 30),
                       2);
            table.cell(1e3 * r.transferStallSeconds, 1);
            table.cell(r.preemptions);
            table.cell(r.completed);

            if (policy.policy == laer::ServingPolicy::Disaggregated) {
                double &best = policy.sharedLayout ? good_shared
                                                   : good_per_pool;
                best = std::max(best, r.goodputTps);
            }
        }
    }
    if (table.rowCount() == 0)
        return;
    emit(table);
    if (good_per_pool > 0.0 && good_shared > 0.0)
        std::cout << "disaggregation layout tuning: per-pool LAER "
                  << static_cast<long long>(good_per_pool)
                  << " tok/s vs shared layout "
                  << static_cast<long long>(good_shared)
                  << " tok/s best goodput\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    const laer::CliArgs args(
        argc, argv,
        laer::ObsSinks::flags({"policy", "csv", "seed", "help"}));
    if (args.has("help")) {
        std::cout
            << "usage: fig13_serving [--policy=NAME[,NAME...]] [--csv] "
               "[--seed=N] [obs flags]\n"
               "  --policy      run only the named policies; names: "
               "StaticEP, FlexMoE, LAER, Disagg, DisaggShared\n"
               "  --csv         emit tables as CSV\n"
               "  --seed        routing/arrival seed base (default: "
               "the paper sweep's 7/2024)\n"
            << laer::ObsSinks::help();
        return 0;
    }
    csv_output = args.has("csv");
    policy_filter = args.getChoices(
        "policy", {kStaticEp.label, kFlexMoe.label, kLaer.label,
                   kDisagg.label, kDisaggShared.label});
    if (args.has("seed")) {
        seed_overridden = true;
        seed_override = args.getUint("seed", 0);
    }
    laer::ObsSinks sinks(args);

    const laer::Cluster cluster = laer::Cluster::a100(2);
    const double rates[] = {20.0, 40.0, 60.0, 80.0, 100.0};
    const PolicyVariant policies[] = {kStaticEp, kFlexMoe, kLaer};

    laer::Table table("Fig. 13 — serving throughput-latency sweep (" +
                      cluster.describe() + ", bursty arrivals, " +
                      "TTFT SLO 500 ms)");
    table.setHeader({"req/s", "policy", "ttft_p50_ms", "ttft_p99_ms",
                     "tpot_p50_ms", "tput_tok/s", "goodput_tok/s",
                     "max_rel_tok", "done"});

    // Track the acceptance comparison: best goodput per policy among
    // sweep points that still meet the p99 TTFT target.
    double best_good_laer = 0.0, best_good_static = 0.0;

    for (const double rate : rates) {
        for (const PolicyVariant &policy : policies) {
            if (!selected(policy))
                continue;
            laer::ServingConfig cfg = servingConfig(policy, rate);
            std::ostringstream label;
            label << "13a/" << policy.label << "@" << rate;
            laer::MetricsRegistry registry;
            sinks.attach(cfg, registry, label.str());
            laer::ServingSimulator sim(cluster, cfg);
            const laer::ServingReport r = sim.run();
            sinks.end(registry, label.str());
            table.startRow();
            table.cell(rate, 0);
            table.cell(policy.label);
            table.cell(1e3 * r.ttftP50, 1);
            table.cell(1e3 * r.ttftP99, 1);
            table.cell(1e3 * r.tpotP50, 2);
            table.cell(r.throughputTps, 0);
            table.cell(r.goodputTps, 0);
            table.cell(r.meanMaxRelTokens, 2);
            table.cell(r.completed);

            if (r.ttftP99 <= sim.config().sloTtft) {
                if (policy.policy == laer::ServingPolicy::LaerServe)
                    best_good_laer =
                        std::max(best_good_laer, r.goodputTps);
                if (policy.policy == laer::ServingPolicy::StaticEp)
                    best_good_static =
                        std::max(best_good_static, r.goodputTps);
            }
        }
    }
    if (table.rowCount() > 0)
        emit(table);

    kvBudgetSweep(cluster, sinks);
    disaggSweep(cluster, sinks);
    sinks.write();

    // The LAER-vs-StaticEP gate only applies when both policies ran.
    if (!selected(kLaer) || !selected(kStaticEp))
        return 0;
    std::ostringstream verdict;
    verdict << "best goodput meeting the p99 TTFT target: LAER "
            << static_cast<long long>(best_good_laer)
            << " tok/s vs StaticEP "
            << static_cast<long long>(best_good_static) << " tok/s ("
            << (best_good_static > 0.0
                    ? best_good_laer / best_good_static
                    : 0.0)
            << "x)";
    std::cout << verdict.str() << "\n";
    return best_good_laer > best_good_static ? 0 : 1;
} catch (const laer::FatalError &err) {
    std::cerr << "fig13_serving: " << err.what() << "\n";
    return 2;
}
