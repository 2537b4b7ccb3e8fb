/**
 * @file
 * Fig. 11 — expert layout solver wall time vs cluster scale.
 *
 * Measures the REAL wall-clock time of tuneExpertLayout (|epsilon| = 2:
 * proportional + even allocation, as the paper fixes for this figure)
 * while scaling the device count N up to 1024 and the capacity C. The
 * grey-dashed baseline in the paper is the average total time consumed
 * per transformer layer in Mixtral-8x7B-e8k2 (~30 ms at 8K context on
 * their cluster); the solver must stay below it so planning never
 * bottlenecks training (Sec. 5.4).
 */

#include <benchmark/benchmark.h>

#include "core/rng.hh"
#include "planner/layout_tuner.hh"
#include "topo/cluster.hh"

namespace
{

laer::RoutingMatrix
makeRouting(int n_devices, int n_experts, std::uint64_t seed)
{
    laer::Rng rng(seed);
    laer::RoutingMatrix r(n_devices, n_experts);
    const auto pop = rng.dirichlet(n_experts, 0.3);
    for (laer::DeviceId d = 0; d < n_devices; ++d) {
        const auto counts = rng.multinomial(16384 * 2, pop);
        for (laer::ExpertId j = 0; j < n_experts; ++j)
            r.at(d, j) = counts[j];
    }
    return r;
}

void
BM_ExpertLayoutSolver(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const int capacity = static_cast<int>(state.range(1));
    // Experts scale with capacity as in the paper's e8k2/e16k4 setups.
    const int experts = capacity * 4;
    const laer::Cluster cluster = laer::Cluster::a100(n / 8, 8);
    const laer::RoutingMatrix routing = makeRouting(n, experts, n);

    laer::TunerConfig cfg;
    cfg.capacity = capacity;
    cfg.setSize = 2; // |epsilon| = 2: proportional + even (Sec. 5.4)
    cfg.cost.commBytesPerToken = 8192;
    cfg.cost.compFlopsPerToken = 3.5e8;

    for (auto _ : state) {
        benchmark::DoNotOptimize(
            laer::tuneExpertLayout(cluster, routing, cfg));
    }
    state.counters["devices"] = n;
    state.counters["capacity"] = capacity;
    // The paper's baseline: ~per-layer time budget of Mixtral-8x7B.
    state.counters["budget_ms"] = 30.0;
}

} // namespace

BENCHMARK(BM_ExpertLayoutSolver)
    ->ArgsProduct({{8, 16, 32, 64, 128, 256, 512, 1024}, {2, 4}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
