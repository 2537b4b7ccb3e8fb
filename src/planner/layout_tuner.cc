#include "planner/layout_tuner.hh"

#include <chrono>
#include <utility>
#include <vector>

#include "core/error.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"

namespace laer
{

LayoutDecision
tuneExpertLayout(const Cluster &cluster, const RoutingMatrix &routing,
                 const TunerConfig &config)
{
    LAER_CHECK(config.usePq || config.useEven,
               "tuner needs at least one allocation scheme");
    LAER_CHECK(cluster.numDevices() == routing.numDevices(),
               "cluster does not match routing matrix");

    const auto wall_start = std::chrono::steady_clock::now();

    const std::vector<TokenCount> loads = routing.expertLoads();
    const int n = cluster.numDevices();

    // Alg. 2 lines 1-7: build the replica-scheme set.
    std::vector<std::vector<int>> replicas_set;
    if (config.usePq)
        replicas_set.push_back(
            replicaAllocation(loads, n, config.capacity));
    if (config.useEven)
        replicas_set.push_back(evenAllocation(loads, n, config.capacity));

    Rng rng(config.seed);
    while (static_cast<int>(replicas_set.size()) < config.setSize) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(replicas_set.size()) - 1));
        replicas_set.push_back(
            perturbAllocation(replicas_set[pick], rng, n));
    }

    // Alg. 2 lines 9-15: place, route, score, keep the best. Each
    // scheme is placed straight into its replica index (Alg. 1) and
    // scored against it with the fused route-and-score pass; no plan
    // and no losing layout is materialised. A perturbation that
    // repeats an earlier allocation costs the same, so the first
    // strictly-cheaper reduction would never pick it: it is skipped.
    // Scheme evaluations are independent, so they fan out over the
    // optional worker pool into per-scheme slots; the winner is then
    // reduced serially in scheme order, which makes the decision
    // identical for any thread count.
    const int schemes = static_cast<int>(replicas_set.size());
    std::vector<char> repeat(replicas_set.size(), 0);
    for (std::size_t s = 1; s < replicas_set.size(); ++s)
        for (std::size_t t = 0; t < s && !repeat[s]; ++t)
            repeat[s] = replicas_set[s] == replicas_set[t];
    std::vector<ReplicaIndex> indexes(replicas_set.size());
    std::vector<CostBreakdown> costs(replicas_set.size());
    const auto evaluate = [&](int s) {
        const auto i = static_cast<std::size_t>(s);
        if (repeat[i])
            return;
        indexes[i] = expertRelocationIndex(cluster, replicas_set[i], loads,
                                           config.capacity);
        costs[i] =
            scoreLiteRouting(cluster, routing, indexes[i], config.cost).cost;
    };
    if (config.pool != nullptr)
        config.pool->parallelFor(schemes, evaluate);
    else
        for (int s = 0; s < schemes; ++s)
            evaluate(s);

    std::size_t winner = 0;
    for (std::size_t s = 1; s < costs.size(); ++s)
        if (!repeat[s] && costs[s].total() < costs[winner].total())
            winner = s;

    LayoutDecision best;
    best.index = std::move(indexes[winner]);
    best.layout = best.index.layout();
    best.cost = costs[winner];
    best.schemesTried = schemes;
    best.wallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    return best;
}

} // namespace laer
