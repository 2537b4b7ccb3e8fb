#include "oracle/tuner_reference.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/error.hh"
#include "core/rng.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"

namespace laer
{

LiteRoutingScore
scoreLiteRoutingPerShare(const Cluster &cluster, const RoutingMatrix &routing,
                         const ReplicaIndex &index, const CostParams &params)
{
    const int n = routing.numDevices();
    const int e = routing.numExperts();
    LAER_CHECK(cluster.numDevices() == n,
               "cluster does not match routing matrix");
    LAER_CHECK(index.numExperts() == e,
               "index does not match routing matrix");

    LiteRoutingScore score;
    score.recv.assign(static_cast<std::size_t>(n), 0);
    Seconds pair_sum = 0.0;
    for (DeviceId rank = 0; rank < n; ++rank) {
        const NodeId my_node = cluster.node(rank);
        for (ExpertId j = 0; j < e; ++j) {
            const TokenCount tokens = routing.at(rank, j);
            if (tokens == 0)
                continue;
            std::size_t count = 0;
            const DeviceId *targets = index.targets(my_node, j, count);
            LAER_CHECK(count > 0,
                       "expert " << j << " has no replica anywhere");
            forEachLiteShare(
                targets, count, rank, tokens,
                [&](DeviceId k, TokenCount share) {
                    score.recv[static_cast<std::size_t>(k)] += share;
                    if (k != rank)
                        pair_sum += static_cast<double>(share) /
                                    cluster.bw(rank, k);
                });
        }
    }
    score.cost = timeCostFromSums(cluster, params, score.recv, pair_sum);
    return score;
}

LiteRoutingScore
scoreLiteRoutingPerShare(const Cluster &cluster, const RoutingMatrix &routing,
                         const ExpertLayout &layout, const CostParams &params)
{
    return scoreLiteRoutingPerShare(cluster, routing,
                                    ReplicaIndex(cluster, layout), params);
}

LayoutDecision
tuneExpertLayoutReference(const Cluster &cluster, const RoutingMatrix &routing,
                          const TunerConfig &config, int *repeats)
{
    const std::vector<TokenCount> loads = routing.expertLoads();
    const int n = cluster.numDevices();
    std::vector<std::vector<int>> set;
    if (config.usePq)
        set.push_back(replicaAllocation(loads, n, config.capacity));
    if (config.useEven)
        set.push_back(evenAllocation(loads, n, config.capacity));
    Rng rng(config.seed);
    while (static_cast<int>(set.size()) < config.setSize) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(set.size()) - 1));
        set.push_back(perturbAllocation(set[pick], rng, n));
    }

    LayoutDecision best;
    if (repeats != nullptr)
        *repeats = 0;
    for (std::size_t s = 0; s < set.size(); ++s) {
        if (repeats != nullptr)
            for (std::size_t t = 0; t < s; ++t)
                if (set[t] == set[s]) {
                    ++*repeats;
                    break;
                }
        ExpertLayout layout =
            expertRelocation(cluster, set[s], loads, config.capacity);
        ReplicaIndex index(cluster, layout);
        const CostBreakdown cost =
            scoreLiteRouting(cluster, routing, index, config.cost).cost;
        if (s == 0 || cost.total() < best.cost.total()) {
            best.layout = std::move(layout);
            best.index = std::move(index);
            best.cost = cost;
        }
    }
    best.schemesTried = static_cast<int>(set.size());
    return best;
}

bool
sameReplicaIndex(const ReplicaIndex &a, const ReplicaIndex &b)
{
    if (a.numDevices() != b.numDevices() ||
        a.numExperts() != b.numExperts() || a.numNodes() != b.numNodes())
        return false;
    for (ExpertId j = 0; j < a.numExperts(); ++j) {
        if (!std::equal(a.all(j), a.all(j) + a.allCount(j), b.all(j),
                        b.all(j) + b.allCount(j)))
            return false;
        for (NodeId m = 0; m < a.numNodes(); ++m)
            if (a.intraCount(m, j) != b.intraCount(m, j))
                return false;
    }
    return true;
}

} // namespace laer
