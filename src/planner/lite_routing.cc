#include "planner/lite_routing.hh"

#include <algorithm>

namespace laer
{

void
ReplicaIndex::rebuild(const Cluster &cluster, const ExpertLayout &layout)
{
    const int n = layout.numDevices();
    const int e = layout.numExperts();
    LAER_ASSERT(cluster.numDevices() == n,
                "cluster does not match layout");
    numExperts_ = e;
    numNodes_ = cluster.numNodes();

    // Counting pass over the layout's non-zero cells.
    allOff_.assign(static_cast<std::size_t>(e) + 1, 0);
    intraOff_.assign(static_cast<std::size_t>(numNodes_) * e + 1, 0);
    std::size_t total = 0;
    for (DeviceId d = 0; d < n; ++d) {
        const NodeId m = cluster.node(d);
        for (ExpertId j = 0; j < e; ++j) {
            const auto r = static_cast<std::size_t>(layout.at(d, j));
            allOff_[static_cast<std::size_t>(j) + 1] += r;
            intraOff_[cell(m, j) + 1] += r;
            total += r;
        }
    }
    for (std::size_t j = 0; j < static_cast<std::size_t>(e); ++j)
        allOff_[j + 1] += allOff_[j];
    for (std::size_t c = 0; c < intraOff_.size() - 1; ++c)
        intraOff_[c + 1] += intraOff_[c];

    // Fill pass. Devices are visited in ascending order, so every list
    // comes out device-ascending with multiplicity — the order Alg. 3
    // defines its remainder rotation over.
    allDev_.resize(total);
    intraDev_.resize(total);
    std::vector<std::size_t> all_fill(allOff_.begin(),
                                      allOff_.end() - 1);
    std::vector<std::size_t> intra_fill(intraOff_.begin(),
                                        intraOff_.end() - 1);
    for (DeviceId d = 0; d < n; ++d) {
        const NodeId m = cluster.node(d);
        for (ExpertId j = 0; j < e; ++j) {
            for (int r = 0; r < layout.at(d, j); ++r) {
                allDev_[all_fill[static_cast<std::size_t>(j)]++] = d;
                intraDev_[intra_fill[cell(m, j)]++] = d;
            }
        }
    }
}

namespace
{

/** Route one rank's row of R against the index into `plan`. */
void
routeRank(const Cluster &cluster, const RoutingMatrix &routing,
          const ReplicaIndex &index, DeviceId rank, RoutingPlan &plan)
{
    const NodeId my_node = cluster.node(rank);
    const int e = routing.numExperts();
    for (ExpertId j = 0; j < e; ++j) {
        const TokenCount tokens = routing.at(rank, j);
        if (tokens == 0)
            continue;
        std::size_t count = 0;
        const DeviceId *targets = index.targets(my_node, j, count);
        LAER_CHECK(count > 0,
                   "expert " << j << " has no replica anywhere");
        forEachLiteShare(targets, count, rank, tokens,
                         [&](DeviceId k, TokenCount share) {
                             plan.at(rank, j, k) += share;
                         });
    }
}

} // namespace

RoutingPlan
liteRouting(const Cluster &cluster, const RoutingMatrix &routing,
            const ExpertLayout &layout)
{
    const int n = routing.numDevices();
    LAER_ASSERT(layout.numDevices() == n &&
                    layout.numExperts() == routing.numExperts(),
                "layout does not match routing matrix");
    RoutingPlan plan(n, routing.numExperts());
    const ReplicaIndex index(cluster, layout);
    for (DeviceId rank = 0; rank < n; ++rank)
        routeRank(cluster, routing, index, rank, plan);
    return plan;
}

LiteRoutingScore
scoreLiteRouting(const Cluster &cluster, const RoutingMatrix &routing,
                 const ExpertLayout &layout, const CostParams &params)
{
    LAER_ASSERT(layout.numDevices() == routing.numDevices() &&
                    layout.numExperts() == routing.numExperts(),
                "layout does not match routing matrix");
    const ReplicaIndex index(cluster, layout);
    return scoreLiteRouting(cluster, routing, index, params);
}

LiteRoutingScore
scoreLiteRouting(const Cluster &cluster, const RoutingMatrix &routing,
                 const ReplicaIndex &index, const CostParams &params)
{
    const int n = routing.numDevices();
    const int e = routing.numExperts();
    LAER_ASSERT(cluster.numDevices() == n,
                "cluster does not match routing matrix");
    LAER_ASSERT(index.numExperts() == e,
                "index does not match routing matrix");

    LiteRoutingScore score;
    score.recv.assign(static_cast<std::size_t>(n), 0);
    Seconds pair_sum = 0.0;

    // Per-(source, expert, slot) evaluation in the order Alg. 3 emits
    // shares, so the floating-point pair cost is bit-identical to the
    // seed tuner's per-share scoring (timeCost folds per pair instead
    // and can differ in the last bits). scoreLiteRoutingFast computes
    // the same value with two divisions; it rounds differently, which
    // can re-order schemes whose costs tie to machine precision, so
    // the default tuner path keeps this order-preserving form.
    for (DeviceId rank = 0; rank < n; ++rank) {
        const NodeId my_node = cluster.node(rank);
        for (ExpertId j = 0; j < e; ++j) {
            const TokenCount tokens = routing.at(rank, j);
            if (tokens == 0)
                continue;
            std::size_t count = 0;
            const DeviceId *targets =
                index.targets(my_node, j, count);
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
    score.cost =
        timeCostFromSums(cluster, params, score.recv, pair_sum);
    return score;
}

LiteRoutingScore
scoreLiteRoutingFast(const Cluster &cluster,
                     const RoutingMatrix &routing,
                     const ExpertLayout &layout,
                     const CostParams &params)
{
    LAER_ASSERT(layout.numDevices() == routing.numDevices() &&
                    layout.numExperts() == routing.numExperts(),
                "layout does not match routing matrix");
    const ReplicaIndex index(cluster, layout);
    return scoreLiteRoutingFast(cluster, routing, index, params);
}

LiteRoutingScore
scoreLiteRoutingFast(const Cluster &cluster,
                     const RoutingMatrix &routing,
                     const ReplicaIndex &index, const CostParams &params)
{
    const int n = routing.numDevices();
    const int e = routing.numExperts();
    LAER_ASSERT(cluster.numDevices() == n,
                "cluster does not match routing matrix");
    LAER_ASSERT(index.numExperts() == e,
                "index does not match routing matrix");

    LiteRoutingScore score;
    score.recv.assign(static_cast<std::size_t>(n), 0);

    // Exact integer token sums crossing intra-node and inter-node
    // wires; the pair term of Eq. 2 is their weighted sum because the
    // two-level topology has exactly two bandwidth classes.
    TokenCount wire_intra = 0;
    TokenCount wire_inter = 0;

    // Difference array over remainder-rotation slots, sized for the
    // longest target list.
    std::size_t max_targets = 0;
    for (ExpertId j = 0; j < e; ++j)
        max_targets = std::max(max_targets, index.allCount(j));
    std::vector<TokenCount> diff(max_targets + 1, 0);

    const int nodes = cluster.numNodes();
    for (NodeId m = 0; m < nodes; ++m) {
        const DeviceId first = cluster.firstDeviceOf(m);
        const DeviceId last = std::min<DeviceId>(
            first + cluster.devicesPerNode(), n);
        for (ExpertId j = 0; j < e; ++j) {
            // All sources in node m share this Alg. 3 target list.
            std::size_t count = 0;
            const DeviceId *targets = index.targets(m, j, count);
            const bool intra_case = index.intraCount(m, j) > 0;

            // Any tokens from this node for expert j?
            TokenCount node_tokens = 0;
            for (DeviceId r = first; r < last; ++r)
                node_tokens += routing.at(r, j);
            if (node_tokens == 0)
                continue;
            LAER_CHECK(count > 0,
                       "expert " << j << " has no replica anywhere");

            // Per-source even split: everyone contributes
            // tokens / count to every slot; the remainders cover the
            // rotated window [rank % count, rank % count + rem).
            const auto cnt = static_cast<TokenCount>(count);
            TokenCount sum_base = 0;
            std::fill(diff.begin(), diff.begin() + count + 1, 0);
            for (DeviceId r = first; r < last; ++r) {
                const TokenCount tokens = routing.at(r, j);
                if (tokens == 0)
                    continue;
                sum_base += tokens / cnt;
                const auto rem =
                    static_cast<std::size_t>(tokens % cnt);
                if (rem == 0)
                    continue;
                const std::size_t start =
                    static_cast<std::size_t>(r) % count;
                const std::size_t end = start + rem;
                ++diff[start];
                --diff[std::min(end, count)];
                if (end > count) {
                    ++diff[0];
                    --diff[end - count];
                }
            }

            // Slot pass: fold the prefix sum into received tokens and
            // subtract the self-shares of sources that host their own
            // replica (local tokens never touch the wire). In the
            // global-fallback case no source of node m appears in the
            // list (its node hosts no replica), so everything crosses
            // the inter-node wire.
            TokenCount self_tokens = 0;
            TokenCount extra = 0;
            for (std::size_t s = 0; s < count; ++s) {
                extra += diff[s];
                const DeviceId k = targets[s];
                score.recv[static_cast<std::size_t>(k)] +=
                    sum_base + extra;
                if (!intra_case)
                    continue;
                const TokenCount own = routing.at(k, j);
                if (own == 0)
                    continue;
                const std::size_t start =
                    static_cast<std::size_t>(k) % count;
                const auto rem =
                    static_cast<std::size_t>(own % cnt);
                const std::size_t offset =
                    (s + count - start) % count;
                self_tokens += own / cnt +
                               (offset < rem ? 1 : 0);
            }
            if (intra_case)
                wire_intra += node_tokens - self_tokens;
            else
                wire_inter += node_tokens;
        }
    }

    const Seconds pair_sum =
        static_cast<double>(wire_intra) / cluster.intraBw() +
        static_cast<double>(wire_inter) / cluster.interBw();
    score.cost =
        timeCostFromSums(cluster, params, score.recv, pair_sum);
    return score;
}

} // namespace laer
