#include "planner/lite_routing.hh"

#include <algorithm>

namespace laer
{

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

/** What the aggregate loop writes besides received tokens: the
 * tuner's two wire sums, or the step's dispatch port loads. */
struct LiteWire
{
    TokenCount intra = 0; //!< scorer: tokens on intra-node wires
    TokenCount inter = 0; //!< scorer: tokens on inter-node wires
    A2aPortLoads *ports = nullptr; //!< kernel: per-device byte sums
    Bytes bytesPerToken = 0;       //!< kernel: per-token payload
};

/**
 * The one Alg. 3 aggregate loop, per (node, expert) cell. kPorts
 * selects at compile time between the scorer's wire sums and the
 * kernel's port loads; received tokens are written either way.
 */
template <bool kPorts>
void
aggregateLiteRouting(const Cluster &cluster, const RoutingMatrix &routing,
                     const ReplicaIndex &index,
                     LiteRoutingScratch &scratch,
                     std::vector<TokenCount> &recv, LiteWire &wire)
{
    const int n = routing.numDevices();
    const int e = routing.numExperts();
    LAER_ASSERT(cluster.numDevices() == n,
                "cluster does not match routing matrix");
    LAER_ASSERT(index.numExperts() == e,
                "index does not match routing matrix");

    recv.assign(static_cast<std::size_t>(n), 0);
    if constexpr (kPorts)
        wire.ports->reset(n);

    // Difference array over remainder-rotation slots, sized for the
    // longest target list.
    std::size_t max_targets = 0;
    for (ExpertId j = 0; j < e; ++j)
        max_targets = std::max(max_targets, index.allCount(j));
    std::vector<TokenCount> &diff = scratch.diff;
    diff.assign(max_targets + 1, 0);

    // Per-source split of the current (node, expert) cell: quotient,
    // remainder and rotation start, indexed by position in the node.
    // Every later use reads them back, so the cell costs one division
    // per source.
    const int nodes = cluster.numNodes();
    const int per_node = cluster.devicesPerNode();
    const auto width_max = static_cast<std::size_t>(per_node);
    scratch.quot.resize(width_max);
    scratch.rems.resize(width_max);
    scratch.starts.resize(width_max);
    TokenCount *const quot = scratch.quot.data();
    std::size_t *const rems = scratch.rems.data();
    std::size_t *const starts = scratch.starts.data();
    for (NodeId m = 0; m < nodes; ++m) {
        const DeviceId first = cluster.firstDeviceOf(m);
        const int width = std::min(per_node, n - first);
        for (ExpertId j = 0; j < e; ++j) {
            // All sources in node m share this Alg. 3 target list.
            std::size_t count = 0;
            const DeviceId *targets = index.targets(m, j, count);
            const bool intra_case = index.intraCount(m, j) > 0;

            // Any tokens from this node for expert j?
            TokenCount node_tokens = 0;
            for (int i = 0; i < width; ++i)
                node_tokens += routing.at(first + i, j);
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
            std::size_t start = static_cast<std::size_t>(first) % count;
            for (int i = 0; i < width; ++i) {
                const TokenCount tokens = routing.at(first + i, j);
                const TokenCount q = tokens == 0 ? 0 : tokens / cnt;
                const auto rem = static_cast<std::size_t>(tokens - q * cnt);
                quot[i] = q;
                rems[i] = rem;
                starts[i] = start;
                start = start + 1 == count ? 0 : start + 1;
                sum_base += q;
                if constexpr (kPorts) {
                    // Every token leaves its source; the self-shares
                    // come back off in the slot pass.
                    const auto src = static_cast<std::size_t>(first + i);
                    (intra_case ? wire.ports->sendIntra
                                : wire.ports->sendInter)[src] +=
                        tokens * wire.bytesPerToken;
                }
                if (rem == 0)
                    continue;
                const std::size_t end = starts[i] + rem;
                ++diff[starts[i]];
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
                const auto dst = static_cast<std::size_t>(k);
                const TokenCount received = sum_base + extra;
                recv[dst] += received;
                if (!intra_case) {
                    if constexpr (kPorts)
                        wire.ports->recvInter[dst] +=
                            received * wire.bytesPerToken;
                    continue;
                }
                const auto i = static_cast<std::size_t>(k - first);
                const std::size_t offset = s >= starts[i]
                                               ? s - starts[i]
                                               : s + count - starts[i];
                const TokenCount self =
                    quot[i] + (offset < rems[i] ? 1 : 0);
                if constexpr (kPorts) {
                    wire.ports->recvIntra[dst] +=
                        (received - self) * wire.bytesPerToken;
                    wire.ports->sendIntra[dst] -=
                        self * wire.bytesPerToken;
                } else {
                    self_tokens += self;
                }
            }
            if constexpr (!kPorts) {
                if (intra_case)
                    wire.intra += node_tokens - self_tokens;
                else
                    wire.inter += node_tokens;
            }
        }
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

void
liteRoutingLoads(const Cluster &cluster, const RoutingMatrix &routing,
                 const ReplicaIndex &index, Bytes bytes_per_token,
                 LiteRoutingScratch &scratch, std::vector<TokenCount> &recv,
                 A2aPortLoads &loads)
{
    LiteWire wire;
    wire.ports = &loads;
    wire.bytesPerToken = bytes_per_token;
    aggregateLiteRouting<true>(cluster, routing, index, scratch, recv,
                               wire);
}

LiteRoutingScore
scoreLiteRouting(const Cluster &cluster, const RoutingMatrix &routing,
                 const ReplicaIndex &index, const CostParams &params)
{
    // The pair term of Eq. 2 is the weighted sum of the two exact
    // wire totals: the two-level topology has two bandwidth classes.
    LiteRoutingScore score;
    LiteRoutingScratch scratch;
    LiteWire wire;
    aggregateLiteRouting<false>(cluster, routing, index, scratch,
                                score.recv, wire);
    const Seconds pair_sum =
        static_cast<double>(wire.intra) / cluster.intraBw() +
        static_cast<double>(wire.inter) / cluster.interBw();
    score.cost =
        timeCostFromSums(cluster, params, score.recv, pair_sum);
    return score;
}

LiteRoutingScore
scoreLiteRouting(const Cluster &cluster, const RoutingMatrix &routing,
                 const ExpertLayout &layout, const CostParams &params)
{
    // The index build and the scorer check every shape.
    return scoreLiteRouting(cluster, routing, ReplicaIndex(cluster, layout),
                            params);
}

} // namespace laer
