#include "planner/cost_model.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/error.hh"
#include "planner/routing_plan_sparse.hh"

namespace laer
{

CostBreakdown
timeCost(const Cluster &cluster, const CostParams &params,
         const RoutingPlanSparse &plan)
{
    const int n = plan.numDevices();
    LAER_ASSERT(cluster.numDevices() == n, "cluster/plan size mismatch");

    // sum_{i,j,k} S[i][j][k] / bw(i,k), folded over experts first:
    // each source's off-diagonal triples, sorted by destination, sum
    // to one integer token count per pair.
    Seconds pair_sum = 0.0;
    std::vector<std::pair<DeviceId, TokenCount>> sent;
    for (DeviceId i = 0; i < n; ++i) {
        std::size_t count = 0;
        const RoutingPlanSparse::Entry *entries = plan.row(i, count);
        sent.clear();
        for (std::size_t t = 0; t < count; ++t)
            if (entries[t].dst != i) // local tokens never touch the wire
                sent.emplace_back(entries[t].dst, entries[t].tokens);
        std::sort(sent.begin(), sent.end());
        for (std::size_t t = 0; t < sent.size();) {
            const DeviceId k = sent[t].first;
            TokenCount tokens = 0;
            for (; t < sent.size() && sent[t].first == k; ++t)
                tokens += sent[t].second;
            pair_sum += static_cast<double>(tokens) / cluster.bw(i, k);
        }
    }
    return timeCostFromSums(cluster, params, plan.receivedTokens(),
                            pair_sum);
}

CostBreakdown
timeCostFromSums(const Cluster &cluster, const CostParams &params,
                 const std::vector<TokenCount> &recv_tokens,
                 Seconds pair_sum_over_bw_bytes)
{
    CostBreakdown cost;
    cost.comm = 4.0 * static_cast<double>(params.commBytesPerToken) *
                pair_sum_over_bw_bytes;
    TokenCount busiest = 0;
    for (TokenCount r : recv_tokens)
        busiest = std::max(busiest, r);
    const double fwd = params.compFlopsPerToken *
                       static_cast<double>(busiest) /
                       cluster.computeFlops();
    cost.comp = (3.0 + (params.checkpointing ? 1.0 : 0.0)) * fwd;
    return cost;
}

} // namespace laer
