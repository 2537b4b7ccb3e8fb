#include "planner/cost_model.hh"

#include <algorithm>

#include "core/error.hh"

namespace laer
{

CostBreakdown
timeCost(const Cluster &cluster, const CostParams &params,
         const RoutingPlan &plan)
{
    const int n = plan.numDevices();
    LAER_ASSERT(cluster.numDevices() == n, "cluster/plan size mismatch");

    // sum_{i,j,k} S[i][j][k] / bw(i,k), folded over experts first.
    Seconds pair_sum = 0.0;
    for (DeviceId i = 0; i < n; ++i) {
        for (DeviceId k = 0; k < n; ++k) {
            if (i == k)
                continue; // local tokens never touch the wire
            TokenCount tokens = 0;
            for (ExpertId j = 0; j < plan.numExperts(); ++j)
                tokens += plan.at(i, j, k);
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
