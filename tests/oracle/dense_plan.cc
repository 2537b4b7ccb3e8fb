#include "oracle/dense_plan.hh"

#include <algorithm>
#include <cmath>

#include "core/error.hh"
#include "planner/lite_routing.hh"

namespace laer
{

std::vector<TokenCount>
receivedTokens(const RoutingPlan &plan)
{
    std::vector<TokenCount> recv(plan.numDevices(), 0);
    for (DeviceId i = 0; i < plan.numDevices(); ++i)
        for (ExpertId j = 0; j < plan.numExperts(); ++j)
            for (DeviceId k = 0; k < plan.numDevices(); ++k)
                recv[k] += plan.at(i, j, k);
    return recv;
}

bool
conservesTokens(const RoutingPlan &plan, const RoutingMatrix &routing,
                const ExpertLayout &layout)
{
    if (routing.numDevices() != plan.numDevices() ||
        routing.numExperts() != plan.numExperts())
        return false;
    for (DeviceId i = 0; i < plan.numDevices(); ++i) {
        for (ExpertId j = 0; j < plan.numExperts(); ++j) {
            TokenCount sent = 0;
            for (DeviceId k = 0; k < plan.numDevices(); ++k) {
                const TokenCount s = plan.at(i, j, k);
                if (s < 0)
                    return false;
                if (s > 0 && layout.at(k, j) == 0)
                    return false; // token sent to a device without j
                sent += s;
            }
            if (sent != routing.at(i, j))
                return false;
        }
    }
    return true;
}

VolumeMatrix
dispatchVolume(const RoutingPlan &plan, Bytes bytes_per_token)
{
    VolumeMatrix volume = zeroVolume(plan.numDevices());
    for (DeviceId i = 0; i < plan.numDevices(); ++i)
        for (ExpertId j = 0; j < plan.numExperts(); ++j)
            for (DeviceId k = 0; k < plan.numDevices(); ++k)
                volume[i][k] += plan.at(i, j, k) * bytes_per_token;
    return volume;
}

VolumeMatrix
dispatchVolume(const RoutingPlanSparse &plan, Bytes bytes_per_token)
{
    VolumeMatrix volume = zeroVolume(plan.numDevices());
    for (DeviceId i = 0; i < plan.numDevices(); ++i) {
        std::size_t count = 0;
        const RoutingPlanSparse::Entry *entries = plan.row(i, count);
        for (std::size_t t = 0; t < count; ++t)
            volume[i][entries[t].dst] += entries[t].tokens * bytes_per_token;
    }
    return volume;
}

VolumeMatrix
transposeVolume(const VolumeMatrix &volume)
{
    VolumeMatrix out = zeroVolume(static_cast<int>(volume.size()));
    for (std::size_t i = 0; i < volume.size(); ++i)
        for (std::size_t k = 0; k < volume.size(); ++k)
            out[k][i] = volume[i][k];
    return out;
}

RoutingPlan
toDense(const RoutingPlanSparse &plan)
{
    RoutingPlan dense(plan.numDevices(), plan.numExperts());
    for (DeviceId i = 0; i < plan.numDevices(); ++i) {
        std::size_t count = 0;
        const RoutingPlanSparse::Entry *entries = plan.row(i, count);
        for (std::size_t t = 0; t < count; ++t)
            dense.at(i, entries[t].expert, entries[t].dst) +=
                entries[t].tokens;
    }
    return dense;
}

RoutingPlan
staticEpRouting(const RoutingMatrix &routing, const EpGrouping &grouping,
                const ExpertLayout &layout)
{
    const int capacity = routing.numExperts() / grouping.epDegree();
    RoutingPlan plan(routing.numDevices(), routing.numExperts());
    for (DeviceId i = 0; i < routing.numDevices(); ++i) {
        for (ExpertId j = 0; j < routing.numExperts(); ++j) {
            const DeviceId target =
                grouping.deviceAt(grouping.groupOf(i), j / capacity);
            LAER_CHECK(layout.at(target, j) > 0,
                       "static layout misses the target expert");
            plan.at(i, j, target) += routing.at(i, j);
        }
    }
    return plan;
}

CostBreakdown
timeCost(const Cluster &cluster, const CostParams &params,
         const RoutingPlan &plan)
{
    const int n = plan.numDevices();
    LAER_CHECK(cluster.numDevices() == n, "cluster/plan size mismatch");
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
    return timeCostFromSums(cluster, params, receivedTokens(plan), pair_sum);
}

Seconds
a2aBottleneckTime(const Cluster &cluster, const VolumeMatrix &volume)
{
    const int n = cluster.numDevices();
    LAER_CHECK(static_cast<int>(volume.size()) == n,
               "volume matrix does not match cluster");
    Seconds busiest = 0.0;
    for (DeviceId d = 0; d < n; ++d) {
        Bytes send_intra = 0, send_inter = 0;
        Bytes recv_intra = 0, recv_inter = 0;
        for (DeviceId o = 0; o < n; ++o) {
            if (o == d)
                continue;
            if (cluster.sameNode(d, o)) {
                send_intra += volume[d][o];
                recv_intra += volume[o][d];
            } else {
                send_inter += volume[d][o];
                recv_inter += volume[o][d];
            }
        }
        const Seconds send_t =
            static_cast<double>(send_intra) / cluster.intraBw() +
            static_cast<double>(send_inter) / cluster.interBw();
        const Seconds recv_t =
            static_cast<double>(recv_intra) / cluster.intraBw() +
            static_cast<double>(recv_inter) / cluster.interBw();
        busiest = std::max({busiest, send_t, recv_t});
    }
    if (busiest == 0.0)
        return 0.0;
    return kCollectiveAlpha + busiest;
}

Seconds
flexMoeScoreDense(const Cluster &cluster, const CostParams &cost,
                  const ExpertLayout &layout, const RoutingMatrix &routing)
{
    const RoutingPlan plan = liteRouting(cluster, routing, layout);
    double l2 = 0.0;
    for (TokenCount r : receivedTokens(plan))
        l2 += static_cast<double>(r) * static_cast<double>(r);
    const double rms_tokens = std::sqrt(l2 / cluster.numDevices());
    return timeCost(cluster, cost, plan).comm +
           3.0 * cost.compFlopsPerToken * rms_tokens /
               cluster.computeFlops();
}

} // namespace laer
