#include "baselines/static_ep.hh"

#include "core/error.hh"

namespace laer
{

EpGrouping::EpGrouping(const Cluster &cluster, int ep_degree,
                       bool span_nodes)
    : numDevices_(cluster.numDevices()), epDegree_(ep_degree),
      numGroups_(cluster.numDevices() / ep_degree),
      spanNodes_(span_nodes), devicesPerNode_(cluster.devicesPerNode())
{
    LAER_CHECK(ep_degree >= 1, "ep degree must be positive");
    LAER_CHECK(numDevices_ % ep_degree == 0,
               "device count must divide by ep degree");
    if (spanNodes_) {
        // Stride mapping needs the group count to tile nodes evenly.
        LAER_CHECK(numGroups_ >= 1 &&
                   (devicesPerNode_ % numGroups_ == 0 ||
                    numGroups_ % devicesPerNode_ == 0),
                   "group count incompatible with node width");
    }
}

int
EpGrouping::groupOf(DeviceId d) const
{
    LAER_ASSERT(d >= 0 && d < numDevices_, "device out of range");
    return spanNodes_ ? d % numGroups_ : d / epDegree_;
}

int
EpGrouping::rankInGroup(DeviceId d) const
{
    LAER_ASSERT(d >= 0 && d < numDevices_, "device out of range");
    return spanNodes_ ? d / numGroups_ : d % epDegree_;
}

DeviceId
EpGrouping::deviceAt(int group, int rank) const
{
    LAER_ASSERT(group >= 0 && group < numGroups_, "group out of range");
    LAER_ASSERT(rank >= 0 && rank < epDegree_, "rank out of range");
    return spanNodes_ ? rank * numGroups_ + group
                      : group * epDegree_ + rank;
}

ExpertLayout
staticEpLayout(const Cluster &cluster, int n_experts,
               const EpGrouping &grouping)
{
    LAER_CHECK(n_experts % grouping.epDegree() == 0,
               "experts must divide by ep degree");
    const int capacity = n_experts / grouping.epDegree();
    ExpertLayout layout(cluster.numDevices(), n_experts);
    for (DeviceId d = 0; d < cluster.numDevices(); ++d) {
        const int rank = grouping.rankInGroup(d);
        for (int c = 0; c < capacity; ++c)
            layout.at(d, rank * capacity + c) = 1;
    }
    return layout;
}

namespace
{

/** Walk the vanilla EP rule: visit(i, j, target, tokens) for every
 * non-zero R[i][j], in (source, expert) order. */
template <typename Visit>
void
forEachStaticEpRoute(const RoutingMatrix &routing,
                     const EpGrouping &grouping,
                     const ExpertLayout &layout, Visit visit)
{
    const int n = routing.numDevices();
    const int e = routing.numExperts();
    const int capacity = e / grouping.epDegree();
    for (DeviceId i = 0; i < n; ++i) {
        const int group = grouping.groupOf(i);
        for (ExpertId j = 0; j < e; ++j) {
            const TokenCount tokens = routing.at(i, j);
            if (tokens == 0)
                continue;
            const DeviceId target =
                grouping.deviceAt(group, j / capacity);
            LAER_ASSERT(layout.at(target, j) > 0,
                        "static layout misses the target expert");
            visit(i, j, target, tokens);
        }
    }
}

} // namespace

RoutingPlan
staticEpRouting(const RoutingMatrix &routing, const EpGrouping &grouping,
                const ExpertLayout &layout)
{
    RoutingPlan plan(routing.numDevices(), routing.numExperts());
    forEachStaticEpRoute(routing, grouping, layout,
                         [&](DeviceId i, ExpertId j, DeviceId target,
                             TokenCount tokens) {
                             plan.at(i, j, target) += tokens;
                         });
    return plan;
}

void
staticEpRoutingSparse(const RoutingMatrix &routing,
                      const EpGrouping &grouping,
                      const ExpertLayout &layout, RoutingPlanSparse &plan)
{
    plan.clear(routing.numDevices(), routing.numExperts());
    forEachStaticEpRoute(routing, grouping, layout,
                         [&](DeviceId i, ExpertId j, DeviceId target,
                             TokenCount tokens) {
                             plan.add(i, j, target, tokens);
                         });
}

} // namespace laer
