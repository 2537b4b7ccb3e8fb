#include "oracle/reference_solver.hh"

#include <cmath>
#include <vector>

#include "core/error.hh"
#include "oracle/dense_plan.hh"
#include "planner/lite_routing.hh"

namespace laer
{

namespace
{

/** All C-subsets of {0..E-1}, as expert-id vectors. */
std::vector<std::vector<ExpertId>>
expertSubsets(int n_experts, int capacity)
{
    std::vector<std::vector<ExpertId>> out;
    std::vector<ExpertId> cur;
    // Iterative combination enumeration.
    std::vector<int> idx(capacity);
    for (int i = 0; i < capacity; ++i)
        idx[i] = i;
    if (capacity > n_experts)
        return out;
    for (;;) {
        out.emplace_back(idx.begin(), idx.end());
        int pos = capacity - 1;
        while (pos >= 0 && idx[pos] == n_experts - capacity + pos)
            --pos;
        if (pos < 0)
            break;
        ++idx[pos];
        for (int i = pos + 1; i < capacity; ++i)
            idx[i] = idx[i - 1] + 1;
    }
    return out;
}

} // namespace

LayoutDecision
exhaustiveLayoutSearch(const Cluster &cluster, const RoutingMatrix &routing,
                       const CostParams &cost, int capacity,
                       long max_states)
{
    const int n = cluster.numDevices();
    const int e = routing.numExperts();
    const auto subsets = expertSubsets(e, capacity);
    LAER_CHECK(!subsets.empty(), "capacity exceeds expert count");

    const double states =
        std::pow(static_cast<double>(subsets.size()), n);
    LAER_CHECK(states <= static_cast<double>(max_states),
               "instance too large for exhaustive search: "
                   << states << " states");

    std::vector<std::size_t> choice(n, 0);
    LayoutDecision best;
    bool have_best = false;
    long visited = 0;

    for (;;) {
        ++visited;
        ExpertLayout layout(n, e);
        for (DeviceId d = 0; d < n; ++d)
            for (ExpertId j : subsets[choice[d]])
                ++layout.at(d, j);

        // Skip infeasible layouts (some expert with no replica).
        bool ok = true;
        for (ExpertId j = 0; j < e && ok; ++j)
            ok = layout.replicaCount(j) >= 1;
        if (ok) {
            const CostBreakdown c =
                timeCost(cluster, cost, liteRouting(cluster, routing, layout));
            if (!have_best || c.total() < best.cost.total()) {
                best.layout = std::move(layout);
                best.cost = c;
                have_best = true;
            }
        }

        // Odometer increment over per-device subset choices.
        int d = 0;
        while (d < n) {
            if (++choice[d] < subsets.size())
                break;
            choice[d] = 0;
            ++d;
        }
        if (d == n)
            break;
    }
    LAER_CHECK(have_best, "no feasible layout found");
    best.index.rebuild(cluster, best.layout);
    best.schemesTried = static_cast<int>(visited);
    return best;
}

} // namespace laer
