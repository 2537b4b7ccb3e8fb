#include "baselines/smartmoe.hh"

#include <cmath>

#include "core/error.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"

namespace laer
{

SmartMoePlanner::SmartMoePlanner(const Cluster &cluster, int n_experts,
                                 const SmartMoeConfig &config)
    : cluster_(cluster), config_(config),
      layout_(cluster.numDevices(), n_experts),
      loadHistory_(n_experts, 0.0)
{
    LAER_CHECK(config_.period >= 1, "period must be positive");
    layout_ = evenLayout(cluster_, n_experts, config_.capacity);
}

SmartMoeStep
SmartMoePlanner::observe(const RoutingMatrix &routing)
{
    SmartMoeStep step;
    const std::vector<TokenCount> loads = routing.expertLoads();
    for (std::size_t j = 0; j < loadHistory_.size(); ++j)
        loadHistory_[j] += static_cast<double>(loads[j]);
    if (++sinceRelayout_ < config_.period)
        return step;

    sinceRelayout_ = 0;
    std::vector<TokenCount> history(loadHistory_.size());
    for (std::size_t j = 0; j < history.size(); ++j)
        history[j] = static_cast<TokenCount>(
            std::llround(loadHistory_[j]));
    const ExpertLayout previous = layout_;
    // Relocation only: replica counts stay at the fixed even split.
    layout_ = expertRelocation(
        cluster_,
        evenAllocation(history, cluster_.numDevices(), config_.capacity),
        history, config_.capacity);
    std::fill(loadHistory_.begin(), loadHistory_.end(), 0.0);

    // Charge migration for every replica whose location changed.
    int moved = 0;
    for (DeviceId d = 0; d < layout_.numDevices(); ++d)
        for (ExpertId j = 0; j < layout_.numExperts(); ++j)
            moved += std::max(0, layout_.at(d, j) - previous.at(d, j));
    if (moved > 0) {
        step.relayouted = true;
        step.migrationTime =
            6.0 * static_cast<double>(config_.expertBytes) * moved /
            cluster_.interBw() / layout_.numDevices();
    }
    return step;
}

} // namespace laer
