#include "baselines/flexmoe.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"

namespace laer
{

namespace
{

/** Replica adjustments per update. */
constexpr int kMaxMovesPerStep = 2;
/** Iterations a migration must pay itself off over. */
constexpr int kAmortizationIters = 100;

} // namespace

FlexMoePlanner::FlexMoePlanner(const Cluster &cluster, int n_experts,
                               const FlexMoeConfig &config)
    : cluster_(cluster), config_(config),
      layout_(cluster.numDevices(), n_experts)
{
    LAER_CHECK(config_.expertBytes > 0,
               "FlexMoE needs the expert size for its penalty term");
    // Start from the even static placement every EP system starts at.
    layout_ = evenLayout(cluster_, n_experts, config_.capacity);
}

Seconds
FlexMoePlanner::score(const ExpertLayout &layout,
                      const RoutingMatrix &routing) const
{
    // FlexMoE's scheduler optimises DEVICE-LOAD BALANCE rather than
    // the max-only objective: an incremental move that relieves one
    // node is visible to an L2 balance metric even when the global
    // maximum is still pinned by another node. We therefore score
    // with comm cost + compute-scaled L2 norm of received tokens.
    const RoutingPlan plan = liteRouting(cluster_, routing, layout);
    const CostBreakdown cost = timeCost(cluster_, config_.cost, plan);
    double l2 = 0.0;
    for (TokenCount r : plan.receivedTokens())
        l2 += static_cast<double>(r) * static_cast<double>(r);
    const double rms_tokens =
        std::sqrt(l2 / cluster_.numDevices());
    const Seconds balance_term =
        3.0 * config_.cost.compFlopsPerToken * rms_tokens /
        cluster_.computeFlops();
    return cost.comm + balance_term;
}

FlexMoeStep
FlexMoePlanner::update(const RoutingMatrix &routing)
{
    FlexMoeStep step;
    const std::vector<TokenCount> loads = routing.expertLoads();
    const int e = layout_.numExperts();

    // Migration penalty per move: params + optimizer state cross the
    // inter-node wire (FlexMoE cannot fuse this into training comm).
    // A move is accepted when its per-iteration gain repays the
    // migration within the amortization horizon.
    const Seconds migration_cost =
        6.0 * static_cast<double>(config_.expertBytes) /
        cluster_.interBw();
    const Seconds penalty = migration_cost / kAmortizationIters;

    Seconds current = score(layout_, routing);
    for (int move = 0; move < kMaxMovesPerStep; ++move) {
        // Deficit expert: highest load per current replica.
        // Surplus expert: lowest load per replica with replicas > 1.
        ExpertId deficit = -1, surplus = -1;
        double worst = -1.0,
               lightest = std::numeric_limits<double>::max();
        for (ExpertId j = 0; j < e; ++j) {
            const int rep = layout_.replicaCount(j);
            const double avg = static_cast<double>(loads[j]) / rep;
            if (avg > worst) {
                worst = avg;
                deficit = j;
            }
            if (rep > 1 && avg < lightest) {
                lightest = avg;
                surplus = j;
            }
        }
        if (deficit < 0 || surplus < 0 || deficit == surplus)
            break;

        // Free the surplus replica on the device where it matters
        // least, then trial-place the deficit expert there.
        DeviceId slot = -1;
        double slot_load = std::numeric_limits<double>::max();
        for (DeviceId d = 0; d < layout_.numDevices(); ++d) {
            if (layout_.at(d, surplus) == 0 ||
                layout_.at(d, deficit) > 0)
                continue;
            double dev_load = 0.0;
            for (ExpertId j = 0; j < e; ++j)
                if (layout_.at(d, j) > 0)
                    dev_load += static_cast<double>(loads[j]) /
                                layout_.replicaCount(j);
            if (dev_load < slot_load) {
                slot_load = dev_load;
                slot = d;
            }
        }
        if (slot < 0)
            break;

        ExpertLayout candidate = layout_;
        --candidate.at(slot, surplus);
        ++candidate.at(slot, deficit);
        const Seconds trial = score(candidate, routing);

        // FlexMoE's defining trade-off: only adopt the move when the
        // projected saving beats the migration penalty.
        if (current - trial > penalty) {
            layout_ = std::move(candidate);
            current = trial;
            ++step.movesApplied;
            step.migrationTime += migration_cost;
        } else {
            break;
        }
    }
    return step;
}

} // namespace laer
