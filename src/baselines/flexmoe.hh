/**
 * @file
 * FlexMoE-style dynamic planner (Nie et al., SIGMOD'23), reimplemented
 * from its published description the way the LAER-MoE authors did
 * (Sec. 5.1: "no open-source release").
 *
 * FlexMoE keeps a persistent expert layout and adjusts it
 * incrementally: each step it derives the load-proportional replica
 * target, then applies at most two single-replica changes, accepting
 * a change only when its modelled gain over 100 iterations repays the
 * migration (moving an expert costs ~6x its parameter bytes — params +
 * optimizer state — because it has no FSEP to hide behind). This is precisely the "penalise adjustment" behaviour the paper
 * contrasts against (Sec. 1, Sec. 5.2).
 */

#ifndef LAER_BASELINES_FLEXMOE_HH
#define LAER_BASELINES_FLEXMOE_HH

#include <cstdint>

#include "planner/cost_model.hh"
#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/** FlexMoE scheduler knobs. */
struct FlexMoeConfig
{
    int capacity = 2;          //!< expert slots per device
    Bytes expertBytes = 0;     //!< Psi_expert for the penalty term
    CostParams cost;           //!< Eq. 2 constants for gain estimation
};

/** Outcome of one FlexMoE update. */
struct FlexMoeStep
{
    int movesApplied = 0;
    Seconds migrationTime = 0.0; //!< exposed re-layout overhead
};

/**
 * Stateful FlexMoE planner; owns the current layout.
 */
class FlexMoePlanner
{
  public:
    FlexMoePlanner(const Cluster &cluster, int n_experts,
                   const FlexMoeConfig &config);

    /** Current layout (before or after update()). */
    const ExpertLayout &layout() const { return layout_; }

    /**
     * Observe the routing matrix of the last iteration and adjust the
     * layout for the next one. Returns what was changed and the
     * migration overhead incurred.
     */
    FlexMoeStep update(const RoutingMatrix &routing);

  private:
    /** Estimated Eq. 2 objective of a layout under lite routing. */
    Seconds score(const ExpertLayout &layout,
                  const RoutingMatrix &routing) const;

    const Cluster &cluster_;
    FlexMoeConfig config_;
    ExpertLayout layout_;
};

} // namespace laer

#endif // LAER_BASELINES_FLEXMOE_HH
