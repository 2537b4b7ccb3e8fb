/**
 * @file
 * Static expert-parallel layouts and grouped routing — the Megatron
 * and FSDP+EP baselines of Sec. 5.
 *
 * In both baselines the expert placement is fixed for the whole run.
 * Devices are organised into EP groups that together hold all E
 * experts (C = E / ep_degree experts per device); the standard mapping
 * in FSDP/Megatron deployments places the heavy FSDP / gradient
 * communication groups inside nodes, which forces EP groups to span
 * nodes — device d belongs to EP group (d mod groups_per_node ...) so
 * that each group takes one device per node whenever possible.
 *
 * Routing is the vanilla EP rule: every token goes to the device of
 * ITS OWN EP group that hosts the selected expert — no load-dependent
 * choice, which is exactly why hot experts create tail latency.
 */

#ifndef LAER_BASELINES_STATIC_EP_HH
#define LAER_BASELINES_STATIC_EP_HH

#include "planner/routing_plan_sparse.hh"
#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/** Membership helper for static EP groups. */
class EpGrouping
{
  public:
    /**
     * Partition N devices into groups of `ep_degree`. When
     * `span_nodes` is true each group draws its members from distinct
     * nodes (stride mapping); otherwise groups are consecutive blocks.
     */
    EpGrouping(const Cluster &cluster, int ep_degree, bool span_nodes);

    int epDegree() const { return epDegree_; }
    int numGroups() const { return numGroups_; }

    /** Group that device d belongs to. */
    int groupOf(DeviceId d) const;

    /** Rank of device d inside its group, in [0, ep_degree). */
    int rankInGroup(DeviceId d) const;

    /** Device with the given rank inside the given group. */
    DeviceId deviceAt(int group, int rank) const;

  private:
    int numDevices_;
    int epDegree_;
    int numGroups_;
    bool spanNodes_;
    int devicesPerNode_;
};

/**
 * The fixed layout: EP rank r hosts experts [r*C, (r+1)*C), replicated
 * across all groups. Requires E to divide by ep_degree.
 */
ExpertLayout staticEpLayout(const Cluster &cluster, int n_experts,
                            const EpGrouping &grouping);

/**
 * Vanilla EP routing, S[i][j][k] = R[i][j] for the unique device k of
 * group(i) hosting expert j, as one sparse triple per non-zero
 * R[i][j] in (source, expert) order.
 * @param plan  Output; cleared and filled (storage reused).
 */
void staticEpRoutingSparse(const RoutingMatrix &routing,
                           const EpGrouping &grouping,
                           const ExpertLayout &layout,
                           RoutingPlanSparse &plan);

} // namespace laer

#endif // LAER_BASELINES_STATIC_EP_HH
