/**
 * @file
 * Dense routing-plan reference formulations (test oracle: part of the
 * laer_oracle library, which only tests and the tab05 bench link).
 *
 * The library routes and prices through RoutingPlanSparse. These are
 * the original dense bodies, each written over the full N x E x N plan
 * S or the N x N volume matrix exactly as Eq. 2 and the All-to-All
 * port model state them, so the sparse paths can be checked against
 * them entry for entry and bit for bit.
 */

#ifndef LAER_ORACLE_DENSE_PLAN_HH
#define LAER_ORACLE_DENSE_PLAN_HH

#include <vector>

#include "baselines/static_ep.hh"
#include "comm/collectives.hh"
#include "planner/cost_model.hh"
#include "planner/routing_plan_sparse.hh"
#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/** Tokens device k receives for computation: sum_{i,j} S[i][j][k]. */
std::vector<TokenCount> receivedTokens(const RoutingPlan &plan);

/**
 * Paper constraint (4): for all (i, j), sum_k S[i][j][k] == R[i][j]
 * and tokens only flow to devices hosting the expert.
 */
bool conservesTokens(const RoutingPlan &plan, const RoutingMatrix &routing,
                     const ExpertLayout &layout);

/** Dispatch volume matrix in bytes; diagonal kept for completeness. */
VolumeMatrix dispatchVolume(const RoutingPlan &plan, Bytes bytes_per_token);

/** Dispatch volume matrix of a sparse plan, summed triple by triple. */
VolumeMatrix dispatchVolume(const RoutingPlanSparse &plan,
                            Bytes bytes_per_token);

/** The combine direction of an All-to-All: the volume transposed. */
VolumeMatrix transposeVolume(const VolumeMatrix &volume);

/** Materialise the dense equivalent of a sparse plan. */
RoutingPlan toDense(const RoutingPlanSparse &plan);

/**
 * Vanilla EP routing: S[i][j][k] = R[i][j] for the unique device k of
 * group(i) hosting expert j.
 */
RoutingPlan staticEpRouting(const RoutingMatrix &routing,
                            const EpGrouping &grouping,
                            const ExpertLayout &layout);

/**
 * Eq. 2 over a dense plan: for every ordered pair (i, k), i != k, the
 * experts fold into one token count, then one tokens / bw(i, k) term
 * is added in (i, k) order.
 */
CostBreakdown timeCost(const Cluster &cluster, const CostParams &params,
                       const RoutingPlan &plan);

/**
 * Runtime All-to-All duration of a dense volume matrix under the
 * per-port occupancy model: every device sends and receives
 * concurrently, intra-node traffic on NVLink, inter-node on the NIC,
 * and the op ends when the busiest port drains. Diagonal is free.
 */
Seconds a2aBottleneckTime(const Cluster &cluster, const VolumeMatrix &volume);

/**
 * FlexMoE's layout score (baselines/flexmoe.hh) over the dense plan:
 * Eq. 2's comm term plus the compute-scaled RMS of received tokens.
 */
Seconds flexMoeScoreDense(const Cluster &cluster, const CostParams &cost,
                          const ExpertLayout &layout,
                          const RoutingMatrix &routing);

} // namespace laer

#endif // LAER_ORACLE_DENSE_PLAN_HH
