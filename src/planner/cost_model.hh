/**
 * @file
 * The planner's analytical cost model (paper Sec. 3.2, Eq. 2).
 *
 *   T = T_comm + T_comp
 *   T_comm = 4 * V_comm * sum_{i,j,k} S[i][j][k] / bw(i, k)
 *   T_comp = (3 + F_ckpt) * max_i ( V_comp * recv_i / B_comp )
 *
 * The factor 4 counts dispatch/combine in forward and backward; the
 * factor (3 + F_ckpt) charges backward as twice forward plus an
 * optional recomputation pass.
 */

#ifndef LAER_PLANNER_COST_MODEL_HH
#define LAER_PLANNER_COST_MODEL_HH

#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

class RoutingPlanSparse;

/** Workload constants of the layer being planned. */
struct CostParams
{
    Bytes commBytesPerToken = 0;  //!< V_comm: bytes per token per hop
    Flops compFlopsPerToken = 0;  //!< V_comp: forward FLOPs per token
    bool checkpointing = false;   //!< F_ckpt
};

/** Decomposed objective value. */
struct CostBreakdown
{
    Seconds comm = 0.0;
    Seconds comp = 0.0;

    Seconds total() const { return comm + comp; }
};

/**
 * Evaluate Eq. 2 for a concrete (A, S) pair; the layout A enters only
 * through S, which must already respect it. The pair term folds the
 * experts into one exact token count per (source, destination) pair
 * and adds one tokens / bw(i, k) term per pair in (i, k) order — the
 * dense fold's order, with its zero pairs (which add exactly 0.0)
 * skipped — so the value is bit-identical to the dense formulation.
 *
 * @param cluster  Topology providing bw(i, k) and B_comp.
 * @param params   Layer workload constants (V_comm, V_comp, F_ckpt).
 * @param plan     Routing plan S.
 * @return the decomposed T_comm / T_comp objective value.
 */
CostBreakdown timeCost(const Cluster &cluster, const CostParams &params,
                       const RoutingPlanSparse &plan);

/**
 * Fast path used in the tuner's inner loop: identical maths to
 * timeCost but fed with precomputed per-destination token sums to
 * avoid rebuilding volume matrices.
 *
 * @param cluster                Topology providing B_comp.
 * @param params                 Layer workload constants.
 * @param recv_tokens            Tokens received per destination device.
 * @param pair_sum_over_bw_bytes Precomputed sum of S[i][j][k] / bw(i, k)
 *                               in token-seconds per byte.
 * @return the decomposed objective, equal to timeCost on the same plan.
 */
CostBreakdown timeCostFromSums(const Cluster &cluster,
                               const CostParams &params,
                               const std::vector<TokenCount> &recv_tokens,
                               Seconds pair_sum_over_bw_bytes);

} // namespace laer

#endif // LAER_PLANNER_COST_MODEL_HH
