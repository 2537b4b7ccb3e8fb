/**
 * @file
 * Lite routing — the synchronous token dispatcher (paper Alg. 3).
 *
 * Runs independently on every source device using only the global
 * expert layout (no global routing exchange): for each expert, if the
 * source's node hosts replicas, tokens split evenly across those
 * intra-node replicas; otherwise they split evenly across all replicas
 * cluster-wide. Integer remainders are assigned round-robin starting
 * at a source-dependent offset so no single replica systematically
 * collects every remainder.
 *
 * The replica target lists depend only on the layout, not on the
 * source: a `ReplicaIndex` (planner/types.hh) holds them once per
 * layout (global CSR per expert plus per-(node, expert) intra lists),
 * so the per-rank dispatch is allocation-free. The plan builders —
 * sparse `liteRoutingSparse` (planner/routing_plan_sparse.hh) and
 * dense `liteRouting`, kept for IterationSpec::layerPlans inputs —
 * share this index and the `forEachLiteShare` split rule. The serving
 * and training steps' kernel `liteRoutingLoads` and the tuner's scorer
 * `scoreLiteRouting` read the same index per (node, expert), in one
 * aggregate loop, and never visit a share; the tests hold the kernel
 * to the plan exactly.
 */

#ifndef LAER_PLANNER_LITE_ROUTING_HH
#define LAER_PLANNER_LITE_ROUTING_HH

#include <vector>

#include "comm/collectives.hh"
#include "core/error.hh"
#include "planner/cost_model.hh"
#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/**
 * Alg. 3 share split for one (source, expert) pair: tokens divide
 * evenly across the target list, with the integer remainder assigned
 * round-robin from slot (rank % |targets|). Emits (destination,
 * share) for every non-zero share, in rotation order — the common
 * core of the dense and the sparse plan builders.
 *
 * @param targets  Replica target list (ReplicaIndex::targets).
 * @param count    Number of targets; must be > 0.
 * @param rank     Source device (keys the remainder rotation).
 * @param tokens   Tokens to split; must be > 0.
 * @param emit     Callable emit(DeviceId dst, TokenCount share).
 */
template <typename Emit>
inline void
forEachLiteShare(const DeviceId *targets, std::size_t count,
                 DeviceId rank, TokenCount tokens, Emit &&emit)
{
    const auto n = static_cast<TokenCount>(count);
    const TokenCount base = tokens / n;
    TokenCount rem = tokens % n;
    const std::size_t start = static_cast<std::size_t>(rank) % count;
    for (std::size_t t = 0; t < count; ++t) {
        const std::size_t slot = (start + t) % count;
        TokenCount share = base;
        if (rem > 0) {
            ++share;
            --rem;
        }
        if (share == 0)
            continue;
        emit(targets[slot], share);
    }
}

/**
 * Route every source device's tokens (each row of R) against the
 * global layout: Alg. 3 runs independently per device, against one
 * ReplicaIndex built once and shared across ranks. Dense output for
 * IterationSpec::layerPlans; the steps price with liteRoutingLoads.
 *
 * @param cluster  Topology.
 * @param routing  Routing matrix R.
 * @param layout   Global expert layout A.
 * @return the full dense routing plan S.
 */
RoutingPlan liteRouting(const Cluster &cluster,
                        const RoutingMatrix &routing,
                        const ExpertLayout &layout);

/** Reusable buffers of the aggregate Alg. 3 loop. One caller at a
 * time: concurrent callers each own one. */
struct LiteRoutingScratch
{
    std::vector<TokenCount> diff;      //!< remainder-rotation slots
    std::vector<TokenCount> quot;      //!< per source in the node
    std::vector<std::size_t> rems;     //!< per source in the node
    std::vector<std::size_t> starts;   //!< per source in the node
};

/**
 * One layer's lite routing priced without a plan: the received tokens
 * and the dispatch port loads that liteRoutingSparse followed by
 * RoutingPlanSparse::receivedTokens and RoutingPlanSparse::portLoads
 * produce, exactly, straight from the (node, expert) totals.
 *
 * Per (node, expert) cell every source divides its tokens once
 * (quotient, remainder, rotation start); a difference array over the
 * target slots folds the remainders into each slot's received count,
 * and the self-shares of sources that host their own replica are
 * taken off the wire, as the scorer does. The work is
 * O(N * E + nodes * E * |targets|), against one division per share
 * for the plan. All sums are exact integers, so the loads, and every
 * time priced from them, are bit-identical to the plan's.
 *
 * @param cluster          Topology.
 * @param routing          Routing matrix R.
 * @param index            Replica lists of the layout in force.
 * @param bytes_per_token  Per-token payload.
 * @param scratch          Loop buffers (grown on demand, reused).
 * @param recv             Out: tokens per destination device.
 * @param loads            Out: dispatch port loads (the combine
 *                         direction is their transpose).
 */
void liteRoutingLoads(const Cluster &cluster, const RoutingMatrix &routing,
                      const ReplicaIndex &index, Bytes bytes_per_token,
                      LiteRoutingScratch &scratch,
                      std::vector<TokenCount> &recv, A2aPortLoads &loads);

/** Aggregates produced by the fused route-and-score pass. */
struct LiteRoutingScore
{
    CostBreakdown cost;              //!< Eq. 2 value
    std::vector<TokenCount> recv;    //!< tokens per destination
};

/**
 * Fused lite routing + cost evaluation (the "efficient C++ core" of
 * Sec. 4), the tuner's one scorer: the Eq. 2 objective that timeCost()
 * reports on the liteRoutingSparse plan, without materialising any
 * plan. It runs once per candidate replica scheme, keeping the solver
 * inside the per-layer time budget even at 1024 devices (Fig. 11).
 *
 * Evaluated per (node, expert) instead of per (source, expert,
 * replica), in liteRoutingLoads' loop: every source in a node shares
 * the Alg. 3 target list, so received tokens accumulate through a
 * difference array over the remainder rotation, and the wire term
 * reduces to two exact integer token sums (intra-/inter-node) divided
 * by the two bandwidths — O(nodes * E * replicas) instead of
 * O(N * E * replicas). recv is
 * exactly the routed plan's. The pair cost is the mathematically
 * identical sum with two divisions instead of one per share, so it
 * matches timeCost() and the per-share oracle in the test suite to
 * rounding only.
 *
 * @param cluster  Topology.
 * @param routing  Routing matrix R.
 * @param index    Replica lists of the candidate layout.
 * @param params   Cost constants for the Eq. 2 evaluation.
 * @return the Eq. 2 breakdown and per-destination received tokens.
 */
LiteRoutingScore scoreLiteRouting(const Cluster &cluster,
                                  const RoutingMatrix &routing,
                                  const ReplicaIndex &index,
                                  const CostParams &params);

/** scoreLiteRouting on a layout (builds a throw-away index). */
LiteRoutingScore scoreLiteRouting(const Cluster &cluster,
                                  const RoutingMatrix &routing,
                                  const ExpertLayout &layout,
                                  const CostParams &params);

} // namespace laer

#endif // LAER_PLANNER_LITE_ROUTING_HH
