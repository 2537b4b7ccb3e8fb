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
 * source: `ReplicaIndex` precomputes them once per layout (global CSR
 * per expert plus per-(node, expert) intra lists) so the per-rank
 * dispatch is allocation-free. Every routing entry point — dense
 * `liteRouting`, the sparse builder in planner/routing_plan_sparse.hh
 * and the fused scorer `scoreLiteRouting` — shares this index and the
 * `forEachLiteShare` split rule, which is what keeps the three paths
 * exactly consistent.
 */

#ifndef LAER_PLANNER_LITE_ROUTING_HH
#define LAER_PLANNER_LITE_ROUTING_HH

#include "core/error.hh"
#include "planner/cost_model.hh"
#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/**
 * Per-layout precompute of Alg. 3's candidate replica sets: for every
 * expert the global replica list, and for every (node, expert) pair
 * the intra-node replica list — both device-ascending with replica
 * multiplicity, the exact order the Alg. 3 remainder rotation is
 * defined over. Stored as flat CSR arrays so a rebuild on a fresh
 * layout reuses the storage (the serving engine keeps one per layer
 * across steps).
 */
class ReplicaIndex
{
  public:
    ReplicaIndex() = default;

    /** Build for a layout (equivalent to rebuild on a fresh index). */
    ReplicaIndex(const Cluster &cluster, const ExpertLayout &layout)
    {
        rebuild(cluster, layout);
    }

    /**
     * Recompute the lists for a new layout, reusing storage.
     * @param cluster  Topology (node membership).
     * @param layout   Expert layout A the lists are drawn from.
     */
    void rebuild(const Cluster &cluster, const ExpertLayout &layout);

    int numExperts() const { return numExperts_; }
    int numNodes() const { return numNodes_; }

    /** Global replica list of expert j (devices, with multiplicity). */
    const DeviceId *all(ExpertId j) const
    {
        return allDev_.data() + allOff_[static_cast<std::size_t>(j)];
    }

    /** Length of the global replica list of expert j. */
    std::size_t allCount(ExpertId j) const
    {
        return allOff_[static_cast<std::size_t>(j) + 1] -
               allOff_[static_cast<std::size_t>(j)];
    }

    /** Intra-node replica list of expert j on node m. */
    const DeviceId *intra(NodeId m, ExpertId j) const
    {
        return intraDev_.data() + intraOff_[cell(m, j)];
    }

    /** Length of the intra-node replica list of expert j on node m. */
    std::size_t intraCount(NodeId m, ExpertId j) const
    {
        return intraOff_[cell(m, j) + 1] - intraOff_[cell(m, j)];
    }

    /**
     * Alg. 3 target set for a source on node m: the intra-node list
     * when non-empty, otherwise the global list.
     * @param m      Source node.
     * @param j      Expert.
     * @param count  Out: number of targets.
     * @return pointer to the target devices (with multiplicity).
     */
    const DeviceId *targets(NodeId m, ExpertId j,
                            std::size_t &count) const
    {
        const std::size_t ic = intraCount(m, j);
        if (ic > 0) {
            count = ic;
            return intra(m, j);
        }
        count = allCount(j);
        return all(j);
    }

  private:
    std::size_t cell(NodeId m, ExpertId j) const
    {
        return static_cast<std::size_t>(m) * numExperts_ +
               static_cast<std::size_t>(j);
    }

    int numExperts_ = 0;
    int numNodes_ = 0;
    std::vector<std::size_t> allOff_;   //!< E + 1 offsets
    std::vector<DeviceId> allDev_;      //!< global lists, concatenated
    std::vector<std::size_t> intraOff_; //!< nodes * E + 1 offsets
    std::vector<DeviceId> intraDev_;    //!< intra lists, concatenated
};

/**
 * Alg. 3 share split for one (source, expert) pair: tokens divide
 * evenly across the target list, with the integer remainder assigned
 * round-robin from slot (rank % |targets|). Emits (destination,
 * share) for every non-zero share, in rotation order — the common
 * core of the dense plan builder, the sparse plan builder and the
 * fused scorer.
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
 * ReplicaIndex built once and shared across ranks.
 *
 * @param cluster  Topology.
 * @param routing  Routing matrix R.
 * @param layout   Global expert layout A.
 * @return the full dense routing plan S.
 */
RoutingPlan liteRouting(const Cluster &cluster,
                        const RoutingMatrix &routing,
                        const ExpertLayout &layout);

/** Aggregates produced by the fused route-and-score pass. */
struct LiteRoutingScore
{
    CostBreakdown cost;              //!< Eq. 2 value
    std::vector<TokenCount> recv;    //!< tokens per destination
};

/**
 * Fused lite routing + cost evaluation (the "efficient C++ core" of
 * Sec. 4): the same Eq. 2 objective that timeCost(liteRouting(...))
 * reports, up to floating-point summation order, but without
 * materialising the dense N x E x N plan — the tuner's inner loop
 * runs this once per candidate replica scheme, keeping the solver
 * inside the per-layer time budget even at 1024 devices (Fig. 11).
 * timeCost() adds one term per device pair after folding the
 * experts, so its comm term can differ in the last bits. Shares are
 * visited in the tuner's (source, expert, slot) per-share order, so
 * the pair cost is bit-identical to the seed tuner's own scoring —
 * scheme comparisons (and therefore every fig11-14/tab04 output) are
 * reproduced exactly.
 *
 * @param cluster  Topology.
 * @param routing  Routing matrix R.
 * @param layout   Candidate expert layout A.
 * @param params   Cost constants for the Eq. 2 evaluation.
 * @return the Eq. 2 breakdown and per-destination received tokens.
 */
LiteRoutingScore scoreLiteRouting(const Cluster &cluster,
                                  const RoutingMatrix &routing,
                                  const ExpertLayout &layout,
                                  const CostParams &params);

/**
 * scoreLiteRouting against a prebuilt ReplicaIndex, for callers that
 * already hold one for the layout (the layout overload simply builds
 * a throw-away index and forwards here).
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

/**
 * Aggregated scorer for the 512-1024-device regime: the same Eq. 2
 * objective evaluated per (node, expert) instead of per (source,
 * expert, replica). Every source in a node shares the Alg. 3 target
 * list, so received tokens accumulate through a difference array over
 * the remainder rotation and the wire term reduces to two exact
 * integer token sums (intra-/inter-node) divided by the two
 * bandwidths — O(nodes * E * replicas) instead of
 * O(N * E * replicas). recv is exactly the dense plan's; the pair
 * cost is the mathematically identical sum with different
 * floating-point rounding (in fact tighter: two divisions instead of
 * one per share), which can re-order schemes whose costs tie at
 * machine precision — hence opt-in (TunerConfig::fastScoring) rather
 * than the default.
 *
 * @param cluster  Topology.
 * @param routing  Routing matrix R.
 * @param layout   Candidate expert layout A.
 * @param params   Cost constants for the Eq. 2 evaluation.
 * @return the Eq. 2 breakdown and per-destination received tokens.
 */
LiteRoutingScore scoreLiteRoutingFast(const Cluster &cluster,
                                      const RoutingMatrix &routing,
                                      const ExpertLayout &layout,
                                      const CostParams &params);

/** scoreLiteRoutingFast against a prebuilt ReplicaIndex. */
LiteRoutingScore scoreLiteRoutingFast(const Cluster &cluster,
                                      const RoutingMatrix &routing,
                                      const ReplicaIndex &index,
                                      const CostParams &params);

} // namespace laer

#endif // LAER_PLANNER_LITE_ROUTING_HH
