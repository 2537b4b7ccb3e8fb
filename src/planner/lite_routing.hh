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
 * dispatch is allocation-free. The routing entry points — the sparse
 * builder `liteRoutingSparse` (planner/routing_plan_sparse.hh) that
 * every pricing path uses, the fused scorer `scoreLiteRouting`, and
 * dense `liteRouting`, kept for IterationSpec::layerPlans inputs —
 * share this index and the `forEachLiteShare` split rule, which is
 * what keeps them exactly consistent.
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
 * defined over. Devices are numbered node-major, so each intra list
 * is a contiguous sub-range of its expert's global list: one device
 * array, expert-major and device-ascending, with one offset per
 * (expert, node) cell serves both. Flat arrays, so a rebuild on a
 * fresh layout reuses the storage (the serving engine keeps one per
 * layer across steps).
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
        return dev_.data() + off_[cell(j, 0)];
    }

    /** Length of the global replica list of expert j. */
    std::size_t allCount(ExpertId j) const
    {
        return off_[cell(j + 1, 0)] - off_[cell(j, 0)];
    }

    /** Intra-node replica list of expert j on node m. */
    const DeviceId *intra(NodeId m, ExpertId j) const
    {
        return dev_.data() + off_[cell(j, m)];
    }

    /** Length of the intra-node replica list of expert j on node m. */
    std::size_t intraCount(NodeId m, ExpertId j) const
    {
        return off_[cell(j, m) + 1] - off_[cell(j, m)];
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
    std::size_t cell(ExpertId j, NodeId m) const
    {
        return static_cast<std::size_t>(j) * numNodes_ +
               static_cast<std::size_t>(m);
    }

    int numExperts_ = 0;
    int numNodes_ = 0;
    std::vector<std::size_t> off_; //!< E * nodes + 1 offsets into dev_
    std::vector<DeviceId> dev_;    //!< replica lists, expert-major
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
 * ReplicaIndex built once and shared across ranks. Dense output for
 * IterationSpec::layerPlans; pricing routes with liteRoutingSparse.
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
 * Sec. 4): the same Eq. 2 objective that timeCost() reports on the
 * liteRoutingSparse plan, up to floating-point summation order, but
 * without materialising any plan — the tuner's inner loop runs this
 * once per candidate replica scheme, keeping the solver inside the
 * per-layer time budget even at 1024 devices (Fig. 11). timeCost()
 * adds one term per device pair after folding the experts, so its
 * comm term can differ in the last bits. Shares are visited in the
 * tuner's (source, expert, slot) per-share order, so
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
 * Node-aggregated scorer, opt-in at any scale: the same Eq. 2
 * objective evaluated per (node, expert) instead of per (source,
 * expert, replica). Every source in a node shares the Alg. 3 target
 * list, so received tokens accumulate through a difference array over
 * the remainder rotation and the wire term reduces to two exact
 * integer token sums (intra-/inter-node) divided by the two
 * bandwidths — O(nodes * E * replicas) instead of
 * O(N * E * replicas). recv is exactly the routed plan's; the pair
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
