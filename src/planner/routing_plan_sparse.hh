/**
 * @file
 * Sparse token routing plan — the hot-path representation of S.
 *
 * The dense RoutingPlan stores N x E x N token counts: 67M entries
 * per layer at 1024 devices x 64 experts, almost all zero, because a
 * source routes each expert's tokens to at most |replica set| (and
 * under lite routing usually to a handful of) destinations. The
 * serving step pricer touches S once per layer per step, so at scale
 * the dense materialisation dominates the planner/serving wall time.
 *
 * RoutingPlanSparse stores, per source rank, a CSR row of
 * (expert, destination, tokens) triples. Everything the pricer needs
 * comes straight off the triples in O(nnz): received tokens per
 * device, and the four per-device port-load sums
 * (comm/collectives.hh) that the All-to-All port model reduces a
 * dense volume matrix to — so neither the dense S nor the dense
 * dispatch / combine volume matrices are ever built. All sums are
 * exact integer arithmetic, which keeps every priced time
 * bit-identical to the dense reference in tests/oracle/dense_plan.hh.
 */

#ifndef LAER_PLANNER_ROUTING_PLAN_SPARSE_HH
#define LAER_PLANNER_ROUTING_PLAN_SPARSE_HH

#include <cstddef>
#include <vector>

#include "comm/collectives.hh"
#include "core/error.hh"
#include "planner/lite_routing.hh"
#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/** Per-rank CSR of (expert, destination, tokens) triples. */
class RoutingPlanSparse
{
  public:
    /** One non-zero S[i][j][k] cell; the source i is implicit in the
     * row structure. */
    struct Entry
    {
        ExpertId expert = 0;
        DeviceId dst = 0;
        TokenCount tokens = 0;
    };

    RoutingPlanSparse() = default;

    /** Empty plan for N devices and E experts. */
    RoutingPlanSparse(int n_devices, int n_experts) { clear(n_devices, n_experts); }

    /** Reset to an empty N x E plan, reusing entry storage. */
    void clear(int n_devices, int n_experts);

    int numDevices() const { return numDevices_; }
    int numExperts() const { return numExperts_; }

    /** Number of stored (non-zero) triples. */
    std::size_t nnz() const { return entries_.size(); }

    /**
     * Append one triple to the row of `rank`. Rows must be built in
     * ascending rank order (CSR discipline); duplicate (expert, dst)
     * cells within a row are allowed and sum.
     */
    void add(DeviceId rank, ExpertId expert, DeviceId dst,
             TokenCount tokens)
    {
        LAER_ASSERT(rank >= 0 && rank < numDevices_ && expert >= 0 &&
                        expert < numExperts_ && dst >= 0 &&
                        dst < numDevices_,
                    "sparse plan index out of range");
        LAER_ASSERT(rank >= curRow_,
                    "sparse plan rows must be appended in rank order");
        // Ranks skipped since the last append have empty rows starting
        // (and ending) at the current entry count.
        for (int r = curRow_ + 1; r <= rank; ++r)
            rowOff_[static_cast<std::size_t>(r)] = entries_.size();
        curRow_ = rank;
        entries_.push_back({expert, dst, tokens});
    }

    /** Entries of one source rank's row. */
    const Entry *row(DeviceId rank, std::size_t &count) const;

    /** Compress a dense plan (IterationSpec::layerPlans input). */
    static RoutingPlanSparse fromDense(const RoutingPlan &dense);

    /** Tokens device k receives for computation: sum over triples. */
    std::vector<TokenCount> receivedTokens() const;

    /** receivedTokens into a caller-owned buffer (no allocation). */
    void receivedTokens(std::vector<TokenCount> &out) const;

    /**
     * Dispatch port loads in bytes: per-device send/recv sums split
     * by port class, exactly what the dense dispatch volume matrix
     * folds to under the port model (diagonal excluded).
     * The combine direction is the same loads transposed
     * (a2aBottleneckTimeFromLoads(..., true)).
     *
     * @param cluster          Topology (node membership).
     * @param bytes_per_token  Per-token payload.
     * @param out              Filled loads (reset to this plan's size).
     */
    void portLoads(const Cluster &cluster, Bytes bytes_per_token,
                   A2aPortLoads &out) const;

  private:
    int numDevices_ = 0;
    int numExperts_ = 0;
    int curRow_ = -1;                 //!< highest rank with entries
    std::vector<std::size_t> rowOff_; //!< row starts for ranks
                                      //!< [0, curRow_]; later rows are
                                      //!< empty until appended to
    std::vector<Entry> entries_;
};

/**
 * Lite routing straight into sparse form: Alg. 3 against a prebuilt
 * ReplicaIndex, emitting only the non-zero shares. The produced plan
 * is exactly liteRouting()'s dense result compressed.
 *
 * @param cluster  Topology.
 * @param routing  Routing matrix R.
 * @param index    Replica lists of the layout being routed against.
 * @param plan     Output; cleared and filled (storage reused).
 */
void liteRoutingSparse(const Cluster &cluster,
                       const RoutingMatrix &routing,
                       const ReplicaIndex &index,
                       RoutingPlanSparse &plan);

} // namespace laer

#endif // LAER_PLANNER_ROUTING_PLAN_SPARSE_HH
