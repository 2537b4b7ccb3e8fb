/**
 * @file
 * Planner data types: routing matrix R, expert layout A and its
 * compact replica lists (ReplicaIndex), token routing plan S (paper
 * Tab. 1 notation).
 *
 * R[i][j]  — tokens on device i whose gate selected expert j.
 * A[d][e]  — number of replicas of expert e restored on device d
 *            (0/1 in practice; counts are supported for robustness).
 * S[i][j][k] — tokens from device i for expert j sent to device k.
 *
 * Every routing and pricing path uses the compressed plan in
 * planner/routing_plan_sparse.hh. RoutingPlan stores S dense; it is
 * the input format of IterationSpec::layerPlans and the output of
 * dense liteRouting, and the reference formulations over it live in
 * the test oracle (tests/oracle/dense_plan.hh).
 */

#ifndef LAER_PLANNER_TYPES_HH
#define LAER_PLANNER_TYPES_HH

#include <utility>
#include <vector>

#include "core/error.hh"
#include "core/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/** Dense N x E token-count matrix produced by the gating network. */
class RoutingMatrix
{
  public:
    RoutingMatrix() = default;

    /** Create an all-zero N x E matrix. */
    RoutingMatrix(int n_devices, int n_experts);

    int numDevices() const { return numDevices_; }
    int numExperts() const { return numExperts_; }

    /** Mutable token count on device i for expert j. */
    TokenCount &at(DeviceId i, ExpertId j)
    {
        LAER_ASSERT(i >= 0 && i < numDevices_ && j >= 0 && j < numExperts_,
                    "routing index out of range");
        return data_[static_cast<std::size_t>(i) * numExperts_ + j];
    }

    /** Token count on device i for expert j. */
    TokenCount at(DeviceId i, ExpertId j) const
    {
        LAER_ASSERT(i >= 0 && i < numDevices_ && j >= 0 && j < numExperts_,
                    "routing index out of range");
        return data_[static_cast<std::size_t>(i) * numExperts_ + j];
    }

    /** Add another N x E matrix into this one, cell by cell. */
    void accumulate(const RoutingMatrix &other);

    /** Zero every cell, keeping the shape. */
    void clear();

    /** Column sums: total tokens destined for each expert. */
    std::vector<TokenCount> expertLoads() const;

    /** Row sums: tokens generated on each device. */
    std::vector<TokenCount> deviceTokens() const;

    /** Grand total of routed tokens (counting top-k multiplicity). */
    TokenCount totalTokens() const;

  private:
    int numDevices_ = 0;
    int numExperts_ = 0;
    std::vector<TokenCount> data_;
};

/** Replica placement of experts onto devices. */
class ExpertLayout
{
  public:
    ExpertLayout() = default;

    /** Create an empty layout for N devices and E experts. */
    ExpertLayout(int n_devices, int n_experts);

    int numDevices() const { return numDevices_; }
    int numExperts() const { return numExperts_; }

    /** Mutable replica count of expert e on device d. */
    int &at(DeviceId d, ExpertId e)
    {
        LAER_ASSERT(d >= 0 && d < numDevices_ && e >= 0 && e < numExperts_,
                    "layout index out of range");
        return data_[static_cast<std::size_t>(d) * numExperts_ + e];
    }

    /** Replica count of expert e on device d. */
    int at(DeviceId d, ExpertId e) const
    {
        LAER_ASSERT(d >= 0 && d < numDevices_ && e >= 0 && e < numExperts_,
                    "layout index out of range");
        return data_[static_cast<std::size_t>(d) * numExperts_ + e];
    }

    /** Devices hosting at least one replica of expert e. */
    std::vector<DeviceId> replicaDevices(ExpertId e) const;

    /** Total replicas of expert e across the cluster. */
    int replicaCount(ExpertId e) const;

    /** Number of expert slots used on device d (sum of counts). */
    int slotsUsed(DeviceId d) const;

    /**
     * True iff every device uses exactly `capacity` slots and every
     * expert has at least one replica — the feasibility conditions of
     * the optimisation problem (Sec. 3.2).
     */
    bool feasible(int capacity) const;

    /** Equality (same placement). */
    bool operator==(const ExpertLayout &other) const
    {
        return numDevices_ == other.numDevices_ &&
               numExperts_ == other.numExperts_ && data_ == other.data_;
    }

  private:
    int numDevices_ = 0;
    int numExperts_ = 0;
    std::vector<int> data_;
};

/**
 * Compact form of a layout, and Alg. 3's candidate replica sets: for
 * every expert the global replica list, and for every (node, expert)
 * pair the intra-node replica list, both device-ascending with
 * replica multiplicity, the exact order the Alg. 3 remainder rotation
 * is defined over. Devices are numbered node-major, so each intra
 * list is a contiguous sub-range of its expert's global list: one
 * device array, expert-major, with one offset per (expert, node) cell
 * serves both. Alg. 1 writes these arrays directly
 * (expertRelocationIndex); rebuild() derives them from a layout.
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

    /** Adopt prebuilt arrays by move: `off` holds E * n_nodes + 1
     * offsets into `dev`, cell (j, m) at j * n_nodes + m. */
    ReplicaIndex(int n_devices, int n_nodes, std::vector<std::size_t> off,
                 std::vector<DeviceId> dev)
        : numDevices_(n_devices),
          numExperts_(static_cast<int>((off.size() - 1) / n_nodes)),
          numNodes_(n_nodes), off_(std::move(off)), dev_(std::move(dev))
    {
    }

    /**
     * Recompute the lists for a new layout, reusing storage.
     * @param cluster  Topology (node membership).
     * @param layout   Expert layout A the lists are drawn from.
     */
    void rebuild(const Cluster &cluster, const ExpertLayout &layout);

    /** The N x E layout these lists describe (replica counts). */
    ExpertLayout layout() const;

    int numDevices() const { return numDevices_; }
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

    int numDevices_ = 0;
    int numExperts_ = 0;
    int numNodes_ = 0;
    std::vector<std::size_t> off_; //!< E * nodes + 1 offsets into dev_
    std::vector<DeviceId> dev_;    //!< replica lists, expert-major
};

/** Token routing decision S[i][j][k]. */
class RoutingPlan
{
  public:
    RoutingPlan() = default;

    /** Create an all-zero N x E x N plan. */
    RoutingPlan(int n_devices, int n_experts);

    int numDevices() const { return numDevices_; }
    int numExperts() const { return numExperts_; }

    /** Mutable tokens from device i for expert j routed to device k. */
    TokenCount &at(DeviceId i, ExpertId j, DeviceId k);

    /** Tokens from device i for expert j routed to device k. */
    TokenCount at(DeviceId i, ExpertId j, DeviceId k) const;

  private:
    std::size_t index(DeviceId i, ExpertId j, DeviceId k) const;

    int numDevices_ = 0;
    int numExperts_ = 0;
    std::vector<TokenCount> data_;
};

} // namespace laer

#endif // LAER_PLANNER_TYPES_HH
