/**
 * @file
 * Planner data types: routing matrix R, expert layout A, token routing
 * plan S (paper Tab. 1 notation).
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

#include <vector>

#include "core/error.hh"
#include "core/types.hh"

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
