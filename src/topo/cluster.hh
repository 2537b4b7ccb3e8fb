/**
 * @file
 * Cluster topology model.
 *
 * Mirrors the paper's experimental platform (Sec. 5.1): nodes of
 * NVLink-connected GPUs joined by InfiniBand, exposing exactly the two
 * primitives the planner's cost model consumes — node(i) and bw(i, j)
 * (Tab. 1). Compute capability per device is also recorded here so the
 * roofline expert-compute model has a single source of truth.
 */

#ifndef LAER_TOPO_CLUSTER_HH
#define LAER_TOPO_CLUSTER_HH

#include <string>

#include "core/error.hh"
#include "core/types.hh"

namespace laer
{

/**
 * A homogeneous two-level cluster: `numNodes` hosts, each with
 * `devicesPerNode` accelerators. Devices are globally numbered
 * node-major: device i lives on node i / devicesPerNode.
 */
class Cluster
{
  public:
    /**
     * @param num_nodes         Number of hosts.
     * @param devices_per_node  Accelerators per host.
     * @param intra_bw          Unidirectional intra-node bandwidth, B/s.
     * @param inter_bw          Unidirectional inter-node bandwidth per
     *                          device, B/s.
     * @param compute_flops     Peak per-device throughput, FLOP/s.
     */
    Cluster(int num_nodes, int devices_per_node,
            double intra_bw, double inter_bw, double compute_flops);

    /** Paper's evaluation platform: nodes x 8xA100, NVLink 300 GB/s,
     * IB 800 Gbps (= 100 GB/s per direction), 312 TFLOPs bf16. */
    static Cluster a100(int num_nodes, int devices_per_node = 8);

    /** Total number of devices N. */
    int numDevices() const { return numNodes_ * devicesPerNode_; }

    /** Number of hosts. */
    int numNodes() const { return numNodes_; }

    /** Accelerators per host. */
    int devicesPerNode() const { return devicesPerNode_; }

    /** Node hosting device i (the paper's node(i)). */
    NodeId node(DeviceId i) const
    {
        LAER_ASSERT(i >= 0 && i < numDevices(), "device id out of range");
        return i / devicesPerNode_;
    }

    /** Devices on the same node appear consecutively; first device. */
    DeviceId firstDeviceOf(NodeId n) const
    {
        LAER_ASSERT(n >= 0 && n < numNodes_, "node id out of range");
        return n * devicesPerNode_;
    }

    /** True if both devices share a host. */
    bool sameNode(DeviceId a, DeviceId b) const { return node(a) == node(b); }

    /**
     * Point-to-point bandwidth between devices i and j in bytes/s
     * (the paper's bw(i, j)). Self-transfers return the intra-node
     * bandwidth: local copies are never the bottleneck and the cost
     * model divides by this value.
     */
    double bw(DeviceId i, DeviceId j) const
    {
        return sameNode(i, j) ? intraBw_ : interBw_;
    }

    /** Intra-node (NVLink) unidirectional bandwidth, B/s. */
    double intraBw() const { return intraBw_; }

    /** Inter-node (IB) unidirectional bandwidth per device, B/s. */
    double interBw() const { return interBw_; }

    /**
     * Topology of a contiguous device range [first, first + count), as
     * a standalone Cluster with the same bandwidths and compute. The
     * range must be node-regular: either whole nodes (count a multiple
     * of devicesPerNode with first node-aligned) or a span inside one
     * node — a slice straddling a node boundary with partial nodes has
     * no two-level geometry and is rejected.
     */
    Cluster contiguousSlice(DeviceId first, int count) const;

    /**
     * True when [first, first + count) has a two-level geometry —
     * i.e. contiguousSlice() would accept it. The control plane uses
     * this to snap pool-boundary moves to legal cut points instead of
     * discovering the constraint as a FatalError mid-run.
     */
    bool isNodeRegularSlice(DeviceId first, int count) const;

    /** Peak per-device compute throughput, FLOP/s (B_comp). */
    double computeFlops() const { return computeFlops_; }

    /** Human-readable summary, e.g. "4x8 A100-like". */
    std::string describe() const;

  private:
    int numNodes_;
    int devicesPerNode_;
    double intraBw_;
    double interBw_;
    double computeFlops_;
};

} // namespace laer

#endif // LAER_TOPO_CLUSTER_HH
