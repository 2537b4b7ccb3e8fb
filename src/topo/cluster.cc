#include "topo/cluster.hh"

#include <sstream>

namespace laer
{

Cluster::Cluster(int num_nodes, int devices_per_node,
                 double intra_bw, double inter_bw, double compute_flops)
    : numNodes_(num_nodes), devicesPerNode_(devices_per_node),
      intraBw_(intra_bw), interBw_(inter_bw), computeFlops_(compute_flops)
{
    LAER_CHECK(num_nodes >= 1, "cluster needs at least one node");
    LAER_CHECK(devices_per_node >= 1, "node needs at least one device");
    LAER_CHECK(intra_bw > 0 && inter_bw > 0, "bandwidths must be positive");
    LAER_CHECK(compute_flops > 0, "compute throughput must be positive");
}

Cluster
Cluster::a100(int num_nodes, int devices_per_node)
{
    // Sec. 5.1: 300 GB/s unidirectional NVLink; 800 Gbps IB per node
    // = 100 GB/s shared by the node's devices (12.5 GB/s per device
    // with 8 GPUs). Compute derated to 68% of the A100's 312 TFLOPs
    // bf16 peak — with these constants Eq. 1's overlap threshold
    // evaluates to ~17K tokens, matching the paper's own number.
    const double gb = 1e9;
    const double nic_per_device = 100.0 * gb / devices_per_node;
    return Cluster(num_nodes, devices_per_node,
                   300.0 * gb, nic_per_device, 0.68 * 312e12);
}

Cluster
Cluster::contiguousSlice(DeviceId first, int count) const
{
    LAER_CHECK(first >= 0 && count >= 1 && first + count <= numDevices(),
               "device range [" << first << ", " << first + count
                                << ") outside the cluster");
    if (first % devicesPerNode_ == 0 && count % devicesPerNode_ == 0)
        return Cluster(count / devicesPerNode_, devicesPerNode_,
                       intraBw_, interBw_, computeFlops_);
    LAER_CHECK(node(first) == node(first + count - 1),
               "device range [" << first << ", " << first + count
                                << ") straddles a node boundary with "
                                   "partial nodes");
    return Cluster(1, count, intraBw_, interBw_, computeFlops_);
}

bool
Cluster::isNodeRegularSlice(DeviceId first, int count) const
{
    if (first < 0 || count < 1 || first + count > numDevices())
        return false;
    if (first % devicesPerNode_ == 0 && count % devicesPerNode_ == 0)
        return true;
    return node(first) == node(first + count - 1);
}

std::string
Cluster::describe() const
{
    std::ostringstream oss;
    oss << numNodes_ << "x" << devicesPerNode_ << " devices, "
        << intraBw_ / 1e9 << " GB/s intra, "
        << interBw_ / 1e9 << " GB/s inter, "
        << computeFlops_ / 1e12 << " TFLOP/s";
    return oss.str();
}

} // namespace laer
