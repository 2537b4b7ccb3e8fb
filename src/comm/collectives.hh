/**
 * @file
 * Collective-communication cost models.
 *
 * These are runtime-style costs: they model what a NCCL-like
 * implementation actually achieves, with all pairs progressing in
 * parallel and each device's NIC / NVLink occupancy the bottleneck.
 * The simulator charges them. The planner optimises the paper's
 * analytical objective instead (Sec. 3.2: per-pair volumes divided by
 * bw(i, k) and summed), which lives in planner/cost_model.hh.
 */

#ifndef LAER_COMM_COLLECTIVES_HH
#define LAER_COMM_COLLECTIVES_HH

#include <vector>

#include "core/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/** Per-operation launch/latency overhead of one collective (seconds).
 * Approximates NCCL kernel launch plus rendezvous on small messages. */
constexpr Seconds kCollectiveAlpha = 20e-6;

/** Per-device byte matrix for an All-to-All: volume[i][k] is sent from
 * device i to device k. Diagonal entries are local copies. */
using VolumeMatrix = std::vector<std::vector<Bytes>>;

/** Build an N x N zero volume matrix. */
VolumeMatrix zeroVolume(int n_devices);

/**
 * Runtime All-to-All duration under a per-port occupancy model: every
 * device sends and receives concurrently; intra-node traffic shares
 * the NVLink port, inter-node traffic the NIC. The op finishes when
 * the busiest port drains. Local (diagonal) traffic is free.
 */
Seconds a2aBottleneckTime(const Cluster &cluster,
                          const VolumeMatrix &volume);

/**
 * Per-device port occupancy of one All-to-All, split by port class —
 * the four integer byte sums a2aBottleneckTime folds a dense
 * VolumeMatrix down to. Sparse plan pricing fills these directly
 * (planner/routing_plan_sparse.hh) so the O(N^2) matrix never exists;
 * because the sums are exact integers the resulting times are
 * bit-identical to the dense path.
 */
struct A2aPortLoads
{
    std::vector<Bytes> sendIntra; //!< bytes to same-node peers
    std::vector<Bytes> sendInter; //!< bytes to other-node peers
    std::vector<Bytes> recvIntra;
    std::vector<Bytes> recvInter;

    /** Resize to n devices and zero every counter (storage reused). */
    void reset(int n_devices);

    /** Charge `bytes` sent from src to dst (src != dst) to the port
     * class their node membership selects. */
    void add(const Cluster &cluster, DeviceId src, DeviceId dst,
             Bytes bytes)
    {
        const auto i = static_cast<std::size_t>(src);
        const auto k = static_cast<std::size_t>(dst);
        if (cluster.sameNode(src, dst)) {
            sendIntra[i] += bytes;
            recvIntra[k] += bytes;
        } else {
            sendInter[i] += bytes;
            recvInter[k] += bytes;
        }
    }
};

/**
 * a2aBottleneckTime evaluated from precomputed port loads.
 * @param cluster    Topology providing the two port bandwidths.
 * @param loads      Per-device byte sums (diagonal traffic excluded).
 * @param transpose  Price the reversed (combine) direction: send and
 *                   receive roles swap, which is exactly the transpose
 *                   of the underlying volume matrix.
 */
Seconds a2aBottleneckTimeFromLoads(const Cluster &cluster,
                                   const A2aPortLoads &loads,
                                   bool transpose = false);

/**
 * Balanced All-to-All over a device group where every device exchanges
 * `bytes_per_pair` with every other member (FSEP unshard/reshard uses
 * exactly this pattern). `group` holds distinct global device ids.
 * O(|group| + nodes).
 */
Seconds a2aUniformTime(const Cluster &cluster,
                       const std::vector<DeviceId> &group,
                       Bytes bytes_per_pair);

/**
 * Ring AllGather over `group`: each device ends with `bytes_total`
 * (the gathered buffer); (P-1)/P of it crosses the slowest ring edge.
 */
Seconds allGatherTime(const Cluster &cluster,
                      const std::vector<DeviceId> &group, Bytes bytes_total);

/** Ring ReduceScatter: same wire cost as AllGather. */
Seconds reduceScatterTime(const Cluster &cluster,
                          const std::vector<DeviceId> &group,
                          Bytes bytes_total);

/** Ring AllReduce = ReduceScatter + AllGather. */
Seconds allReduceTime(const Cluster &cluster,
                      const std::vector<DeviceId> &group, Bytes bytes_total);

} // namespace laer

#endif // LAER_COMM_COLLECTIVES_HH
