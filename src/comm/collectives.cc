#include "comm/collectives.hh"

#include <algorithm>

#include "core/error.hh"

namespace laer
{

VolumeMatrix
zeroVolume(int n_devices)
{
    return VolumeMatrix(n_devices, std::vector<Bytes>(n_devices, 0));
}

void
A2aPortLoads::reset(int n_devices)
{
    const auto n = static_cast<std::size_t>(n_devices);
    sendIntra.assign(n, 0);
    sendInter.assign(n, 0);
    recvIntra.assign(n, 0);
    recvInter.assign(n, 0);
}

Seconds
a2aBottleneckTimeFromLoads(const Cluster &cluster,
                           const A2aPortLoads &loads, bool transpose)
{
    const int n = cluster.numDevices();
    LAER_ASSERT(static_cast<int>(loads.sendIntra.size()) == n &&
                    static_cast<int>(loads.recvIntra.size()) == n,
                "port loads do not match cluster");
    const std::vector<Bytes> &send_intra =
        transpose ? loads.recvIntra : loads.sendIntra;
    const std::vector<Bytes> &send_inter =
        transpose ? loads.recvInter : loads.sendInter;
    const std::vector<Bytes> &recv_intra =
        transpose ? loads.sendIntra : loads.recvIntra;
    const std::vector<Bytes> &recv_inter =
        transpose ? loads.sendInter : loads.recvInter;
    Seconds busiest = 0.0;
    for (DeviceId d = 0; d < n; ++d) {
        const auto i = static_cast<std::size_t>(d);
        const Seconds send_t =
            static_cast<double>(send_intra[i]) / cluster.intraBw() +
            static_cast<double>(send_inter[i]) / cluster.interBw();
        const Seconds recv_t =
            static_cast<double>(recv_intra[i]) / cluster.intraBw() +
            static_cast<double>(recv_inter[i]) / cluster.interBw();
        busiest = std::max({busiest, send_t, recv_t});
    }
    if (busiest == 0.0)
        return 0.0;
    return kCollectiveAlpha + busiest;
}

Seconds
a2aUniformTime(const Cluster &cluster, const std::vector<DeviceId> &group,
               Bytes bytes_per_pair)
{
    const int p = static_cast<int>(group.size());
    if (p <= 1 || bytes_per_pair == 0)
        return 0.0;
    // Sec. 3.1: regular balanced All-to-All — each device sends the
    // same volume to every peer, so the busiest port defines the time.
    // A device's intra-node peers are the other members on its node and
    // the rest of the group is inter-node, so one count per node gives
    // each device's port bytes in O(|group|).
    std::vector<int> on_node(static_cast<std::size_t>(cluster.numNodes()),
                             0);
    for (DeviceId d : group)
        ++on_node[static_cast<std::size_t>(cluster.node(d))];
    Seconds busiest = 0.0;
    for (DeviceId d : group) {
        const int local = on_node[static_cast<std::size_t>(cluster.node(d))];
        const Bytes intra = (local - 1) * bytes_per_pair;
        const Bytes inter = (p - local) * bytes_per_pair;
        const Seconds t = static_cast<double>(intra) / cluster.intraBw() +
                          static_cast<double>(inter) / cluster.interBw();
        busiest = std::max(busiest, t);
    }
    return kCollectiveAlpha + busiest;
}

namespace
{

/** Slowest edge along the natural ring ordering of a device group. */
double
ringBottleneckBw(const Cluster &cluster, const std::vector<DeviceId> &group)
{
    const int p = static_cast<int>(group.size());
    double min_bw = cluster.intraBw();
    for (int i = 0; i < p; ++i) {
        const DeviceId a = group[i];
        const DeviceId b = group[(i + 1) % p];
        min_bw = std::min(min_bw, cluster.bw(a, b));
    }
    return min_bw;
}

} // namespace

Seconds
allGatherTime(const Cluster &cluster, const std::vector<DeviceId> &group,
              Bytes bytes_total)
{
    const int p = static_cast<int>(group.size());
    if (p <= 1 || bytes_total == 0)
        return 0.0;
    const double bw = ringBottleneckBw(cluster, group);
    const double wire =
        static_cast<double>(bytes_total) * (p - 1) / p;
    return kCollectiveAlpha + wire / bw;
}

Seconds
reduceScatterTime(const Cluster &cluster, const std::vector<DeviceId> &group,
                  Bytes bytes_total)
{
    return allGatherTime(cluster, group, bytes_total);
}

Seconds
allReduceTime(const Cluster &cluster, const std::vector<DeviceId> &group,
              Bytes bytes_total)
{
    if (group.size() <= 1 || bytes_total == 0)
        return 0.0;
    return reduceScatterTime(cluster, group, bytes_total) +
           allGatherTime(cluster, group, bytes_total);
}

} // namespace laer
