/**
 * @file
 * Tests for the collective cost models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "comm/collectives.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

Cluster
twoNode()
{
    // 2 nodes x 2 devices, 100 GB/s intra, 10 GB/s inter, 1 TFLOP.
    return Cluster(2, 2, 100e9, 10e9, 1e12);
}

TEST(Collectives, ZeroVolumeShape)
{
    const auto v = zeroVolume(3);
    ASSERT_EQ(v.size(), 3u);
    for (const auto &row : v) {
        ASSERT_EQ(row.size(), 3u);
        for (Bytes b : row)
            EXPECT_EQ(b, 0);
    }
}

TEST(Collectives, BottleneckIsBusiestPort)
{
    const Cluster c = twoNode();
    auto v = zeroVolume(4);
    // Device 0 sends 10 GB across nodes (1 s on its NIC); everyone
    // else idle -> op takes ~1 s regardless of other cheap traffic.
    v[0][2] = 10e9;
    v[1][0] = 1e9; // intra, 0.01 s
    const Seconds t = a2aBottleneckTime(c, v);
    EXPECT_NEAR(t, 1.0 + kCollectiveAlpha, 1e-6);
}

TEST(Collectives, BottleneckCountsRecvSide)
{
    const Cluster c = twoNode();
    auto v = zeroVolume(4);
    // Device 3 receives 10 GB from two cross-node senders: its NIC
    // must drain 20 GB -> 2 s, even though each sender only sends 1 s.
    v[0][3] = 10e9;
    v[1][3] = 10e9;
    EXPECT_NEAR(a2aBottleneckTime(c, v), 2.0 + kCollectiveAlpha, 1e-6);
}

TEST(Collectives, BottleneckZeroTrafficIsFree)
{
    const Cluster c = twoNode();
    EXPECT_DOUBLE_EQ(a2aBottleneckTime(c, zeroVolume(4)), 0.0);
}

TEST(Collectives, UniformA2ASplitsByPortClass)
{
    const Cluster c = twoNode();
    const std::vector<DeviceId> group{0, 1, 2, 3};
    // Each pair exchanges 10 GB: per device, 10 GB intra (1 peer) and
    // 20 GB inter (2 peers) -> 0.1 s + 2.0 s.
    const Seconds t = a2aUniformTime(c, group, 10e9);
    EXPECT_NEAR(t, 2.1 + kCollectiveAlpha, 1e-6);
}

TEST(Collectives, UniformA2ATrivialGroup)
{
    const Cluster c = twoNode();
    EXPECT_DOUBLE_EQ(a2aUniformTime(c, {0}, 1e9), 0.0);
    EXPECT_DOUBLE_EQ(a2aUniformTime(c, {0, 1}, 0), 0.0);
}

/** The pairwise port count a2aUniformTime replaced, kept as its
 * oracle: every ordered pair of members adds one share to the sender's
 * intra or inter port. */
Seconds
pairwiseUniformA2a(const Cluster &cluster,
                   const std::vector<DeviceId> &group, Bytes bytes_per_pair)
{
    if (group.size() <= 1 || bytes_per_pair == 0)
        return 0.0;
    Seconds busiest = 0.0;
    for (DeviceId d : group) {
        Bytes intra = 0, inter = 0;
        for (DeviceId o : group) {
            if (o == d)
                continue;
            (cluster.sameNode(d, o) ? intra : inter) += bytes_per_pair;
        }
        const Seconds t = static_cast<double>(intra) / cluster.intraBw() +
                          static_cast<double>(inter) / cluster.interBw();
        busiest = std::max(busiest, t);
    }
    return kCollectiveAlpha + busiest;
}

TEST(Collectives, UniformA2AMatchesPairwiseCount)
{
    const std::vector<Bytes> shares{1, 4096, 123457, 10000000007LL};
    for (const int nodes : {1, 2, 3, 8}) {
        for (const int per_node : {1, 2, 8}) {
            const Cluster c = Cluster::a100(nodes, per_node);
            const int n = c.numDevices();
            std::vector<std::vector<DeviceId>> groups;
            // The whole cluster (the FSEP grad-sync group).
            std::vector<DeviceId> all(static_cast<std::size_t>(n));
            for (DeviceId d = 0; d < n; ++d)
                all[static_cast<std::size_t>(d)] = d;
            groups.push_back(all);
            // One node's devices (the FSEP prefetch group).
            for (int node = 0; node < nodes; ++node) {
                std::vector<DeviceId> one;
                for (int k = 0; k < per_node; ++k)
                    one.push_back(node * per_node + k);
                groups.push_back(one);
            }
            // Non-contiguous groups covering part of a node: every
            // other device, every third from an offset, and a
            // descending pick across nodes.
            for (const int stride : {2, 3}) {
                for (int offset = 0; offset < stride; ++offset) {
                    std::vector<DeviceId> strided;
                    for (DeviceId d = offset; d < n; d += stride)
                        strided.push_back(d);
                    groups.push_back(strided);
                }
            }
            std::vector<DeviceId> descending;
            for (DeviceId d = n - 1; d >= 0; d -= 5)
                descending.push_back(d);
            groups.push_back(descending);

            for (const std::vector<DeviceId> &g : groups)
                for (const Bytes share : shares)
                    EXPECT_EQ(a2aUniformTime(c, g, share),
                              pairwiseUniformA2a(c, g, share))
                        << nodes << "x" << per_node << " group of "
                        << g.size() << ", share " << share;
        }
    }
}

TEST(Collectives, AllGatherRingScalesWithGroup)
{
    const Cluster c = twoNode();
    // Intra-node pair: (2-1)/2 * 10 GB over 100 GB/s = 0.05 s.
    EXPECT_NEAR(allGatherTime(c, {0, 1}, 10e9),
                0.05 + kCollectiveAlpha, 1e-9);
    // Cross-node ring is bottlenecked by the 10 GB/s edge.
    EXPECT_NEAR(allGatherTime(c, {0, 2}, 10e9),
                0.5 + kCollectiveAlpha, 1e-9);
}

TEST(Collectives, ReduceScatterEqualsAllGatherWire)
{
    const Cluster c = twoNode();
    EXPECT_DOUBLE_EQ(reduceScatterTime(c, {0, 1, 2, 3}, 8e9),
                     allGatherTime(c, {0, 1, 2, 3}, 8e9));
}

TEST(Collectives, AllReduceIsTwoPhases)
{
    const Cluster c = twoNode();
    const std::vector<DeviceId> g{0, 1, 2, 3};
    EXPECT_DOUBLE_EQ(allReduceTime(c, g, 8e9),
                     reduceScatterTime(c, g, 8e9) +
                         allGatherTime(c, g, 8e9));
    EXPECT_DOUBLE_EQ(allReduceTime(c, {2}, 8e9), 0.0);
}

} // namespace
} // namespace laer
