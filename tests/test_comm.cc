/**
 * @file
 * Tests for the collective cost models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "comm/collectives.hh"
#include "core/rng.hh"
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
    A2aPortLoads loads;
    loads.reset(4);
    // Device 0 sends 10 GB across nodes (1 s on its NIC); everyone
    // else idle -> op takes ~1 s regardless of other cheap traffic.
    loads.add(c, 0, 2, 10'000'000'000);
    loads.add(c, 1, 0, 1'000'000'000); // intra, 0.01 s
    EXPECT_NEAR(a2aBottleneckTimeFromLoads(c, loads), 1.0 + kCollectiveAlpha,
                1e-6);
    // Reversed (combine) direction: device 2's NIC receives the 10 GB.
    EXPECT_NEAR(a2aBottleneckTimeFromLoads(c, loads, true),
                1.0 + kCollectiveAlpha, 1e-6);
}

TEST(Collectives, BottleneckCountsRecvSide)
{
    const Cluster c = twoNode();
    A2aPortLoads loads;
    loads.reset(4);
    // Device 3 receives 10 GB from two cross-node senders: its NIC
    // must drain 20 GB -> 2 s, even though each sender only sends 1 s.
    loads.add(c, 0, 3, 10'000'000'000);
    loads.add(c, 1, 3, 10'000'000'000);
    EXPECT_NEAR(a2aBottleneckTimeFromLoads(c, loads), 2.0 + kCollectiveAlpha,
                1e-6);
}

TEST(Collectives, BottleneckZeroTrafficIsFree)
{
    const Cluster c = twoNode();
    A2aPortLoads loads;
    loads.reset(4);
    EXPECT_DOUBLE_EQ(a2aBottleneckTimeFromLoads(c, loads), 0.0);
}

TEST(Collectives, BottleneckIsMonotoneInLoadsAndAntiMonotoneInBandwidth)
{
    // Relation: raising any port load never shortens the All-to-All,
    // and raising either bandwidth never lengthens it, in both
    // directions (dispatch and the transposed combine).
    Rng rng(20261019);
    for (int trial = 0; trial < 400; ++trial) {
        const int nodes = rng.uniformInt(2, 8);
        const int per_node = 1 << rng.uniformInt(0, 3);
        const double intra = rng.uniform(50e9, 600e9);
        const double inter = rng.uniform(5e9, 50e9);
        const Cluster c(nodes, per_node, intra, inter, 1e12);
        const int n = c.numDevices();
        A2aPortLoads loads;
        loads.reset(n);
        for (int k = rng.uniformInt(0, 3 * n); k > 0; --k) {
            const DeviceId src = rng.uniformInt(0, n - 1);
            const DeviceId dst = rng.uniformInt(0, n - 1);
            if (src != dst)
                loads.add(c, src, dst, rng.uniformInt(0, 1 << 30));
        }
        const Cluster faster(nodes, per_node,
                             intra * rng.uniform(1.0, 4.0),
                             inter * rng.uniform(1.0, 4.0), 1e12);
        for (const bool transpose : {false, true}) {
            SCOPED_TRACE("trial " + std::to_string(trial) +
                         (transpose ? " combine" : " dispatch"));
            const Seconds base =
                a2aBottleneckTimeFromLoads(c, loads, transpose);
            EXPECT_LE(a2aBottleneckTimeFromLoads(faster, loads, transpose),
                      base);
            A2aPortLoads more = loads;
            std::vector<Bytes> *ports[] = {&more.sendIntra, &more.sendInter,
                                           &more.recvIntra, &more.recvInter};
            (*ports[rng.uniformInt(0, 3)])[static_cast<std::size_t>(
                rng.uniformInt(0, n - 1))] += rng.uniformInt(1, 1 << 30);
            EXPECT_GE(a2aBottleneckTimeFromLoads(c, more, transpose), base);
        }
    }
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
