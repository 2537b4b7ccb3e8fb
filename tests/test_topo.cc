/**
 * @file
 * Unit tests for the cluster topology model.
 */

#include <gtest/gtest.h>

#include "core/error.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

TEST(Cluster, BasicShape)
{
    const Cluster c = Cluster::a100(4);
    EXPECT_EQ(c.numNodes(), 4);
    EXPECT_EQ(c.devicesPerNode(), 8);
    EXPECT_EQ(c.numDevices(), 32);
}

TEST(Cluster, NodeAssignmentIsNodeMajor)
{
    const Cluster c = Cluster::a100(4);
    EXPECT_EQ(c.node(0), 0);
    EXPECT_EQ(c.node(7), 0);
    EXPECT_EQ(c.node(8), 1);
    EXPECT_EQ(c.node(31), 3);
    EXPECT_EQ(c.firstDeviceOf(2), 16);

    // expertRelocation breaks load ties by device id and relies on
    // that being the same as breaking them by node first.
    for (int nodes = 1; nodes <= 16; ++nodes)
        for (int per_node = 1; per_node <= 8; ++per_node) {
            const Cluster s(nodes, per_node, 100e9, 10e9, 1e12);
            for (DeviceId d = 0; d < s.numDevices(); ++d)
                ASSERT_EQ(s.node(d), d / s.devicesPerNode())
                    << nodes << "x" << per_node << " device " << d;
        }
}

TEST(Cluster, SameNodePredicate)
{
    const Cluster c = Cluster::a100(2);
    EXPECT_TRUE(c.sameNode(0, 7));
    EXPECT_FALSE(c.sameNode(7, 8));
    EXPECT_TRUE(c.sameNode(3, 3));
}

TEST(Cluster, BandwidthSelection)
{
    const Cluster c = Cluster::a100(2);
    EXPECT_DOUBLE_EQ(c.bw(0, 1), c.intraBw());
    EXPECT_DOUBLE_EQ(c.bw(0, 8), c.interBw());
    EXPECT_GT(c.intraBw(), c.interBw());
    // Self transfer uses the local (fast) path.
    EXPECT_DOUBLE_EQ(c.bw(5, 5), c.intraBw());
}

TEST(Cluster, A100PresetMatchesPaperSection51)
{
    const Cluster c = Cluster::a100(4);
    EXPECT_DOUBLE_EQ(c.intraBw(), 300e9); // NVLink 300 GB/s
    EXPECT_GT(c.computeFlops(), 100e12);  // derated A100 bf16
    EXPECT_LT(c.computeFlops(), 312e12);
}

TEST(Cluster, CustomShape)
{
    const Cluster c(16, 4, 100e9, 10e9, 1e12);
    EXPECT_EQ(c.numDevices(), 64);
    EXPECT_EQ(c.node(63), 15);
    EXPECT_FALSE(c.describe().empty());
}

TEST(Cluster, RejectsInvalidConfiguration)
{
    EXPECT_THROW(Cluster(0, 8, 1, 1, 1), FatalError);
    EXPECT_THROW(Cluster(1, 0, 1, 1, 1), FatalError);
    EXPECT_THROW(Cluster(1, 1, 0, 1, 1), FatalError);
    EXPECT_THROW(Cluster(1, 1, 1, 1, 0), FatalError);
}

} // namespace
} // namespace laer
