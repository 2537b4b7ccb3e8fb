/**
 * @file
 * Tests for expert relocation (paper Alg. 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <queue>
#include <utility>

#include "core/error.hh"
#include "core/rng.hh"
#include "oracle/tuner_reference.hh"
#include "planner/relocation.hh"
#include "planner/replica_alloc.hh"

namespace laer
{
namespace
{

/**
 * Alg. 1 as two node scans per placement plus an all-device scan for
 * the duplicate fallback, O(N^2 * C): the oracle expertRelocation must
 * match layout for layout. `fallbacks` counts placements where the
 * least-loaded device of the least-count nodes already hosted the
 * expert and the fallback scan moved the replica elsewhere.
 */
ExpertLayout
referenceRelocation(const Cluster &cluster,
                    const std::vector<int> &expert_rep,
                    const std::vector<TokenCount> &expert_loads,
                    int capacity, int &fallbacks)
{
    const int n = cluster.numDevices();
    const int e = static_cast<int>(expert_rep.size());
    struct Item
    {
        ExpertId expert;
        double load;
    };
    std::vector<Item> list;
    for (ExpertId j = 0; j < e; ++j) {
        const double avg = static_cast<double>(expert_loads[j]) /
                           expert_rep[j];
        for (int r = 0; r < expert_rep[j]; ++r)
            list.push_back({j, avg});
    }
    std::stable_sort(list.begin(), list.end(),
                     [](const Item &a, const Item &b) {
                         return a.load > b.load;
                     });

    ExpertLayout layout(n, e);
    std::vector<int> expert_count(n, 0);
    std::vector<double> device_loads(n, 0.0);
    std::vector<std::vector<int>> node_cnt(
        e, std::vector<int>(cluster.numNodes(), 0));
    std::vector<int> node_free(cluster.numNodes(),
                               cluster.devicesPerNode() * capacity);

    using HeapEntry = std::pair<double, DeviceId>;
    std::vector<std::priority_queue<HeapEntry,
                                    std::vector<HeapEntry>,
                                    std::greater<HeapEntry>>>
        heaps(cluster.numNodes());
    for (DeviceId d = 0; d < n; ++d)
        heaps[cluster.node(d)].emplace(0.0, d);

    auto clean_top = [&](NodeId nd) -> DeviceId {
        auto &heap = heaps[nd];
        while (!heap.empty()) {
            const auto [load, d] = heap.top();
            if (expert_count[d] >= capacity) {
                heap.pop();
                continue;
            }
            if (load != device_loads[d]) {
                heap.pop();
                heap.emplace(device_loads[d], d);
                continue;
            }
            return d;
        }
        return -1;
    };

    for (const Item &item : list) {
        int min_cnt = std::numeric_limits<int>::max();
        for (NodeId nd = 0; nd < cluster.numNodes(); ++nd)
            if (node_free[nd] > 0)
                min_cnt = std::min(min_cnt, node_cnt[item.expert][nd]);

        DeviceId best = -1;
        for (NodeId nd = 0; nd < cluster.numNodes(); ++nd) {
            if (node_free[nd] == 0 ||
                node_cnt[item.expert][nd] != min_cnt)
                continue;
            const DeviceId d = clean_top(nd);
            if (d >= 0 && (best < 0 ||
                           device_loads[d] < device_loads[best]))
                best = d;
        }

        if (layout.at(best, item.expert) > 0) {
            DeviceId alt = -1;
            auto key = [&](DeviceId d) {
                return std::make_pair(
                    node_cnt[item.expert][cluster.node(d)],
                    device_loads[d]);
            };
            for (DeviceId d = 0; d < n; ++d) {
                if (expert_count[d] >= capacity ||
                    layout.at(d, item.expert) > 0)
                    continue;
                if (alt < 0 || key(d) < key(alt))
                    alt = d;
            }
            if (alt >= 0) {
                best = alt;
                ++fallbacks;
            }
        }

        ++layout.at(best, item.expert);
        device_loads[best] += item.load;
        ++expert_count[best];
        ++node_cnt[item.expert][cluster.node(best)];
        --node_free[cluster.node(best)];
        heaps[cluster.node(best)].emplace(device_loads[best], best);
    }
    return layout;
}

Cluster
cluster24()
{
    // 2 nodes x 4 devices.
    return Cluster(2, 4, 100e9, 10e9, 1e12);
}

TEST(Relocation, ProducesFeasibleLayout)
{
    const Cluster c = cluster24();
    const std::vector<int> rep{4, 2, 1, 1, 2, 2, 2, 2}; // sums to 16
    const std::vector<TokenCount> loads{800, 200, 50, 50,
                                        150, 150, 150, 150};
    const ExpertLayout a = expertRelocation(c, rep, loads, 2);
    EXPECT_TRUE(a.feasible(2));
    for (ExpertId j = 0; j < 8; ++j)
        EXPECT_EQ(a.replicaCount(j), rep[j]);
}

TEST(Relocation, SpreadsReplicasAcrossNodes)
{
    const Cluster c = cluster24();
    // Expert 0 gets 2 replicas; with 2 nodes they must land on
    // different nodes (lite routing splits per node).
    const std::vector<int> rep{2, 2, 2, 2, 2, 2, 2, 2};
    const std::vector<TokenCount> loads{500, 100, 100, 100,
                                        100, 100, 100, 100};
    const ExpertLayout a = expertRelocation(c, rep, loads, 2);
    for (ExpertId j = 0; j < 8; ++j) {
        int per_node[2] = {0, 0};
        for (DeviceId d = 0; d < 8; ++d)
            per_node[c.node(d)] += a.at(d, j);
        EXPECT_EQ(per_node[0], 1) << "expert " << j;
        EXPECT_EQ(per_node[1], 1) << "expert " << j;
    }
}

TEST(Relocation, BalancesDeviceLoads)
{
    const Cluster c = cluster24();
    // Skewed loads with proportional replicas: the resulting expected
    // per-device load must be far tighter than the naive range.
    const std::vector<int> rep{5, 3, 2, 1, 1, 1, 2, 1};
    const std::vector<TokenCount> loads{1000, 600, 400, 90,
                                        80, 70, 400, 60};
    const ExpertLayout a = expertRelocation(c, rep, loads, 2);
    ASSERT_TRUE(a.feasible(2));

    std::vector<double> dev_load(8, 0.0);
    for (DeviceId d = 0; d < 8; ++d)
        for (ExpertId j = 0; j < 8; ++j)
            dev_load[d] += static_cast<double>(a.at(d, j)) * loads[j] /
                           rep[j];
    double mx = 0.0, mn = 1e18;
    for (double v : dev_load) {
        mx = std::max(mx, v);
        mn = std::min(mn, v);
    }
    // Greedy LPT-style placement keeps max within 1.6x of min here.
    EXPECT_LT(mx, 1.6 * mn);
}

TEST(Relocation, SingleReplicaPerExpertStillWorks)
{
    const Cluster c = cluster24();
    // 8 devices x capacity 1 = 8 slots, 8 experts with 1 replica each.
    const std::vector<int> rep(8, 1);
    const std::vector<TokenCount> loads{8, 7, 6, 5, 4, 3, 2, 1};
    const ExpertLayout a = expertRelocation(c, rep, loads, 1);
    EXPECT_TRUE(a.feasible(1));
}

TEST(Relocation, AvoidsDuplicateReplicaOnOneDevice)
{
    const Cluster c = cluster24();
    // Expert 0: 4 replicas over 8 devices with capacity 1 — all four
    // must land on distinct devices.
    std::vector<int> rep{4, 1, 1, 1, 1};
    std::vector<TokenCount> loads{900, 10, 10, 10, 10};
    const ExpertLayout a = expertRelocation(c, rep, loads, 1);
    for (DeviceId d = 0; d < 8; ++d)
        EXPECT_LE(a.at(d, 0), 1);
    EXPECT_EQ(a.replicaCount(0), 4);
}

TEST(Relocation, RejectsBadBudget)
{
    const Cluster c = cluster24();
    EXPECT_THROW(expertRelocation(c, {1, 1}, {5, 5}, 2), FatalError);
    EXPECT_THROW(expertRelocation(c, {16, 0}, {5, 5}, 2), FatalError);
}

TEST(Relocation, HeavyReplicasPlacedFirstOntoEmptyDevices)
{
    const Cluster c = cluster24();
    // One gigantic expert with one replica: it must end up alone-ish —
    // the device hosting it should carry no other heavy replica.
    const std::vector<int> rep{1, 3, 3, 3, 2, 2, 1, 1};
    const std::vector<TokenCount> loads{5000, 300, 300, 300,
                                        200, 200, 100, 100};
    const ExpertLayout a = expertRelocation(c, rep, loads, 2);
    ASSERT_TRUE(a.feasible(2));
    const DeviceId host = a.replicaDevices(0).front();
    double other_load = 0.0;
    for (ExpertId j = 1; j < 8; ++j)
        other_load += static_cast<double>(a.at(host, j)) * loads[j] /
                      rep[j];
    // The companion replica on the host must be one of the lightest.
    EXPECT_LE(other_load, 110.0);
}

TEST(Relocation, MatchesReferenceOnFuzzedInputs)
{
    Rng rng(20261018);
    int cases = 0, fallbacks = 0, duplicates = 0;
    for (; cases < 6000; ++cases) {
        const int nodes = rng.uniformInt(1, 16);
        const int per_node = cases % 8 == 0 ? 1 : rng.uniformInt(1, 8);
        const Cluster c(nodes, per_node, 100e9, 10e9, 1e12);
        const int n = c.numDevices();
        const int capacity = rng.uniformInt(1, 4);
        const int slots = n * capacity;
        const int experts = rng.uniformInt(capacity,
                                           std::min(slots, 3 * n + 1));

        // Loads: all zero, all equal, tiny (many ties) or Zipf.
        std::vector<TokenCount> loads(experts, 0);
        const int load_kind = cases % 4;
        const double s = rng.uniform(0.5, 2.0);
        const std::vector<int> perm = rng.permutation(experts);
        for (ExpertId j = 0; j < experts; ++j) {
            if (load_kind == 1)
                loads[j] = 100;
            else if (load_kind == 2)
                loads[j] = rng.uniformInt(0, 4);
            else if (load_kind == 3)
                loads[perm[j]] = std::llround(1e5 / std::pow(j + 1, s));
        }

        // Schemes: even, proportional, or a perturbed walk from either
        // whose per-expert cap lets an expert outnumber the devices.
        std::vector<int> rep = (cases / 4) % 2 == 0
                                   ? evenAllocation(loads, n, capacity)
                                   : replicaAllocation(loads, n, capacity);
        if ((cases / 8) % 2 == 1) {
            const int cap = rng.uniformInt(0, 1) == 0 ? n : slots;
            for (int k = rng.uniformInt(1, 2 * experts); k > 0; --k)
                rep = perturbAllocation(rep, rng, cap);
        }

        int case_fallbacks = 0;
        const ExpertLayout want =
            referenceRelocation(c, rep, loads, capacity, case_fallbacks);
        // Alg. 1 emits the replica index itself: it must equal the one
        // rebuilt from the reference layout, and materialise to it.
        const ReplicaIndex index =
            expertRelocationIndex(c, rep, loads, capacity);
        ASSERT_TRUE(sameReplicaIndex(index, ReplicaIndex(c, want)))
            << "case " << cases << ": " << nodes << "x" << per_node
            << " C=" << capacity << " E=" << experts;
        const ExpertLayout got = index.layout();
        ASSERT_TRUE(got == want) << "case " << cases;
        ASSERT_TRUE(got.feasible(capacity));
        fallbacks += case_fallbacks;
        for (DeviceId d = 0; d < n; ++d)
            for (ExpertId j = 0; j < experts; ++j)
                duplicates += std::max(0, got.at(d, j) - 1);
    }
    // Both of the reference's exceptional paths ran: the fallback scan
    // that moved a replica off a host, and duplicates that were forced.
    EXPECT_GT(fallbacks, 0);
    EXPECT_GT(duplicates, 0);
    std::cout << "[          ] " << cases << " cases, " << fallbacks
              << " fallback moves, " << duplicates
              << " forced duplicates\n";
}

/** A scheme where one expert takes a random share of the spare slots,
 * often more than there are devices, so duplicates are forced. */
std::vector<int>
skewedAllocation(int experts, int slots, Rng &rng)
{
    std::vector<int> rep(experts, 1);
    int left = slots - experts;
    const int big = experts == 1 ? left : rng.uniformInt(0, left);
    rep[0] += big;
    left -= big;
    for (int k = 0; left > 0; ++k, --left)
        ++rep[1 + k % (experts - 1)];
    return rep;
}

TEST(Relocation, MatchesReferenceAtBenchShapes)
{
    struct Shape
    {
        const char *name;
        int nodes, perNode, experts, capacity, cases;
    };
    // scale-256, train-64, tab05 at 1,024 devices, and one device per
    // node (nodes 0 = drawn from 1..64 per case), where a partial last
    // level decides most placements.
    const Shape shapes[] = {{"32x8 E8 C2", 32, 8, 8, 2, 16},
                            {"8x8 E16 C4", 8, 8, 16, 4, 16},
                            {"128x8 E8 C2", 128, 8, 8, 2, 8},
                            {"1 device/node", 0, 1, 0, 0, 200}};
    Rng rng(20261019);
    for (const Shape &shape : shapes) {
        int duplicates = 0;
        for (int k = 0; k < shape.cases; ++k) {
            const int nodes = shape.nodes > 0 ? shape.nodes
                                              : rng.uniformInt(1, 64);
            const Cluster c(nodes, shape.perNode, 100e9, 10e9, 1e12);
            const int n = c.numDevices();
            const int capacity = shape.capacity > 0
                                     ? shape.capacity
                                     : rng.uniformInt(1, 4);
            const int slots = n * capacity;
            const int experts =
                shape.experts > 0
                    ? shape.experts
                    : rng.uniformInt(capacity, std::min(slots, 3 * n + 1));

            std::vector<TokenCount> loads(experts, 100);
            const std::vector<int> perm = rng.permutation(experts);
            if (k % 2 == 0)
                for (ExpertId j = 0; j < experts; ++j)
                    loads[perm[j]] = std::llround(
                        1e5 / std::pow(j + 1, rng.uniform(0.5, 2.0)));

            std::vector<int> rep;
            switch (k % 4) {
              case 0: rep = replicaAllocation(loads, n, capacity); break;
              case 1: rep = evenAllocation(loads, n, capacity); break;
              case 2:
                rep = replicaAllocation(loads, n, capacity);
                for (int m = rng.uniformInt(1, 4 * experts); m > 0; --m)
                    rep = perturbAllocation(rep, rng, slots);
                break;
              default: rep = skewedAllocation(experts, slots, rng); break;
            }

            int fallbacks = 0;
            const ExpertLayout want =
                referenceRelocation(c, rep, loads, capacity, fallbacks);
            const ReplicaIndex index =
                expertRelocationIndex(c, rep, loads, capacity);
            ASSERT_TRUE(sameReplicaIndex(index, ReplicaIndex(c, want)))
                << shape.name << " case " << k << ": " << nodes
                << " nodes, C=" << capacity << " E=" << experts;
            const ExpertLayout got = index.layout();
            ASSERT_TRUE(got == want) << shape.name << " case " << k;
            for (DeviceId d = 0; d < n; ++d)
                for (ExpertId j = 0; j < experts; ++j)
                    duplicates += std::max(0, got.at(d, j) - 1);
        }
        EXPECT_GT(duplicates, 0) << shape.name;
    }
}

} // namespace
} // namespace laer
