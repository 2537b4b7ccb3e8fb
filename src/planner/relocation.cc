#include "planner/relocation.hh"

#include <algorithm>
#include <functional>
#include <tuple>
#include <utility>

#include "core/error.hh"
#include "planner/replica_alloc.hh"

namespace laer
{

ExpertLayout
expertRelocation(const Cluster &cluster, const std::vector<int> &expert_rep,
                 const std::vector<TokenCount> &expert_loads, int capacity)
{
    const int n = cluster.numDevices();
    const int e = static_cast<int>(expert_rep.size());
    LAER_CHECK(static_cast<int>(expert_loads.size()) == e,
               "replica/load vectors disagree");
    int total_rep = 0;
    for (int r : expert_rep) {
        LAER_CHECK(r >= 1, "every expert needs at least one replica");
        total_rep += r;
    }
    LAER_CHECK(total_rep == n * capacity,
               "replica budget " << total_rep << " != slots "
                                 << n * capacity);

    // Alg. 1 lines 3-5: replicas in descending order of their expected
    // average load. Every replica of an expert carries the same
    // average, so a stable sort of the experts lists each expert's
    // replicas contiguously, exactly as a stable sort of all N*C
    // replicas would.
    std::vector<double> avg(e);
    std::vector<ExpertId> order(e);
    for (ExpertId j = 0; j < e; ++j) {
        avg[j] = static_cast<double>(expert_loads[j]) / expert_rep[j];
        order[j] = j;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&avg](ExpertId a, ExpertId b) {
                         return avg[a] > avg[b];
                     });

    const int nodes = cluster.numNodes();
    const int per_node = cluster.devicesPerNode();
    ExpertLayout layout(n, e);
    std::vector<int> used(n, 0); // slots taken per device
    std::vector<double> device_loads(n, 0.0);
    std::vector<int> cnt(nodes, 0); // current expert's replicas per node
    const std::greater<> min_heap;

    // Node nd's min-heap of (load, device) over its eligible devices
    // (a free slot, and not hosting the current expert unless a
    // duplicate is forced) lives in dev_heap[nd * per_node, +
    // heap_size[nd]). Devices are numbered node-major, so device d
    // starts in its node's range, and equal loads in ascending id
    // order are already a heap.
    using DeviceKey = std::pair<double, DeviceId>;
    std::vector<DeviceKey> dev_heap(n);
    for (DeviceId d = 0; d < n; ++d)
        dev_heap[d] = {0.0, d};
    std::vector<int> heap_size(nodes, per_node);
    auto push_device = [&](DeviceId d) {
        const NodeId nd = cluster.node(d);
        const auto first = dev_heap.begin() + nd * per_node;
        first[heap_size[nd]++] = {device_loads[d], d};
        std::push_heap(first, first + heap_size[nd], min_heap);
    };

    // Min-heap of (count, load, device) holding each node's eligible
    // device with the least (load, device). Only the node just placed
    // on changes key, so it is the one popped and pushed back.
    using NodeKey = std::tuple<int, double, DeviceId>;
    std::vector<NodeKey> node_heap;
    node_heap.reserve(nodes);
    auto node_key = [&](NodeId nd) {
        const DeviceKey &top = dev_heap[nd * per_node];
        return NodeKey{cnt[nd], top.first, top.second};
    };
    auto rebuild_nodes = [&] {
        node_heap.clear();
        for (NodeId nd = 0; nd < nodes; ++nd)
            if (heap_size[nd] > 0)
                node_heap.push_back(node_key(nd));
        std::make_heap(node_heap.begin(), node_heap.end(), min_heap);
    };

    std::vector<DeviceId> hosts; // devices given the current expert
    for (const ExpertId x : order) {
        hosts.clear();
        bool duplicates = false;
        rebuild_nodes();
        for (int r = 0; r < expert_rep[x]; ++r) {
            if (node_heap.empty()) {
                // Every free device already hosts x: a duplicate is
                // forced, so the hosts become eligible again.
                LAER_ASSERT(!duplicates, "no device has a free expert slot");
                duplicates = true;
                for (DeviceId d : hosts)
                    if (used[d] < capacity)
                        push_device(d);
                rebuild_nodes();
            }
            // Alg. 1 lines 7-10: the least-loaded device among the
            // nodes with the fewest replicas of x.
            std::pop_heap(node_heap.begin(), node_heap.end(), min_heap);
            const DeviceId best = std::get<2>(node_heap.back());
            node_heap.pop_back();
            const NodeId nd = cluster.node(best);
            const auto first = dev_heap.begin() + nd * per_node;
            std::pop_heap(first, first + heap_size[nd], min_heap);
            --heap_size[nd];

            // Alg. 1 lines 11-13: commit the placement.
            ++layout.at(best, x);
            device_loads[best] += avg[x];
            ++used[best];
            ++cnt[nd];
            if (!duplicates)
                hosts.push_back(best);
            else if (used[best] < capacity)
                push_device(best);
            if (heap_size[nd] > 0) {
                node_heap.push_back(node_key(nd));
                std::push_heap(node_heap.begin(), node_heap.end(), min_heap);
            }
        }
        for (DeviceId d : hosts) {
            cnt[cluster.node(d)] = 0;
            if (!duplicates && used[d] < capacity)
                push_device(d);
        }
    }
    return layout;
}

ExpertLayout
evenLayout(const Cluster &cluster, int n_experts, int capacity)
{
    const std::vector<TokenCount> flat(n_experts, 1);
    return expertRelocation(
        cluster, evenAllocation(flat, cluster.numDevices(), capacity), flat,
        capacity);
}

} // namespace laer
