#include "planner/relocation.hh"

#include <algorithm>
#include <functional>
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

    // Alg. 1 lines 7-10, by levels. A placement changes only its own
    // node's key (count, load, device), and a node holding fewer
    // replicas of x always goes first, so every eligible node at the
    // lowest count takes its top device, in any order. Only a partial
    // last level chooses: the `left` least (load, device) tops, a set
    // that device-id uniqueness makes unique.
    std::vector<NodeId> live;  // nodes with an eligible device
    std::vector<NodeId> level; // live nodes at the lowest count
    auto collect_live = [&] {
        live.clear();
        for (NodeId nd = 0; nd < nodes; ++nd)
            if (heap_size[nd] > 0)
                live.push_back(nd);
    };
    auto by_top = [&dev_heap, per_node](NodeId a, NodeId b) {
        return dev_heap[a * per_node] < dev_heap[b * per_node];
    };

    std::vector<DeviceId> hosts; // devices given the current expert
    for (const ExpertId x : order) {
        hosts.clear();
        bool duplicates = false;
        collect_live();
        for (int left = expert_rep[x]; left > 0;) {
            if (live.empty()) {
                // Every free device already hosts x: a duplicate is
                // forced, so the hosts become eligible again.
                LAER_ASSERT(!duplicates, "no device has a free expert slot");
                duplicates = true;
                for (DeviceId d : hosts)
                    if (used[d] < capacity)
                        push_device(d);
                collect_live();
                continue;
            }
            int low = cnt[live.front()];
            for (NodeId nd : live)
                low = std::min(low, cnt[nd]);
            level.clear();
            for (NodeId nd : live)
                if (cnt[nd] == low)
                    level.push_back(nd);
            if (static_cast<int>(level.size()) > left) {
                std::nth_element(level.begin(), level.begin() + left,
                                 level.end(), by_top);
                level.resize(left);
            }
            left -= static_cast<int>(level.size());

            // Alg. 1 lines 11-13: commit the level's placements.
            for (NodeId nd : level) {
                const auto first = dev_heap.begin() + nd * per_node;
                const DeviceId best = first->second;
                std::pop_heap(first, first + heap_size[nd], min_heap);
                --heap_size[nd];
                ++layout.at(best, x);
                device_loads[best] += avg[x];
                ++used[best];
                ++cnt[nd];
                if (!duplicates)
                    hosts.push_back(best);
                else if (used[best] < capacity)
                    push_device(best);
            }
            live.erase(std::remove_if(live.begin(), live.end(),
                                      [&heap_size](NodeId nd) {
                                          return heap_size[nd] == 0;
                                      }),
                       live.end());
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
