#include "planner/relocation.hh"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/error.hh"
#include "planner/replica_alloc.hh"

namespace laer
{

ReplicaIndex
expertRelocationIndex(const Cluster &cluster,
                      const std::vector<int> &expert_rep,
                      const std::vector<TokenCount> &expert_loads,
                      int capacity)
{
    const int n = cluster.numDevices();
    const int e = static_cast<int>(expert_rep.size());
    LAER_CHECK(static_cast<int>(expert_loads.size()) == e,
               "replica/load vectors disagree");
    int total_rep = 0, max_rep = 0;
    for (int r : expert_rep) {
        LAER_CHECK(r >= 1, "every expert needs at least one replica");
        total_rep += r;
        max_rep = std::max(max_rep, r);
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

    // The placement is written straight into ReplicaIndex's arrays:
    // expert j's list starts at the sum of the budgets before it
    // (offset cell (j, 0)), and its per-node offsets follow from cnt[]
    // once j is placed.
    std::vector<std::size_t> off(static_cast<std::size_t>(e) * nodes + 1, 0);
    for (ExpertId j = 0; j < e; ++j)
        off[static_cast<std::size_t>(j + 1) * nodes] =
            off[static_cast<std::size_t>(j) * nodes] + expert_rep[j];
    std::vector<DeviceId> dev(off.back());
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
    auto push_device = [&](NodeId nd, DeviceId d) {
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

    // (node, device) of each placement of the current expert, in
    // placement order; before any duplicate, these are its hosts.
    std::vector<std::pair<NodeId, DeviceId>> placed;
    placed.reserve(static_cast<std::size_t>(max_rep));
    for (const ExpertId x : order) {
        placed.clear();
        bool duplicates = false;
        collect_live();
        for (int left = expert_rep[x]; left > 0;) {
            if (live.empty()) {
                // Every free device already hosts x: a duplicate is
                // forced, so the hosts become eligible again.
                LAER_ASSERT(!duplicates, "no device has a free expert slot");
                duplicates = true;
                for (const auto &[nd, d] : placed)
                    if (used[d] < capacity)
                        push_device(nd, d);
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
                placed.emplace_back(nd, best);
                device_loads[best] += avg[x];
                ++used[best];
                ++cnt[nd];
                if (duplicates && used[best] < capacity)
                    push_device(nd, best);
            }
            live.erase(std::remove_if(live.begin(), live.end(),
                                      [&heap_size](NodeId nd) {
                                          return heap_size[nd] == 0;
                                      }),
                       live.end());
        }

        // Alg. 1's output for x: its per-node offsets from cnt[], then
        // each placement scattered into its node's bucket (one or two
        // devices at the usual shapes), kept device-ascending. Buckets
        // fill from the back, which returns cnt[] to zero.
        const std::size_t base = static_cast<std::size_t>(x) * nodes;
        for (NodeId nd = 0; nd + 1 < nodes; ++nd)
            off[base + nd + 1] = off[base + nd] + cnt[nd];
        for (const auto &[nd, d] : placed) {
            const std::size_t last = off[base + nd + 1];
            std::size_t k = off[base + nd] + --cnt[nd];
            for (; k + 1 < last && dev[k + 1] < d; ++k)
                dev[k] = dev[k + 1];
            dev[k] = d;
        }
        if (!duplicates)
            for (const auto &[nd, d] : placed)
                if (used[d] < capacity)
                    push_device(nd, d);
    }
    return ReplicaIndex(n, nodes, std::move(off), std::move(dev));
}

ExpertLayout
expertRelocation(const Cluster &cluster, const std::vector<int> &expert_rep,
                 const std::vector<TokenCount> &expert_loads, int capacity)
{
    return expertRelocationIndex(cluster, expert_rep, expert_loads, capacity)
        .layout();
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
