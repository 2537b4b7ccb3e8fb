/**
 * @file
 * Expert relocation (paper Alg. 1): place a given per-expert replica
 * budget onto concrete devices.
 *
 * Greedy, topology-aware and co-designed with lite routing: replicas
 * of each expert spread across nodes as evenly as possible (because
 * lite routing splits load evenly among intra-node replicas), and
 * within the admissible nodes the device with the least accumulated
 * load wins. Replicas are placed in descending order of their expected
 * per-replica load so heavy placements commit first.
 */

#ifndef LAER_PLANNER_RELOCATION_HH
#define LAER_PLANNER_RELOCATION_HH

#include <vector>

#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

/**
 * Place replicas onto devices.
 *
 * Replicas go in descending order of their expert's average load
 * (load / replicas), ties in ascending expert order, so all replicas
 * of one expert are placed back to back. Each replica of expert e goes
 * to the free device d (fewer than `capacity` replicas placed) with
 * the lexicographically least key
 *
 *     (replicas of e already on node(d), accumulated load of d, d),
 *
 * taken over the free devices that do not host e yet. Only when every
 * free device already hosts e is a duplicate forced, and then the key
 * is taken over all free devices. Because devices are numbered
 * node-major, the trailing d breaks ties to the lower node first and
 * then to the lower device within it.
 *
 * Cost: O(N·C·log(devices per node) + E·nodes + E·log E). Each node
 * keeps a heap of (load, device), and placement goes by levels: a
 * placement changes only its own node's key, so every node at the
 * lowest count takes its best device, and only a partial last level
 * selects (std::nth_element) the least (load, device) node tops. An
 * expert whose duplicates are forced adds O(nodes) per further level.
 *
 * @param cluster       Topology (node(i) is what the algorithm needs).
 * @param expert_rep    Replicas per expert; must sum to N * capacity.
 * @param expert_loads  Total tokens per expert.
 * @param capacity      Expert slots per device (C).
 * @return feasible layout A.
 */
ExpertLayout expertRelocation(const Cluster &cluster,
                              const std::vector<int> &expert_rep,
                              const std::vector<TokenCount> &expert_loads,
                              int capacity);

/**
 * The load-oblivious even layout every EP system starts from:
 * `evenAllocation` of equal loads, placed by `expertRelocation`.
 *
 * @param cluster    Topology.
 * @param n_experts  Experts per layer (E).
 * @param capacity   Expert slots per device (C).
 * @return feasible layout A.
 */
ExpertLayout evenLayout(const Cluster &cluster, int n_experts, int capacity);

} // namespace laer

#endif // LAER_PLANNER_RELOCATION_HH
