/**
 * @file
 * Interactive-ish planner playground: feed the planner arbitrary
 * cluster shapes and skew levels from the command line and inspect
 * every stage of the Alg. 2 pipeline — replica allocation, expert
 * relocation, lite routing and the cost comparison.
 *
 *   ./examples/planner_playground [nodes] [dev/node] [experts] \
 *                                 [capacity] [skew] [seed]
 */

#include <cstdlib>
#include <iostream>

#include "core/rng.hh"
#include "core/stats.hh"
#include "core/table.hh"
#include "planner/layout_tuner.hh"
#include "planner/lite_routing.hh"
#include "planner/replica_alloc.hh"

int
main(int argc, char **argv)
{
    using namespace laer;
    const int nodes = argc > 1 ? std::atoi(argv[1]) : 2;
    const int dpn = argc > 2 ? std::atoi(argv[2]) : 4;
    const int experts = argc > 3 ? std::atoi(argv[3]) : 8;
    const int capacity = argc > 4 ? std::atoi(argv[4]) : 2;
    const double skew = argc > 5 ? std::atof(argv[5]) : 0.3;
    const std::uint64_t seed = argc > 6 ? std::atoll(argv[6]) : 42;

    const Cluster cluster(nodes, dpn, 300e9, 12.5e9, 212e12);
    std::cout << "Cluster: " << cluster.describe() << "\n"
              << "Experts: " << experts << ", capacity " << capacity
              << " per device, Dirichlet alpha " << skew << "\n\n";

    // Random skewed routing.
    Rng rng(seed);
    RoutingMatrix routing(cluster.numDevices(), experts);
    const auto pop = rng.dirichlet(experts, skew);
    for (DeviceId d = 0; d < cluster.numDevices(); ++d) {
        const auto counts = rng.multinomial(8192, pop);
        for (ExpertId j = 0; j < experts; ++j)
            routing.at(d, j) = counts[j];
    }

    // Stage 1: replica allocation (Alg. 4).
    const auto loads = routing.expertLoads();
    const auto pq_rep =
        replicaAllocation(loads, cluster.numDevices(), capacity);
    const auto even_rep =
        evenAllocation(loads, cluster.numDevices(), capacity);
    Table rep("Stage 1 — replica allocation");
    rep.setHeader({"expert", "load", "pq replicas", "even replicas"});
    for (ExpertId j = 0; j < experts; ++j) {
        rep.startRow();
        rep.cell(j);
        rep.cell(loads[j]);
        rep.cell(pq_rep[j]);
        rep.cell(even_rep[j]);
    }
    rep.print(std::cout);

    // Stages 2-4: the full tuner.
    TunerConfig cfg;
    cfg.capacity = capacity;
    cfg.cost.commBytesPerToken = 8192;
    cfg.cost.compFlopsPerToken = 3.5e8;
    cfg.seed = seed;
    const LayoutDecision decision =
        tuneExpertLayout(cluster, routing, cfg);

    Table placement("Stage 2 — relocation result (chosen scheme)");
    placement.setHeader({"expert", "replicas", "devices"});
    for (ExpertId j = 0; j < experts; ++j) {
        placement.startRow();
        placement.cell(j);
        placement.cell(decision.layout.replicaCount(j));
        std::string where;
        for (DeviceId d : decision.layout.replicaDevices(j))
            where += (where.empty() ? "" : " ") + std::to_string(d);
        placement.cell(where);
    }
    placement.print(std::cout);

    // Stage 3: dispatch balance under lite routing.
    const auto recv =
        scoreLiteRouting(cluster, routing, decision.index, cfg.cost).recv;
    std::vector<double> recvd(recv.begin(), recv.end());
    Table disp("Stage 3 — tokens received per device (lite routing)");
    disp.setHeader({"device", "tokens"});
    for (DeviceId d = 0; d < cluster.numDevices(); ++d) {
        disp.startRow();
        disp.cell(d);
        disp.cell(recv[d]);
    }
    disp.print(std::cout);

    std::cout << "\nload imbalance (max/mean): "
              << imbalanceFactor(recvd) << "  (1.0 = perfect)\n"
              << "predicted layer cost: "
              << 1e3 * decision.cost.total() << " ms ("
              << decision.schemesTried << " schemes evaluated)\n";
    return 0;
}
