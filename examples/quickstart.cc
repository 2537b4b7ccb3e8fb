/**
 * @file
 * Quickstart: plan one MoE layer's expert re-layout with LAER-MoE.
 *
 * Builds a 2-node cluster, synthesises a skewed routing matrix, runs
 * the load-balancing planner (Alg. 2) and prints the decided layout,
 * the token routing, and the predicted cost against a naive even
 * placement.
 *
 *   ./examples/quickstart
 */

#include <iostream>

#include "core/table.hh"
#include "planner/layout_tuner.hh"
#include "planner/lite_routing.hh"
#include "planner/relocation.hh"
#include "trace/routing_generator.hh"
#include "topo/cluster.hh"

int
main()
{
    using namespace laer;

    // A small cluster: 2 nodes x 4 devices.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    const int experts = 8, capacity = 2, top_k = 2;

    // Skewed routing, as dynamic gating produces in real training.
    RoutingModel rm = RoutingModel::wikitext(cluster.numDevices(),
                                             experts, top_k, 4096);
    rm.seed = 2024;
    RoutingGenerator gen(rm);
    const RoutingMatrix routing = gen.next();

    std::cout << "Cluster: " << cluster.describe() << "\n\n";

    Table loads("Expert loads this iteration (tokens)");
    loads.setHeader({"expert", "tokens", "share"});
    const auto expert_loads = routing.expertLoads();
    const double total = static_cast<double>(routing.totalTokens());
    for (ExpertId j = 0; j < experts; ++j) {
        loads.startRow();
        loads.cell(j);
        loads.cell(expert_loads[j]);
        loads.cell(static_cast<double>(expert_loads[j]) / total, 3);
    }
    loads.print(std::cout);

    // Run the planner.
    TunerConfig cfg;
    cfg.capacity = capacity;
    cfg.cost.commBytesPerToken = 4096 * 2; // H=4096, bf16
    cfg.cost.compFlopsPerToken = 3.5e8;
    const LayoutDecision decision =
        tuneExpertLayout(cluster, routing, cfg);

    Table layout("LAER-MoE expert re-layout (replicas per device)");
    std::vector<std::string> header{"device", "node"};
    for (int j = 0; j < experts; ++j)
        header.push_back("e" + std::to_string(j));
    layout.setHeader(header);
    for (DeviceId d = 0; d < cluster.numDevices(); ++d) {
        layout.startRow();
        layout.cell(d);
        layout.cell(cluster.node(d));
        for (ExpertId j = 0; j < experts; ++j)
            layout.cell(decision.layout.at(d, j));
    }
    layout.print(std::cout);

    // Compare with a load-oblivious even placement.
    const ExpertLayout even = evenLayout(cluster, experts, capacity);
    const CostBreakdown even_cost =
        scoreLiteRouting(cluster, routing, even, cfg.cost).cost;

    Table cost("Predicted per-layer cost (Eq. 2)");
    cost.setHeader({"strategy", "comm_ms", "comp_ms", "total_ms"});
    cost.startRow();
    cost.cell("even placement");
    cost.cell(1e3 * even_cost.comm, 3);
    cost.cell(1e3 * even_cost.comp, 3);
    cost.cell(1e3 * even_cost.total(), 3);
    cost.startRow();
    cost.cell("LAER-MoE planner");
    cost.cell(1e3 * decision.cost.comm, 3);
    cost.cell(1e3 * decision.cost.comp, 3);
    cost.cell(1e3 * decision.cost.total(), 3);
    cost.print(std::cout);

    std::cout << "\nplanner speedup on this layer: "
              << even_cost.total() / decision.cost.total() << "x\n";
    return 0;
}
