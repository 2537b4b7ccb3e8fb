/**
 * @file
 * End-to-end scenario: simulate Mixtral-8x7B (e8k2) training at 8K
 * context on a 4x8 A100-like cluster, comparing LAER-MoE against the
 * FSDP+EP and Megatron baselines iteration by iteration — the
 * workload of the paper's Sec. 5.2. Stdout is seeded (ctest gates
 * it); the planner's wall-clock time, which is not, goes to stderr.
 *
 *   ./examples/mixtral_training [iterations]
 */

#include <cstdlib>
#include <iostream>

#include "core/table.hh"
#include "runtime/training_sim.hh"

int
main(int argc, char **argv)
{
    using namespace laer;
    const int iters = argc > 1 ? std::atoi(argv[1]) : 8;

    const Cluster cluster = Cluster::a100(4);
    std::cout << "Cluster: " << cluster.describe() << "\n";
    const ModelConfig model = mixtral8x7bE8K2();
    std::cout << "Model:   " << model.name << " ("
              << model.totalParams() / 1000000000.0 << "B params)\n\n";
    double planner_ms = 0.0; // wall clock, summed over every system

    auto make_config = [&](SystemKind system) {
        SimulatorConfig cfg;
        cfg.model = model;
        cfg.system = system;
        cfg.capacity = 2;
        cfg.tpDegree = 4;
        cfg.simulatedLayers = 4;
        cfg.routing = RoutingModel::wikitext(cluster.numDevices(), 8,
                                             2, 16384);
        cfg.seed = 77;
        return cfg;
    };

    for (SystemKind system : {SystemKind::Laer, SystemKind::FsdpEp,
                              SystemKind::Megatron}) {
        TrainingSimulator sim(cluster, make_config(system));
        Table table(std::string("Training timeline — ") +
                    systemName(system));
        table.setHeader({"iter", "time_ms", "tokens/s(K)", "a2a_ms",
                         "expert_ms", "max/mean"});
        for (int i = 0; i < iters; ++i) {
            const IterationResult r = sim.step();
            table.startRow();
            table.cell(i);
            table.cell(1e3 * r.time, 1);
            table.cell(r.tokensPerSecond / 1e3, 1);
            table.cell(1e3 * r.a2a, 1);
            table.cell(1e3 * r.expert, 1);
            table.cell(r.maxRelTokens, 2);
            planner_ms += 1e3 * r.plannerWall;
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cerr << "planner wall time: " << planner_ms << " ms over "
              << iters << " iterations per system\n";
    return 0;
}
