/**
 * @file
 * Tab. 4 / Appendix D — trace-driven scalability of the re-layout
 * algorithm: simulated MLP-module (expert compute + All-to-All)
 * speedup of LAER-MoE over FSDP+EP as the cluster grows from 8 to 128
 * GPUs, replaying a recorded Mixtral-8x7B-e8k2 routing trace rescaled
 * to each cluster size. Expected shape: speedup stable (~1.49x in the
 * paper) across scales.
 */

#include <iostream>

#include "baselines/static_ep.hh"
#include "comm/collectives.hh"
#include "core/table.hh"
#include "model/config.hh"
#include "planner/layout_tuner.hh"
#include "planner/routing_plan_sparse.hh"
#include "trace/routing_generator.hh"
#include "trace/trace.hh"

namespace
{

/** MLP-module time: expert compute tail + dispatch/combine A2A. */
laer::Seconds
mlpTime(const laer::Cluster &cluster, const laer::ModelConfig &model,
        const laer::RoutingPlanSparse &plan)
{
    laer::A2aPortLoads loads;
    plan.portLoads(cluster, model.tokenBytes(), loads);
    const laer::Seconds a2a =
        laer::a2aBottleneckTimeFromLoads(cluster, loads) +
        laer::a2aBottleneckTimeFromLoads(cluster, loads, true);
    laer::TokenCount busiest = 0;
    for (laer::TokenCount r : plan.receivedTokens())
        busiest = std::max(busiest, r);
    const laer::Seconds comp = static_cast<double>(busiest) *
                               model.expertFlopsPerToken() /
                               cluster.computeFlops();
    // Forward + backward (2x) for both compute and token A2As.
    return 3.0 * comp + 2.0 * a2a;
}

} // namespace

int
main()
{
    const laer::ModelConfig model = laer::mixtral8x7bE8K2();
    const int capacity = 2;

    // "Record" a routing trace at 8 GPUs (one node), then replay it
    // rescaled to each cluster size — the Appendix D methodology.
    const int trace_iters = 20;
    laer::RoutingModel rm = laer::RoutingModel::wikitext(
        8, model.numExperts, model.topK, 16384);
    rm.seed = 31;
    laer::RoutingGenerator gen(rm);
    laer::RoutingTrace trace(trace_iters, 1);
    for (int it = 0; it < trace_iters; ++it)
        trace.set(it, 0, gen.next());

    laer::Table table(
        "Tab. 4 — simulated MLP speedup vs cluster size "
        "(Mixtral-8x7B-e8k2 routing trace)");
    table.setHeader({"GPUs", "FSDP+EP MLP ms", "LAER MLP ms",
                     "speedup"});

    for (const int gpus : {8, 16, 32, 64, 128}) {
        const laer::Cluster cluster =
            laer::Cluster::a100(std::max(1, gpus / 8),
                                std::min(8, gpus));
        const laer::RoutingTrace scaled =
            trace.rescaleDevices(gpus);
        const laer::EpGrouping grouping(
            cluster, model.numExperts / capacity, true);
        const laer::ExpertLayout static_layout =
            laer::staticEpLayout(cluster, model.numExperts, grouping);

        laer::TunerConfig tc;
        tc.capacity = capacity;
        tc.cost.commBytesPerToken = model.tokenBytes();
        tc.cost.compFlopsPerToken = model.expertFlopsPerToken();

        laer::Seconds t_static = 0.0, t_laer = 0.0;
        laer::RoutingPlanSparse plan;
        for (int it = 1; it < trace_iters; ++it) {
            const laer::RoutingMatrix &routing = scaled.at(it, 0);
            // Baseline: static grouped EP routing.
            laer::staticEpRoutingSparse(routing, grouping, static_layout,
                                        plan);
            t_static += mlpTime(cluster, model, plan);
            // LAER: layout tuned from the previous iteration's
            // routing, dispatched with lite routing.
            const laer::LayoutDecision dec = laer::tuneExpertLayout(
                cluster, scaled.at(it - 1, 0), tc);
            laer::liteRoutingSparse(cluster, routing, dec.index, plan);
            t_laer += mlpTime(cluster, model, plan);
        }
        table.startRow();
        table.cell(gpus);
        table.cell(1e3 * t_static / (trace_iters - 1), 2);
        table.cell(1e3 * t_laer / (trace_iters - 1), 2);
        table.cell(t_static / t_laer, 3);
    }
    table.print(std::cout);
    return 0;
}
