/**
 * @file
 * Expert layout tuner (paper Alg. 2) — the asynchronous half of the
 * load-balancing planner.
 *
 * Builds a set of replica-count schemes (priority-queue proportional,
 * even, plus random perturbations up to |epsilon|), places each with
 * expert relocation (Alg. 1), routes with lite routing (Alg. 3),
 * scores with the cost model (Eq. 2) and returns the cheapest layout.
 * The flags exist for the Fig. 12 ablation ("pq" / "even" only).
 */

#ifndef LAER_PLANNER_LAYOUT_TUNER_HH
#define LAER_PLANNER_LAYOUT_TUNER_HH

#include <cstdint>

#include "planner/cost_model.hh"
#include "planner/types.hh"
#include "topo/cluster.hh"

namespace laer
{

class ThreadPool;

/** Tuner knobs; defaults match the paper's configuration. */
struct TunerConfig
{
    int capacity = 2;        //!< C, expert slots per device
    int setSize = 4;         //!< |epsilon| including the two seeds
    bool usePq = true;       //!< include proportional allocation
    bool useEven = true;     //!< include even allocation
    /**
     * Read by nothing: the tuner returns only the layout and its cost
     * (Fig. 7 leaves S to the synchronous dispatcher). Kept only
     * because perfbench still sets it; delete it once that line is
     * gone.
     */
    bool buildPlan = true;
    std::uint64_t seed = 1;  //!< perturbation randomness
    CostParams cost;         //!< layer workload constants
    /** Optional worker pool (core/thread_pool.hh) the scheme set is
     * scored on; null scores serially. The winner is reduced in
     * scheme order either way, so the decision is identical for any
     * thread count. Non-owning. */
    ThreadPool *pool = nullptr;
    /** Score schemes with the node-aggregated scorer
     * (scoreLiteRoutingFast), as every run with no older output to
     * keep does at any scale (tab05's serving arm, fig15, perfbench's
     * scale-256 and day-replicas). Same costs in exact arithmetic,
     * tighter rounding: machine-precision scheme ties may resolve
     * differently than the seed path, so off by default to keep
     * historical outputs byte-for-byte. */
    bool fastScoring = false;
};

/** Result of one tuner invocation. */
struct LayoutDecision
{
    ExpertLayout layout;   //!< A
    CostBreakdown cost;    //!< Eq. 2 value of A under lite routing
    int schemesTried = 0;  //!< size of the evaluated replica set
    /** Solver wall-clock time for this invocation, milliseconds.
     * Measured inside tuneExpertLayout so every caller (engine retune
     * spans, planner benches) reports the same quantity. */
    double wallMs = 0.0;
};

/**
 * Solve the expert re-layout for one MoE layer given the routing
 * matrix observed in the previous iteration (paper Fig. 7: the CPU
 * solves for iteration t+1 while t computes).
 *
 * @param cluster  Topology the layouts are placed on.
 * @param routing  Observed routing matrix R of the last iteration.
 * @param config   Tuner knobs (capacity, scheme set, cost constants).
 * @return the cheapest evaluated layout with its Eq. 2 cost.
 */
LayoutDecision tuneExpertLayout(const Cluster &cluster,
                                const RoutingMatrix &routing,
                                const TunerConfig &config);

} // namespace laer

#endif // LAER_PLANNER_LAYOUT_TUNER_HH
