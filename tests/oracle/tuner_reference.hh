/**
 * @file
 * Reference formulations of the layout tuner's inner loop (test
 * oracle: part of the laer_oracle library, which only tests and the
 * tab05 bench link).
 *
 * The library tuner places each scheme straight into its replica
 * index and scores it per (node, expert). These are the formulations
 * it replaced, kept so the tests can pin it against them: the seed
 * tuner's per-share scorer, and a tuner that relocates every scheme to
 * a full layout, rebuilds the index from it and scores every scheme,
 * repeats included.
 */

#ifndef LAER_ORACLE_TUNER_REFERENCE_HH
#define LAER_ORACLE_TUNER_REFERENCE_HH

#include "planner/layout_tuner.hh"
#include "planner/lite_routing.hh"

namespace laer
{

/**
 * The seed tuner's scorer: Eq. 2 with the pair term summed one share
 * at a time, in the (source, expert, rotated slot) order Alg. 3 emits
 * shares, one division per off-device share. recv is exact; the comm
 * term equals scoreLiteRouting's to rounding.
 *
 * @param cluster  Topology.
 * @param routing  Routing matrix R.
 * @param index    Replica lists of the candidate layout.
 * @param params   Cost constants for the Eq. 2 evaluation.
 * @return the Eq. 2 breakdown and per-destination received tokens.
 */
LiteRoutingScore scoreLiteRoutingPerShare(const Cluster &cluster,
                                          const RoutingMatrix &routing,
                                          const ReplicaIndex &index,
                                          const CostParams &params);

/** scoreLiteRoutingPerShare on a layout (builds its index). */
LiteRoutingScore scoreLiteRoutingPerShare(const Cluster &cluster,
                                          const RoutingMatrix &routing,
                                          const ExpertLayout &layout,
                                          const CostParams &params);

/**
 * Alg. 2 built the long way: the same scheme set as tuneExpertLayout,
 * each scheme relocated to an ExpertLayout, its ReplicaIndex rebuilt
 * from that layout and scored with scoreLiteRouting, serially; the
 * first strictly cheaper scheme wins. config.pool is ignored.
 *
 * @param cluster  Topology the layouts are placed on.
 * @param routing  Observed routing matrix R.
 * @param config   Tuner knobs.
 * @param repeats  Optional out: schemes equal to an earlier scheme.
 * @return the winner's layout, index and cost, and the set size.
 */
LayoutDecision tuneExpertLayoutReference(const Cluster &cluster,
                                         const RoutingMatrix &routing,
                                         const TunerConfig &config,
                                         int *repeats = nullptr);

/**
 * True iff two indexes hold the same lists: every expert's global list
 * element for element, and every (node, expert) cell's intra count.
 */
bool sameReplicaIndex(const ReplicaIndex &a, const ReplicaIndex &b);

} // namespace laer

#endif // LAER_ORACLE_TUNER_REFERENCE_HH
