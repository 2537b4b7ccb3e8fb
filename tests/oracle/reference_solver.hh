/**
 * @file
 * Exhaustive reference solver for tiny instances (test oracle: part of
 * the laer_oracle library, which only tests link).
 *
 * The joint problem (Eq. 2) is a nonlinear integer program; the paper
 * resorts to greedy heuristics. For testing we enumerate every layout
 * with exactly C distinct experts per device (the search space the
 * greedy also inhabits), route each with lite routing and keep the
 * cheapest — giving a certified optimum-within-the-routing-family to
 * compare the tuner against. Complexity is C(E, C)^N, so this is only
 * usable for toy sizes (guarded by a hard limit).
 */

#ifndef LAER_ORACLE_REFERENCE_SOLVER_HH
#define LAER_ORACLE_REFERENCE_SOLVER_HH

#include "planner/layout_tuner.hh"

namespace laer
{

/**
 * Enumerate all feasible layouts (<= `max_states` combinations,
 * default 2^20) and return the best decision under lite routing.
 * Throws FatalError when the instance is too large.
 *
 * @param cluster     Topology the layouts are placed on.
 * @param routing     Routing matrix R to optimise for.
 * @param cost        Cost constants for the Eq. 2 evaluation.
 * @param capacity    Expert slots per device (C).
 * @param max_states  Enumeration abort threshold.
 * @return the certified-cheapest decision within the routing family.
 */
LayoutDecision exhaustiveLayoutSearch(const Cluster &cluster,
                                      const RoutingMatrix &routing,
                                      const CostParams &cost, int capacity,
                                      long max_states = 1 << 20);

} // namespace laer

#endif // LAER_ORACLE_REFERENCE_SOLVER_HH
