/**
 * @file
 * Equivalence lanes — the catalog of "these two configurations must
 * agree" disciplines the differential tester enforces.
 *
 * A lane runs the same `Scenario` twice — once as the golden
 * reference, once as the candidate — and the two checkpoint streams
 * are diffed snapshot by snapshot (difftest/diff.hh). The registered
 * lanes (see docs/TESTING.md for the catalog):
 *
 *  - "threads":        1 tuner worker vs a thread pool. The fan-out
 *                      is reduction-order-stable, so results are
 *                      bit-identical for any thread count.
 *  - "serial-vs-parallel-des":
 *                      the windowed event core (desParallel) at 1
 *                      worker vs 4, driven by an active threshold
 *                      autoscaler over replica slices. Engine windows
 *                      execute share-nothing and merge in engine
 *                      order; reconfigs fall back to the serial core,
 *                      so every simulated number is bit-identical
 *                      across thread counts.
 *  - "metrics-mode":   Exact vs Streaming metrics storage. Streaming
 *                      bounds sample memory; every simulated counter
 *                      must stay bit-identical (write-only
 *                      observability contract).
 *  - "control-none":   plain ServingSimulator::run() vs a ControlLoop
 *                      with AutoscalerKind::None. An observing loop
 *                      must not perturb the run; the "ctrl." window
 *                      exports only the driven side emits are
 *                      excluded from the diff.
 *  - "swap-recompute": PreemptionMode::Recompute vs Swap on a pool
 *                      sized so no preemption ever fires — the only
 *                      regime where the two modes are defined to be
 *                      equivalent (the lane's prepare() forces the
 *                      ample pool).
 *  - "fault-determinism":
 *                      the same seed + fault plan at 1 worker/Exact
 *                      metrics vs 4 workers/windowed-core-requested/
 *                      Streaming metrics. Faulted runs pin the serial
 *                      event core, so kills, backoff retries and
 *                      repairs must replay bit-identically; prepare()
 *                      injects a canonical kill+repair (or link flap)
 *                      when the scenario drew no plan of its own.
 *
 * Adding a lane: subclass EquivalenceLane, implement runRef/
 * runCandidate (and prepare() when the scenario needs constraining),
 * then register it in equivalenceLanes() and document it in
 * docs/TESTING.md.
 */

#ifndef LAER_DIFFTEST_LANES_HH
#define LAER_DIFFTEST_LANES_HH

#include <string>
#include <vector>

#include "difftest/diff.hh"
#include "difftest/probe.hh"
#include "difftest/scenario_gen.hh"

namespace laer
{

/** One side of a lane: a labelled run with its checkpoint stream. */
struct LaneRun
{
    std::string label;     //!< e.g. "threads=1"
    SnapshotStream stream; //!< checkpoints at the scenario cadence
    ServingReport report;  //!< end-of-run totals (serving lanes)

    /** Attribution-conservation findings from the run's every-request
     * sampler (serving lanes; always empty for synthesized planner
     * streams). Non-empty findings fail the lane. */
    std::vector<std::string> traceViolations;
};

/**
 * One equivalence discipline: how to run the reference and the
 * candidate, and how to compare them.
 */
class EquivalenceLane
{
  public:
    virtual ~EquivalenceLane() = default;

    /** Stable lane id (CLI --lane, CI artifacts). */
    virtual const char *name() const = 0;

    /** One-line statement of the discipline. */
    virtual const char *description() const = 0;

    /**
     * Constrain a fuzzed scenario to the regime where the lane's
     * equivalence is defined (e.g. swap-recompute forces a pool that
     * never preempts). Default: the scenario as-is.
     */
    virtual Scenario prepare(Scenario scenario) const
    {
        return scenario;
    }

    /** Diff knobs; lanes extend the wall-clock exclusions. */
    virtual DiffOptions diffOptions() const { return DiffOptions(); }

    /** Golden-reference run of the prepared scenario. */
    virtual LaneRun runRef(const Scenario &scenario) const = 0;

    /** Candidate run of the prepared scenario. */
    virtual LaneRun runCandidate(const Scenario &scenario) const = 0;
};

/** Verdict of one (lane, scenario) replay. */
struct LaneOutcome
{
    std::string lane;
    Scenario scenario;        //!< post-prepare scenario actually run
    DiffReport diff;          //!< first-divergence evidence
    std::vector<std::string> refViolations;  //!< invariant findings
    std::vector<std::string> candViolations; //!< invariant findings

    /** True when the streams were identical and every invariant —
     * conservation over snapshots and attribution conservation at
     * each sampled retirement — held on both sides. */
    bool passed() const
    {
        return diff.identical() && refViolations.empty() &&
               candViolations.empty();
    }
};

/** The registered lanes, in catalog order. */
const std::vector<const EquivalenceLane *> &equivalenceLanes();

/** Lane by stable id; nullptr when unknown. */
const EquivalenceLane *laneByName(const std::string &name);

/**
 * Replay one scenario through one lane: prepare, run both sides,
 * diff the streams, and evaluate the conservation invariants on each
 * side (when the lane supports them).
 */
LaneOutcome runLane(const EquivalenceLane &lane,
                    const Scenario &scenario);

} // namespace laer

#endif // LAER_DIFFTEST_LANES_HH
