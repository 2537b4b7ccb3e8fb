/**
 * @file
 * Seeded scenario fuzzer of the differential-testing subsystem.
 *
 * A `Scenario` is a fully resolved serving experiment — cluster
 * shape, arrival process, SLO-class mix, KV budget, expert-placement
 * policy and control-loop cadence — small enough to replay in well
 * under a second so a fuzzing campaign can push hundreds of them
 * through every registered equivalence lane (difftest/lanes.hh).
 *
 * generateScenario(seed) draws each knob from a documented validity
 * envelope with laer::Rng, so a scenario is a pure function of its
 * 64-bit seed: a CI failure is reproduced by the seed alone. The
 * envelopes (all inclusive):
 *
 *  - cluster: 1-2 nodes x 2-4 devices/node (>= 4 devices total),
 *    A100-ish link rates; capacity chosen so every expert fits any
 *    pool the scenario can create (capacity * devices/2 >= experts);
 *  - arrival: Poisson / Bursty / Diurnal at 4-24 req/s, mean prompt
 *    64-320 tokens, mean output 8-48 tokens, 1-3 SLO classes;
 *  - policy: LaerServe / StaticEp / FlexMoe, or Disaggregated on
 *    clusters whose half-split is node-regular;
 *  - KV budget: off, ample, or pressured (a synthetic byte pool
 *    sized in token units, floored at 48x the mean full context so a
 *    single request always fits — the validity requirement of
 *    ContinuousBatcher::enqueue);
 *  - horizon 1.5-3 s, retune period 4-32 steps, 1-3 simulated
 *    layers, control window 0.25-1 s, checkpoint cadence 0.25 s;
 *  - topology: ~35% of LaerServe scenarios run two half-cluster
 *    replica slices instead of one whole-cluster engine;
 *  - faults: ~25% of replica/Disaggregated scenarios carry a fault
 *    plan that heals before the horizon: a mid-run replica fail-stop
 *    with a scripted repair, or under Disaggregated either a
 *    boundary-link down/up flap or a fail-stop plus repair of a
 *    uniformly drawn pool.
 *
 * shrinkScenario() turns a failing (lane, scenario) pair into a
 * minimal reproducer by bisecting the knobs toward their floors —
 * halving the horizon, rate, token means and layer count, collapsing
 * the arrival process and class mix, dropping the fault plan and the
 * replica topology — re-running the lane after each candidate
 * reduction and keeping exactly those that still fail.
 */

#ifndef LAER_DIFFTEST_SCENARIO_GEN_HH
#define LAER_DIFFTEST_SCENARIO_GEN_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "core/rng.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace laer
{

/** One fully resolved fuzz scenario. */
struct Scenario
{
    std::uint64_t seed = 0;   //!< the seed that generated it
    int nodes = 2;
    int devicesPerNode = 4;
    double intraBw = 300e9;
    double interBw = 12.5e9;
    double computeFlops = 212e12;
    ServingConfig serving;    //!< policy, arrival, batcher, KV, seeds
    Seconds controlInterval = 0.5; //!< decision window of loop lanes
    Seconds snapshotInterval = 0.25; //!< checkpoint cadence

    /** Topology the scenario runs on. */
    Cluster makeCluster() const
    {
        return Cluster(nodes, devicesPerNode, intraBw, interBw,
                       computeFlops);
    }

    /** One-line knob summary for logs and reproducers. */
    std::string describe() const;

    /** Knob summary as a JSON object (CI artifact records). */
    void writeJson(std::ostream &os) const;
};

/** Deterministic scenario from a 64-bit seed (see the envelopes in
 * the file comment). */
Scenario generateScenario(std::uint64_t seed);

/**
 * Stream of scenarios: next() derives a fresh seed from the
 * generator's Rng and resolves it with generateScenario(), so every
 * emitted scenario is independently replayable from its own seed.
 */
class ScenarioGen
{
  public:
    explicit ScenarioGen(std::uint64_t seed) : rng_(seed) {}

    /** Generate the next scenario of the stream. */
    Scenario next() { return generateScenario(rng_.nextU64()); }

  private:
    Rng rng_;
};

/** Result of a shrink search. */
struct ShrinkOutcome
{
    Scenario scenario;   //!< smallest still-failing scenario found
    int attempts = 0;    //!< lane replays spent
    int reductions = 0;  //!< knob reductions that kept the failure
};

/**
 * Shrink a failing scenario toward a minimal reproducer.
 *
 * @param failing      Scenario for which `still_fails` returns true.
 * @param still_fails  Re-runs the lane on a candidate; true when the
 *                     failure reproduces. Must be deterministic.
 * @param max_attempts Replay budget; the search stops early when a
 *                     whole pass accepts no further reduction.
 * @return the smallest still-failing scenario reached, with search
 *         accounting.
 */
ShrinkOutcome
shrinkScenario(const Scenario &failing,
               const std::function<bool(const Scenario &)> &still_fails,
               int max_attempts = 96);

} // namespace laer

#endif // LAER_DIFFTEST_SCENARIO_GEN_HH
