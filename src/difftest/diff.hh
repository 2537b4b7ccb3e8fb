/**
 * @file
 * Ref-vs-candidate diff engine of the differential-testing subsystem.
 *
 * Two runs of the same scenario that are supposed to be equivalent
 * (dense vs sparse pricing, 1 vs N tuner threads, Exact vs Streaming
 * metrics, uncontrolled vs observe-only control loop, recompute vs
 * swap preemption on an unpressured pool) are compared checkpoint by
 * checkpoint: diffStreams() walks the two SnapshotStreams in
 * lock-step and produces a `DiffReport` naming the FIRST diverging
 * snapshot, the first diverging counter within it, both values and
 * the simulated time — the piece of evidence an engine refactor needs
 * to bisect a regression, in the spirit of RTL diff reports
 * (checkpoint probes + first-divergence evidence).
 *
 * Comparison is exact: the repo's equivalence lanes are bit-identity
 * disciplines, so `ref == cand` down to the last ULP (two NaNs agree).
 * Wall-clock-derived metrics (solver wall time, budget overruns,
 * self-profiling) are excluded by default — they are real time, not
 * simulated, and legitimately differ between any two processes.
 *
 * The report renders as stdout text (toText) and machine-readable
 * JSON (writeJson) for CI artifacts.
 */

#ifndef LAER_DIFFTEST_DIFF_HH
#define LAER_DIFFTEST_DIFF_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "difftest/probe.hh"

namespace laer
{

/** Diff-engine knobs. */
struct DiffOptions
{
    /**
     * Metric-name prefixes excluded from comparison. Defaults to the
     * wall-clock familes ("planner.retune_wall_ms",
     * "planner.retune_over_budget", "profile.") — real time is never
     * comparable across runs. Lanes append their own (e.g. the
     * observe-only lane ignores "ctrl.", which only the driven run
     * emits).
     */
    std::vector<std::string> ignorePrefixes = defaultIgnorePrefixes();

    /** The built-in wall-clock exclusion list. */
    static std::vector<std::string> defaultIgnorePrefixes();
};

/** One counter disagreement between the two streams. */
struct Divergence
{
    std::size_t snapshot = 0;  //!< index into both streams
    Seconds simTime = 0.0;     //!< stamp of the diverging snapshot
    std::string counter;       //!< first diverging counter's name
    double ref = 0.0;
    double cand = 0.0;
    bool refMissing = false;   //!< counter absent on the ref side
    bool candMissing = false;  //!< counter absent on the cand side
};

/**
 * Structured result of diffing two checkpoint streams. identical()
 * is the lane verdict; firstDivergence() the bisection evidence.
 */
struct DiffReport
{
    std::string refLabel;
    std::string candLabel;
    std::size_t refSnapshots = 0;
    std::size_t candSnapshots = 0;
    std::size_t snapshotsCompared = 0;
    std::size_t comparisons = 0;        //!< counter values compared
    std::size_t totalDivergences = 0;   //!< all, recorded or not
    std::vector<Divergence> divergences; //!< first 16, in stream
                                         //!< order

    /** True when every compared value agreed AND both streams had the
     * same number of snapshots. */
    bool identical() const
    {
        return totalDivergences == 0 && refSnapshots == candSnapshots;
    }

    /** The first diverging (snapshot, counter); only valid when
     * !divergences.empty(). */
    const Divergence &firstDivergence() const
    {
        return divergences.front();
    }

    /** Human-readable report (first-divergence evidence up front). */
    std::string toText() const;

    /** Machine-readable report as a single JSON object. */
    void writeJson(std::ostream &os) const;
};

/**
 * Compare two checkpoint streams snapshot by snapshot.
 *
 * Alignment is positional: snapshot i of `ref` against snapshot i of
 * `cand` (equivalent runs share the same snapshot cadence). Within a
 * snapshot, the ref's registration order is walked first, then any
 * candidate-only names — so the "first diverging counter" is stable.
 * Differing stream lengths make the report non-identical even when
 * every compared value agrees; a snapshot-stamp mismatch diverges on
 * the pseudo-counter "t".
 *
 * @param ref      Golden-reference stream.
 * @param cand     Candidate stream.
 * @param options  Exclusions and tolerance.
 * @return the structured report.
 */
DiffReport diffStreams(const SnapshotStream &ref,
                       const SnapshotStream &cand,
                       const DiffOptions &options = DiffOptions());

} // namespace laer

#endif // LAER_DIFFTEST_DIFF_HH
