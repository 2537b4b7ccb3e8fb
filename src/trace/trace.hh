/**
 * @file
 * Routing-trace container: record, replay, and summarise the R
 * matrices of a training run (per iteration, per layer).
 *
 * The scalability study (paper Appendix D) replays recorded traces at
 * different cluster sizes; RoutingTrace::rescaleDevices supports that
 * by re-aggregating token sources over a new device count while
 * preserving the per-expert load profile.
 */

#ifndef LAER_TRACE_TRACE_HH
#define LAER_TRACE_TRACE_HH

#include <vector>

#include "planner/types.hh"

namespace laer
{

/** Per-iteration imbalance summary of one routing matrix. */
struct LoadSnapshot
{
    double maxExpertShare = 0.0; //!< hottest expert's token share
    double imbalance = 0.0;      //!< max/mean over experts
    TokenCount totalTokens = 0;
};

/** Summarise the skew of one routing matrix. */
LoadSnapshot summarizeRouting(const RoutingMatrix &routing);

/**
 * A recorded routing trace indexed as [iteration][layer].
 */
class RoutingTrace
{
  public:
    RoutingTrace() = default;

    /** Reserve a trace of `iterations` x `layers`. */
    RoutingTrace(int iterations, int layers);

    int iterations() const { return static_cast<int>(data_.size()); }
    int layers() const;

    /** Store the routing matrix of (iteration, layer). */
    void set(int iteration, int layer, RoutingMatrix routing);

    /** Routing matrix of (iteration, layer). */
    const RoutingMatrix &at(int iteration, int layer) const;

    /**
     * Re-aggregate the trace onto `new_devices` sources, keeping each
     * iteration's per-expert load distribution and total token count
     * per device. Used by the Tab. 4 scalability replay.
     */
    RoutingTrace rescaleDevices(int new_devices) const;

  private:
    std::vector<std::vector<RoutingMatrix>> data_;
};

} // namespace laer

#endif // LAER_TRACE_TRACE_HH
