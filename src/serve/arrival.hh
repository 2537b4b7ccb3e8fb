/**
 * @file
 * Open-loop request arrival processes for the serving simulator.
 *
 * Serving workloads differ from training exactly where it hurts a
 * static layout: load is bursty and non-stationary. Three generators
 * are provided, all driven by core/rng so a fixed seed reproduces the
 * identical request stream bit-for-bit:
 *
 *  - Poisson: memoryless arrivals at a constant mean rate — the
 *    queueing-theory baseline.
 *  - Bursty: a two-state Markov-modulated Poisson process (MMPP).
 *    The process alternates between a quiet state and a burst state
 *    whose rate is `burstFactor` times higher; state holding times are
 *    exponential, 2 s on average in the burst state. The mean rate
 *    over time equals `ratePerSec`.
 *  - Diurnal: a non-homogeneous Poisson process with sinusoidal rate
 *    lambda(t) = rate * (1 + amplitude * sin(2 pi t / period)),
 *    sampled by Lewis-Shedler thinning — a compressed day/night cycle.
 *
 * Prompt and output lengths are geometric-tailed (exponential rounded
 * up) above fixed floors of 8 and 2 tokens, matching the heavy right
 * tail of production traces.
 */

#ifndef LAER_SERVE_ARRIVAL_HH
#define LAER_SERVE_ARRIVAL_HH

#include <cstdint>

#include "core/rng.hh"
#include "serve/request.hh"

namespace laer
{

/** Shape of the arrival process. */
enum class ArrivalKind
{
    Poisson, //!< constant-rate, memoryless
    Bursty,  //!< two-state MMPP
    Diurnal, //!< sinusoidal rate, thinned
};

/** Printable arrival-kind name. */
const char *arrivalKindName(ArrivalKind kind);

/** Arrival-process and request-shape knobs. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    double ratePerSec = 16.0;     //!< long-run mean request rate

    double burstFactor = 4.0;     //!< burst rate / mean rate (Bursty)
    double burstFraction = 0.15;  //!< fraction of time in burst state

    double diurnalPeriod = 120.0; //!< seconds per synthetic "day"
    double diurnalAmplitude = 0.6;//!< rate swing in [0, 1)

    TokenCount meanPrefillTokens = 512; //!< mean prompt length
    TokenCount meanDecodeTokens = 128;  //!< mean output length

    int numSloClasses = 1;        //!< priority classes, drawn uniformly
    std::uint64_t seed = 42;
};

/**
 * Stateful generator; next() returns requests with strictly
 * increasing arrival timestamps and fresh ids.
 */
class ArrivalProcess
{
  public:
    explicit ArrivalProcess(const ArrivalConfig &config);

    /**
     * Generate the next request of the stream.
     * @return a request with a fresh id and an arrival time strictly
     *         after every previously generated one.
     */
    Request next();

    /** Config in force. */
    const ArrivalConfig &config() const { return config_; }

    /** Arrival time of the last generated request. */
    Seconds now() const { return now_; }

  private:
    /** Seconds until the next arrival, per the configured process. */
    Seconds nextGap();

    ArrivalConfig config_;
    Rng rng_;
    Seconds now_ = 0.0;
    int nextId_ = 0;
    bool bursting_ = false;  //!< MMPP state
    Seconds stateEnd_ = 0.0; //!< MMPP next state flip
};

} // namespace laer

#endif // LAER_SERVE_ARRIVAL_HH
