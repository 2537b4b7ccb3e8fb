#include "serve/arrival.hh"

#include <cmath>

#include "core/error.hh"

namespace laer
{

namespace
{

/** Mean seconds per burst episode (Bursty). */
constexpr double kBurstHold = 2.0;

/** Floors on the prompt and output length draws. */
constexpr TokenCount kMinPrefillTokens = 8;
constexpr TokenCount kMinDecodeTokens = 2;

/** Exponential variate with the given mean (inverse-CDF). */
Seconds
exponential(Rng &rng, double mean)
{
    double u = rng.uniform();
    while (u <= 1e-300)
        u = rng.uniform();
    return -std::log(u) * mean;
}

/** Geometric-tailed length draw: floor + exponential remainder. */
TokenCount
lengthDraw(Rng &rng, TokenCount mean, TokenCount floor_len)
{
    if (mean <= floor_len)
        return floor_len;
    const double tail =
        exponential(rng, static_cast<double>(mean - floor_len));
    return floor_len + static_cast<TokenCount>(std::llround(tail));
}

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Bursty:
        return "bursty";
      case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config)
    : config_(config), rng_(config.seed)
{
    LAER_CHECK(config_.ratePerSec > 0.0, "arrival rate must be positive");
    LAER_CHECK(config_.meanPrefillTokens >= 1 &&
                   config_.meanDecodeTokens >= 1,
               "mean request lengths must be positive");
    LAER_CHECK(config_.numSloClasses >= 1, "need at least one SLO class");
    if (config_.kind == ArrivalKind::Bursty) {
        LAER_CHECK(config_.burstFactor >= 1.0,
                   "burst factor must be >= 1");
        LAER_CHECK(config_.burstFraction > 0.0 &&
                       config_.burstFraction < 1.0,
                   "burst fraction must be in (0, 1)");
        // The state machine flips whenever time crosses stateEnd_.
        // Seeding it in the burst state with a boundary at t = 0 makes
        // the stream open in the quiet state with a fresh holding time.
        bursting_ = true;
    }
    if (config_.kind == ArrivalKind::Diurnal) {
        LAER_CHECK(config_.diurnalAmplitude >= 0.0 &&
                       config_.diurnalAmplitude < 1.0,
                   "diurnal amplitude must be in [0, 1)");
        LAER_CHECK(config_.diurnalPeriod > 0.0,
                   "diurnal period must be positive");
    }
}

Seconds
ArrivalProcess::nextGap()
{
    switch (config_.kind) {
      case ArrivalKind::Poisson:
        return exponential(rng_, 1.0 / config_.ratePerSec);

      case ArrivalKind::Bursty: {
        // Quiet-state rate chosen so the long-run mean is ratePerSec.
        const double f = config_.burstFraction;
        const double quiet_rate =
            config_.ratePerSec / (1.0 - f + f * config_.burstFactor);
        const double burst_rate = quiet_rate * config_.burstFactor;
        const double quiet_hold = kBurstHold * (1.0 - f) / f;

        Seconds t = now_;
        for (;;) {
            const double rate = bursting_ ? burst_rate : quiet_rate;
            const Seconds gap = exponential(rng_, 1.0 / rate);
            if (t + gap <= stateEnd_)
                return (t + gap) - now_;
            // Crossed a state boundary: discard the draw (memoryless),
            // flip the state, and continue from the boundary.
            t = stateEnd_;
            bursting_ = !bursting_;
            stateEnd_ = t + exponential(rng_, bursting_ ? kBurstHold
                                                        : quiet_hold);
        }
      }

      case ArrivalKind::Diurnal: {
        // Lewis-Shedler thinning against the peak rate.
        const double peak =
            config_.ratePerSec * (1.0 + config_.diurnalAmplitude);
        Seconds t = now_;
        for (;;) {
            t += exponential(rng_, 1.0 / peak);
            const double lambda =
                config_.ratePerSec *
                (1.0 + config_.diurnalAmplitude *
                           std::sin(2.0 * kPi * t /
                                    config_.diurnalPeriod));
            if (rng_.uniform() * peak <= lambda)
                return t - now_;
        }
      }
    }
    panic("unreachable arrival kind");
}

Request
ArrivalProcess::next()
{
    now_ += nextGap();
    Request r;
    r.id = nextId_++;
    r.arrival = now_;
    r.prefillTokens = lengthDraw(rng_, config_.meanPrefillTokens,
                                 kMinPrefillTokens);
    r.decodeTokens = lengthDraw(rng_, config_.meanDecodeTokens,
                                kMinDecodeTokens);
    r.sloClass = config_.numSloClasses == 1
                     ? 0
                     : rng_.uniformInt(0, config_.numSloClasses - 1);
    return r;
}

} // namespace laer
