#include "serve/request.hh"

#include "core/error.hh"
#include "core/stats.hh"

namespace laer
{

const char *
requestPhaseName(RequestPhase phase)
{
    switch (phase) {
      case RequestPhase::Queued:
        return "queued";
      case RequestPhase::Prefill:
        return "prefill";
      case RequestPhase::Decode:
        return "decode";
      case RequestPhase::Finished:
        return "finished";
    }
    return "?";
}

Seconds
Request::ttft() const
{
    return firstTokenTime < 0.0 ? -1.0 : firstTokenTime - arrival;
}

Seconds
Request::tpot() const
{
    if (decodeTokens < 2 || finishTime < 0.0 || firstTokenTime < 0.0)
        return 0.0;
    return (finishTime - firstTokenTime) /
           static_cast<double>(decodeTokens - 1);
}

ServingMetrics::ServingMetrics(Seconds slo_ttft, MetricsMemoryMode mode)
    : sloTtft_(slo_ttft), mode_(mode)
{
    LAER_CHECK(slo_ttft > 0.0, "TTFT SLO must be positive");
}

void
ServingMetrics::record(const Request &request)
{
    LAER_CHECK(request.phase() == RequestPhase::Finished,
               "only finished requests carry complete latencies");
    ++completed_;
    decodedTokens_ += request.decodeTokens;
    if (mode_ == MetricsMemoryMode::Exact) {
        ttfts_.push_back(request.ttft());
        if (request.decodeTokens >= 2)
            tpots_.push_back(request.tpot());
    } else {
        ttftStream_.add(request.ttft());
        if (request.decodeTokens >= 2)
            tpotStream_.add(request.tpot());
    }
    if (request.ttft() <= sloTtft_) {
        ++sloMet_;
        goodTokens_ += request.decodeTokens;
    }
}

void
ServingMetrics::recordPreemption(int slo_class)
{
    LAER_CHECK(slo_class >= 0, "negative SLO class");
    if (static_cast<std::size_t>(slo_class) >= preemptionsByClass_.size())
        preemptionsByClass_.resize(slo_class + 1, 0);
    ++preemptionsByClass_[slo_class];
}

void
ServingMetrics::recordKvUtilization(double utilization)
{
    if (mode_ == MetricsMemoryMode::Exact)
        kvUtil_.push_back(utilization);
    else
        kvUtilStream_.add(utilization);
}

void
ServingMetrics::recordAttribution(int slo_class,
                                  const AttrBreakdown &e2e)
{
    LAER_CHECK(slo_class >= 0, "negative SLO class");
    if (static_cast<std::size_t>(slo_class) >= attr_.size())
        attr_.resize(slo_class + 1);
    auto &per_class = attr_[slo_class];
    for (int i = 0; i < kNumAttrComponents; ++i) {
        AttrAgg &agg = per_class[i];
        const double x = e2e.components[i];
        if (mode_ == MetricsMemoryMode::Exact)
            agg.samples.push_back(x);
        else
            agg.stream.add(x);
        ++agg.count;
        agg.sum += x;
        if (agg.count == 1 || x > agg.max)
            agg.max = x;
    }
}

std::vector<std::array<AttributionComponentStats, kNumAttrComponents>>
ServingMetrics::attributionByClass() const
{
    std::vector<std::array<AttributionComponentStats,
                           kNumAttrComponents>>
        out(attr_.size());
    for (std::size_t c = 0; c < attr_.size(); ++c) {
        for (int i = 0; i < kNumAttrComponents; ++i) {
            const AttrAgg &agg = attr_[c][i];
            AttributionComponentStats &stats = out[c][i];
            stats.count = agg.count;
            if (agg.count == 0)
                continue;
            stats.mean = agg.sum / static_cast<double>(agg.count);
            stats.max = agg.max;
            if (mode_ == MetricsMemoryMode::Exact) {
                stats.p50 = percentile(agg.samples, 50.0);
                stats.p95 = percentile(agg.samples, 95.0);
                stats.p99 = percentile(agg.samples, 99.0);
            } else {
                stats.p50 = agg.stream.quantile(50.0);
                stats.p95 = agg.stream.quantile(95.0);
                stats.p99 = agg.stream.quantile(99.0);
            }
        }
    }
    return out;
}

std::int64_t
ServingMetrics::totalPreemptions() const
{
    std::int64_t n = 0;
    for (const std::int64_t c : preemptionsByClass_)
        n += c;
    return n;
}

std::int64_t
ServingMetrics::preemptions(int slo_class) const
{
    if (slo_class < 0 ||
        static_cast<std::size_t>(slo_class) >= preemptionsByClass_.size())
        return 0;
    return preemptionsByClass_[slo_class];
}

double
ServingMetrics::meanKvUtilization() const
{
    if (mode_ == MetricsMemoryMode::Streaming)
        return kvUtilStream_.mean();
    return mean(kvUtil_);
}

double
ServingMetrics::peakKvUtilization() const
{
    if (mode_ == MetricsMemoryMode::Streaming)
        return kvUtilStream_.max();
    return maxOf(kvUtil_);
}

Seconds
ServingMetrics::ttftPercentile(double p) const
{
    if (mode_ == MetricsMemoryMode::Streaming)
        return ttftStream_.quantile(p);
    return percentile(ttfts_, p);
}

Seconds
ServingMetrics::tpotPercentile(double p) const
{
    if (mode_ == MetricsMemoryMode::Streaming)
        return tpotStream_.quantile(p);
    return percentile(tpots_, p);
}

double
ServingMetrics::throughput(Seconds elapsed) const
{
    return elapsed > 0.0 ? static_cast<double>(decodedTokens_) / elapsed
                         : 0.0;
}

double
ServingMetrics::goodput(Seconds elapsed) const
{
    return elapsed > 0.0 ? static_cast<double>(goodTokens_) / elapsed
                         : 0.0;
}

} // namespace laer
