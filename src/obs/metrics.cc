#include "obs/metrics.hh"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "core/error.hh"
#include "obs/trace.hh"

namespace laer
{

// ---- P2Quantile -----------------------------------------------------------

P2Quantile::P2Quantile(double q) : q_(q)
{
    LAER_CHECK(q > 0.0 && q < 1.0,
               "P2 quantile must lie in (0, 1), got " << q);
}

void
P2Quantile::add(double x)
{
    if (count_ < 5) {
        // Warm-up: keep the first five samples sorted in heights_.
        std::int64_t i = count_;
        while (i > 0 && heights_[i - 1] > x) {
            heights_[i] = heights_[i - 1];
            --i;
        }
        heights_[i] = x;
        ++count_;
        if (count_ == 5) {
            for (int m = 0; m < 5; ++m)
                positions_[m] = m + 1;
            desired_[0] = 1.0;
            desired_[1] = 1.0 + 2.0 * q_;
            desired_[2] = 1.0 + 4.0 * q_;
            desired_[3] = 3.0 + 2.0 * q_;
            desired_[4] = 5.0;
            increments_[0] = 0.0;
            increments_[1] = q_ / 2.0;
            increments_[2] = q_;
            increments_[3] = (1.0 + q_) / 2.0;
            increments_[4] = 1.0;
        }
        return;
    }

    // Locate the marker cell of the new sample, extending the
    // extremes when it falls outside them.
    int k;
    if (x < heights_[0]) {
        heights_[0] = x;
        k = 0;
    } else if (x >= heights_[4]) {
        heights_[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= heights_[k + 1])
            ++k;
    }
    ++count_;

    for (int m = k + 1; m < 5; ++m)
        positions_[m] += 1.0;
    for (int m = 0; m < 5; ++m)
        desired_[m] += increments_[m];

    // Adjust the three interior markers toward their desired
    // positions with the piecewise-parabolic (P^2) formula, falling
    // back to linear interpolation when the parabola breaks marker
    // monotonicity.
    for (int m = 1; m <= 3; ++m) {
        const double d = desired_[m] - positions_[m];
        const double right = positions_[m + 1] - positions_[m];
        const double left = positions_[m - 1] - positions_[m];
        if ((d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0)) {
            const double s = d >= 0.0 ? 1.0 : -1.0;
            const double qp =
                heights_[m] +
                s / (positions_[m + 1] - positions_[m - 1]) *
                    ((positions_[m] - positions_[m - 1] + s) *
                         (heights_[m + 1] - heights_[m]) / right +
                     (positions_[m + 1] - positions_[m] - s) *
                         (heights_[m] - heights_[m - 1]) / -left);
            if (heights_[m - 1] < qp && qp < heights_[m + 1]) {
                heights_[m] = qp;
            } else {
                const int j = m + static_cast<int>(s);
                heights_[m] += s * (heights_[j] - heights_[m]) /
                               (positions_[j] - positions_[m]);
            }
            positions_[m] += s;
        }
    }
}

double
P2Quantile::value() const
{
    if (count_ == 0)
        return 0.0;
    if (count_ < 5) {
        // Exact order statistic, laer::percentile() convention.
        const double rank = q_ * static_cast<double>(count_ - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const std::size_t hi =
            std::min(lo + 1, static_cast<std::size_t>(count_ - 1));
        const double frac = rank - static_cast<double>(lo);
        return heights_[lo] * (1.0 - frac) + heights_[hi] * frac;
    }
    return heights_[2];
}

// ---- StreamingQuantiles ---------------------------------------------------

StreamingQuantiles::StreamingQuantiles(std::vector<double> percentiles)
    : percentiles_(std::move(percentiles))
{
    LAER_CHECK(!percentiles_.empty(),
               "streaming quantiles need at least one percentile");
    std::sort(percentiles_.begin(), percentiles_.end());
    for (const double p : percentiles_) {
        LAER_CHECK(p > 0.0 && p < 100.0,
                   "tracked percentile " << p
                                         << " must lie in (0, 100)");
        estimators_.emplace_back(p / 100.0);
    }
}

void
StreamingQuantiles::add(double x)
{
    for (P2Quantile &e : estimators_)
        e.add(x);
    acc_.add(x);
}

double
StreamingQuantiles::quantile(double p) const
{
    if (acc_.count() == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 100.0);
    // Breakpoints: (0, min), tracked estimates, (100, max); a running
    // max keeps the piecewise curve monotone even if independent
    // estimators momentarily cross.
    double prev_p = 0.0;
    double prev_v = acc_.min();
    for (std::size_t i = 0; i <= percentiles_.size(); ++i) {
        const double cur_p =
            i < percentiles_.size() ? percentiles_[i] : 100.0;
        double cur_v = i < percentiles_.size()
                           ? estimators_[i].value()
                           : acc_.max();
        cur_v = std::max(cur_v, prev_v);
        if (p <= cur_p) {
            if (cur_p == prev_p)
                return cur_v;
            const double frac = (p - prev_p) / (cur_p - prev_p);
            return prev_v * (1.0 - frac) + cur_v * frac;
        }
        prev_p = cur_p;
        prev_v = cur_v;
    }
    return prev_v;
}

// ---- MetricsRegistry ------------------------------------------------------

Counter &
MetricsRegistry::counter(const std::string &name)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        const auto &[kind, slot] = order_[it->second].second;
        LAER_CHECK(kind == Kind::Counter,
                   "metric '" << name << "' is not a counter");
        return counters_[slot];
    }
    counters_.emplace_back();
    index_.emplace(name, order_.size());
    order_.emplace_back(name,
                        std::make_pair(Kind::Counter,
                                       counters_.size() - 1));
    return counters_.back();
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        const auto &[kind, slot] = order_[it->second].second;
        LAER_CHECK(kind == Kind::Gauge,
                   "metric '" << name << "' is not a gauge");
        return gauges_[slot];
    }
    gauges_.emplace_back();
    index_.emplace(name, order_.size());
    order_.emplace_back(
        name, std::make_pair(Kind::Gauge, gauges_.size() - 1));
    return gauges_.back();
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        const auto &[kind, slot] = order_[it->second].second;
        LAER_CHECK(kind == Kind::Histogram,
                   "metric '" << name << "' is not a histogram");
        return histograms_[slot];
    }
    histograms_.emplace_back();
    index_.emplace(name, order_.size());
    order_.emplace_back(
        name, std::make_pair(Kind::Histogram, histograms_.size() - 1));
    return histograms_.back();
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return index_.count(name) > 0;
}

CounterSnapshot
MetricsRegistry::snapshot(Seconds sim_time) const
{
    CounterSnapshot snap;
    snap.simTime = sim_time;
    for (const auto &[name, entry] : order_) {
        const auto &[kind, slot] = entry;
        switch (kind) {
          case Kind::Counter:
            snap.values.emplace_back(
                name, static_cast<double>(counters_[slot].value()));
            break;
          case Kind::Gauge:
            snap.values.emplace_back(name, gauges_[slot].value());
            break;
          case Kind::Histogram: {
            const Histogram &h = histograms_[slot];
            snap.values.emplace_back(
                name + ".count", static_cast<double>(h.count()));
            snap.values.emplace_back(name + ".mean", h.mean());
            snap.values.emplace_back(name + ".p50", h.quantile(50.0));
            snap.values.emplace_back(name + ".p95", h.quantile(95.0));
            snap.values.emplace_back(name + ".p99", h.quantile(99.0));
            snap.values.emplace_back(name + ".max", h.max());
            break;
          }
        }
    }
    return snap;
}

void
MetricsRegistry::recordSnapshot(Seconds sim_time)
{
    snapshots_.push_back(snapshot(sim_time));
}

void
MetricsRegistry::writeJsonl(std::ostream &os,
                            const std::string &label) const
{
    for (const CounterSnapshot &snap : snapshots_) {
        os << "{\"t\":" << jsonNumber(snap.simTime);
        if (!label.empty())
            os << ",\"run\":\"" << jsonEscape(label) << "\"";
        for (const auto &[name, value] : snap.values)
            os << ",\"" << jsonEscape(name)
               << "\":" << jsonNumber(value);
        os << "}\n";
    }
}

void
MetricsRegistry::appendJsonlFile(const std::string &path,
                                 const std::string &label) const
{
    std::ofstream os(path, std::ios::app);
    LAER_CHECK(os.good(), "cannot write metrics file " << path);
    writeJsonl(os, label);
    os.flush();
    LAER_CHECK(os.good(),
               "write to metrics file " << path << " failed");
}

} // namespace laer
