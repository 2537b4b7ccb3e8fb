#include "core/rng.hh"

#include <cmath>

#include "core/error.hh"
#include "core/types.hh"

namespace laer
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// Multinomial totals up to this many trials per bucket are drawn exactly.
constexpr std::int64_t kExactTrialsPerBucket = 4;

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &lane : s_)
        lane = splitMix64(sm);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return (nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int
Rng::uniformInt(int lo, int hi)
{
    LAER_ASSERT(lo <= hi, "empty integer range");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(nextU64() % span);
}

double
Rng::gaussian()
{
    // Box-Muller; discards the second variate for simplicity.
    double u1 = uniform();
    while (u1 <= 1e-300)
        u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * kPi * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::gamma(double shape)
{
    LAER_ASSERT(shape > 0.0, "gamma shape must be positive");
    if (shape < 1.0) {
        // Boost to shape + 1 and scale back (Marsaglia-Tsang trick).
        const double u = uniform();
        return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    // Marsaglia-Tsang squeeze method.
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x = gaussian();
        double v = 1.0 + c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
            return d * v;
    }
}

std::vector<double>
Rng::dirichlet(int n, double alpha)
{
    return dirichlet(std::vector<double>(n, alpha));
}

std::vector<double>
Rng::dirichlet(const std::vector<double> &alphas)
{
    std::vector<double> out;
    dirichlet(alphas, out);
    return out;
}

void
Rng::dirichlet(const std::vector<double> &alphas, std::vector<double> &out)
{
    out.resize(alphas.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < alphas.size(); ++i) {
        out[i] = gamma(alphas[i]);
        sum += out[i];
    }
    LAER_ASSERT(sum > 0.0, "degenerate Dirichlet draw");
    for (auto &v : out)
        v /= sum;
}

int
Rng::zipf(int n, double s)
{
    LAER_ASSERT(n > 0, "zipf needs a positive support size");
    double norm = 0.0;
    for (int k = 0; k < n; ++k)
        norm += 1.0 / std::pow(k + 1.0, s);
    double u = uniform() * norm;
    for (int k = 0; k < n; ++k) {
        u -= 1.0 / std::pow(k + 1.0, s);
        if (u <= 0.0)
            return k;
    }
    return n - 1;
}

std::vector<std::int64_t>
Rng::multinomial(std::int64_t total, const std::vector<double> &probs)
{
    std::vector<std::int64_t> counts;
    multinomial(total, probs, counts);
    return counts;
}

void
Rng::multinomial(std::int64_t total, const std::vector<double> &probs,
                 std::vector<std::int64_t> &counts)
{
    const int n = static_cast<int>(probs.size());
    LAER_ASSERT(n > 0, "multinomial needs at least one bucket");
    double psum = 0.0;
    for (double p : probs) {
        LAER_ASSERT(p >= 0.0, "multinomial probabilities must be >= 0");
        psum += p;
    }
    LAER_ASSERT(psum > 0.0, "multinomial probabilities sum to zero");

    counts.assign(static_cast<std::size_t>(n), 0);
    if (total <= 0)
        return;

    // Small totals: one inverse-CDF draw per trial, exact. A zero
    // bucket is never chosen; rounding past the end lands on the last
    // positive bucket.
    if (total <= kExactTrialsPerBucket * static_cast<std::int64_t>(n)) {
        int last = n - 1;
        while (probs[last] <= 0.0)
            --last;
        for (std::int64_t t = 0; t < total; ++t) {
            double u = uniform() * psum;
            int i = 0;
            while (i < last && (u -= probs[i]) >= 0.0)
                ++i;
            ++counts[i];
        }
        return;
    }

    // Large totals: a normal approximation per bucket, then an
    // exact-count repair. Fast, but not exact: the repair fills buckets
    // in index order (a bias that dominates at small totals, hence the
    // branch above) and the variance falls short by a factor (1 - p).
    // Every training output depends on this stream as it is.
    std::int64_t assigned = 0;
    for (int i = 0; i < n; ++i) {
        const double p = probs[i] / psum;
        const double mean = static_cast<double>(total) * p;
        const double var = mean * (1.0 - p);
        double draw = mean;
        if (var > 0.0)
            draw = gaussian(mean, std::sqrt(var));
        std::int64_t c = static_cast<std::int64_t>(std::llround(draw));
        if (c < 0)
            c = 0;
        if (c > total)
            c = total;
        counts[i] = c;
        assigned += c;
    }
    // Repair rounding drift so the counts sum exactly to `total`,
    // one count per bucket in index order.
    std::int64_t drift = total - assigned;
    while (drift != 0) {
        for (int i = 0; i < n && drift != 0; ++i) {
            if (drift > 0) {
                ++counts[i];
                --drift;
            } else if (counts[i] > 0) {
                --counts[i];
                ++drift;
            }
        }
    }
}

std::vector<int>
Rng::permutation(int n)
{
    std::vector<int> idx(n);
    for (int i = 0; i < n; ++i)
        idx[i] = i;
    for (int i = n - 1; i > 0; --i) {
        const int j = uniformInt(0, i);
        std::swap(idx[i], idx[j]);
    }
    return idx;
}

} // namespace laer
