#include "oracle/distributions.hh"

#include <cmath>

#include "core/error.hh"

namespace laer
{

namespace
{

constexpr double kEps = 1e-15;
constexpr double kTiny = 1e-300;
constexpr int kMaxTerms = 10000;

// Lower incomplete gamma by its power series (converges for x < a + 1).
double
gammaSeries(double a, double x)
{
    double term = 1.0 / a;
    double sum = term;
    for (int n = 1; n < kMaxTerms && std::fabs(term) > kEps * sum; ++n) {
        term *= x / (a + n);
        sum += term;
    }
    return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Upper incomplete gamma by its continued fraction (modified Lentz).
double
gammaContinuedFraction(double a, double x)
{
    double b = x + 1.0 - a;
    double c = 1.0 / kTiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < kMaxTerms; ++i) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        d = std::fabs(d) < kTiny ? kTiny : d;
        c = b + an / c;
        c = std::fabs(c) < kTiny ? kTiny : c;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::fabs(delta - 1.0) < kEps)
            break;
    }
    return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

// Continued fraction of the incomplete beta (modified Lentz).
double
betaContinuedFraction(double a, double b, double x)
{
    double c = 1.0;
    double d = 1.0 - (a + b) * x / (a + 1.0);
    d = std::fabs(d) < kTiny ? kTiny : d;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m < kMaxTerms; ++m) {
        const int m2 = 2 * m;
        double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
        d = 1.0 + aa * d;
        d = std::fabs(d) < kTiny ? kTiny : d;
        c = 1.0 + aa / c;
        c = std::fabs(c) < kTiny ? kTiny : c;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
        d = 1.0 + aa * d;
        d = std::fabs(d) < kTiny ? kTiny : d;
        c = 1.0 + aa / c;
        c = std::fabs(c) < kTiny ? kTiny : c;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::fabs(delta - 1.0) < kEps)
            break;
    }
    return h;
}

double
logBeta(double a, double b)
{
    return std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
}

} // namespace

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
gammaCdf(double shape, double x)
{
    LAER_CHECK(shape > 0.0, "gamma shape must be positive");
    if (x <= 0.0)
        return 0.0;
    if (x < shape + 1.0)
        return gammaSeries(shape, x);
    return 1.0 - gammaContinuedFraction(shape, x);
}

double
betaCdf(double a, double b, double x)
{
    LAER_CHECK(a > 0.0 && b > 0.0, "beta parameters must be positive");
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    const double front = std::exp(a * std::log(x) + b * std::log1p(-x) -
                                  logBeta(a, b));
    // The continued fraction converges fast for x below the mean;
    // above it, use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a).
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double
betaBinomialPmf(int n, int k, double a, double b)
{
    LAER_CHECK(k >= 0 && k <= n, "beta-binomial outcome out of range");
    const double log_choose = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                              std::lgamma(n - k + 1.0);
    return std::exp(log_choose + logBeta(k + a, n - k + b) - logBeta(a, b));
}

double
chiSquare(const std::vector<double> &observed,
          const std::vector<double> &expected, int *dof)
{
    LAER_CHECK(observed.size() == expected.size() && !observed.empty(),
               "chi-square needs matching non-empty bins");
    std::vector<double> obs, exp;
    double o = 0.0, e = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        o += observed[i];
        e += expected[i];
        if (e >= 5.0) {
            obs.push_back(o);
            exp.push_back(e);
            o = e = 0.0;
        }
    }
    if (exp.empty()) {
        obs.push_back(o);
        exp.push_back(e);
    } else {
        obs.back() += o;
        exp.back() += e;
    }
    double chi2 = 0.0;
    for (std::size_t i = 0; i < exp.size(); ++i)
        chi2 += (obs[i] - exp[i]) * (obs[i] - exp[i]) / exp[i];
    *dof = static_cast<int>(exp.size()) - 1;
    return chi2;
}

double
chiSquareCritical(int dof, double z)
{
    LAER_CHECK(dof >= 1, "chi-square needs at least one degree of freedom");
    const double k = dof;
    const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
    return k * t * t * t;
}

} // namespace laer
