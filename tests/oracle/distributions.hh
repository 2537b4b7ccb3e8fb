/**
 * @file
 * Analytic laws for the sampler conformance tests (test oracle: part
 * of the laer_oracle library, which only tests link).
 *
 * Each sampler in core/rng.hh and the routing generator's urn is
 * checked at fixed seeds against the law it claims to draw from, by a
 * Pearson chi-square test over bins of known probability. Goldens pin
 * what a sampler does; these pin whether it is right.
 */

#ifndef LAER_ORACLE_DISTRIBUTIONS_HH
#define LAER_ORACLE_DISTRIBUTIONS_HH

#include <cstdint>
#include <vector>

namespace laer
{

/** Standard normal CDF. */
double normalCdf(double x);

/** Gamma(shape, 1) CDF: the regularized lower incomplete gamma. */
double gammaCdf(double shape, double x);

/** Beta(a, b) CDF: the regularized incomplete beta I_x(a, b). */
double betaCdf(double a, double b, double x);

/**
 * Beta-binomial pmf: the chance that k of n Pólya-urn draws land in a
 * category of weight a against the rest's weight b.
 */
double betaBinomialPmf(int n, int k, double a, double b);

/**
 * Pearson chi-square statistic of observed counts against expected
 * counts. Adjacent bins are merged, left to right, until each holds
 * an expected count of at least 5; `dof` receives the merged bin
 * count minus one.
 */
double chiSquare(const std::vector<double> &observed,
                 const std::vector<double> &expected, int *dof);

/**
 * Upper critical value of the chi-square law with `dof` degrees of
 * freedom at standard-normal quantile z (Wilson-Hilferty); z = 4.75
 * is a tail of about 1e-6.
 */
double chiSquareCritical(int dof, double z = 4.75);

/**
 * Chi-square of `samples` against a continuous CDF over `bins`
 * equiprobable bins; `dof` receives bins - 1.
 */
template <typename Cdf>
double
chiSquareContinuous(const std::vector<double> &samples, Cdf cdf, int bins,
                    int *dof)
{
    std::vector<double> observed(static_cast<std::size_t>(bins), 0.0);
    for (double x : samples) {
        int b = static_cast<int>(cdf(x) * bins);
        b = b < 0 ? 0 : (b >= bins ? bins - 1 : b);
        observed[static_cast<std::size_t>(b)] += 1.0;
    }
    const std::vector<double> expected(
        static_cast<std::size_t>(bins),
        static_cast<double>(samples.size()) / bins);
    return chiSquare(observed, expected, dof);
}

} // namespace laer

#endif // LAER_ORACLE_DISTRIBUTIONS_HH
