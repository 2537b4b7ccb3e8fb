/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component (routing generator, layout perturbations,
 * synthetic datasets) draws from an Rng seeded explicitly so that each
 * experiment is bit-reproducible. The generator is xoshiro256**, which
 * is fast, small, and has no measurable bias for our use cases.
 */

#ifndef LAER_CORE_RNG_HH
#define LAER_CORE_RNG_HH

#include <cstdint>
#include <vector>

namespace laer
{

/**
 * Seedable random source with the distributions the project needs.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    int uniformInt(int lo, int hi);

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Sample from Gamma(shape, 1) — used to build Dirichlet draws. */
    double gamma(double shape);

    /**
     * Dirichlet draw: probability vector of size n with concentration
     * alpha (symmetric). Small alpha -> highly skewed vectors.
     */
    std::vector<double> dirichlet(int n, double alpha);

    /** Dirichlet draw with per-component concentrations. */
    std::vector<double> dirichlet(const std::vector<double> &alphas);

    /** Dirichlet draw into `out`, which is resized to alphas.size(). */
    void dirichlet(const std::vector<double> &alphas,
                   std::vector<double> &out);

    /**
     * Zipf-distributed integer in [0, n): P(k) proportional to
     * 1 / (k + 1)^s. Uses inverse-CDF over a precomputable table-free
     * loop; n is expected to stay small (vocabulary buckets, experts).
     */
    int zipf(int n, double s);

    /**
     * Multinomial draw: distribute `total` trials over `probs`
     * (which need not be normalised). Returns per-bucket counts.
     * Exact (one inverse-CDF draw per trial) while total <= 4 *
     * buckets; above that a normal approximation with exact-count
     * repair.
     */
    std::vector<std::int64_t>
    multinomial(std::int64_t total, const std::vector<double> &probs);

    /** Multinomial draw into `counts`, resized to probs.size(). */
    void multinomial(std::int64_t total, const std::vector<double> &probs,
                     std::vector<std::int64_t> &counts);

    /** Fisher-Yates shuffle of an index vector [0, n). */
    std::vector<int> permutation(int n);

  private:
    std::uint64_t s_[4];
};

} // namespace laer

#endif // LAER_CORE_RNG_HH
