/**
 * @file
 * Unit tests for the core utilities: RNG distributions, descriptive
 * statistics, table rendering, CLI flag parsing and error handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/error.hh"
#include "core/rng.hh"
#include "core/stats.hh"
#include "core/table.hh"
#include "oracle/distributions.hh"

namespace laer
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.nextU64() == b.nextU64());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= (v == 3);
        saw_hi |= (v == 7);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    std::vector<double> xs(20000);
    for (auto &x : xs)
        x = rng.gaussian(2.0, 0.5);
    EXPECT_NEAR(mean(xs), 2.0, 0.02);
    EXPECT_NEAR(stddev(xs), 0.5, 0.02);
}

TEST(Rng, GammaMeanMatchesShape)
{
    Rng rng(13);
    for (double shape : {0.5, 1.0, 3.0, 9.0}) {
        std::vector<double> xs(20000);
        for (auto &x : xs)
            x = rng.gamma(shape);
        EXPECT_NEAR(mean(xs), shape, 0.08 * shape + 0.03)
            << "shape=" << shape;
    }
}

TEST(Rng, DirichletSumsToOne)
{
    Rng rng(17);
    for (double alpha : {0.1, 1.0, 10.0}) {
        const auto p = rng.dirichlet(8, alpha);
        double sum = 0.0;
        for (double v : p) {
            EXPECT_GE(v, 0.0);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(Rng, DirichletSmallAlphaIsSkewed)
{
    Rng rng(19);
    double max_small = 0.0, max_large = 0.0;
    for (int i = 0; i < 200; ++i) {
        max_small += maxOf(rng.dirichlet(8, 0.1));
        max_large += maxOf(rng.dirichlet(8, 50.0));
    }
    EXPECT_GT(max_small / 200, max_large / 200 + 0.2);
}

TEST(Rng, ZipfFavoursLowRanks)
{
    Rng rng(23);
    std::vector<int> hist(16, 0);
    for (int i = 0; i < 20000; ++i)
        ++hist[rng.zipf(16, 1.2)];
    EXPECT_GT(hist[0], hist[4]);
    EXPECT_GT(hist[1], hist[8]);
    for (int i = 0; i < 16; ++i)
        EXPECT_GT(hist[i], 0) << "rank " << i << " never sampled";
}

TEST(Rng, MultinomialConservesTotal)
{
    Rng rng(29);
    const std::vector<double> probs{0.5, 0.25, 0.125, 0.125};
    for (std::int64_t total : {0LL, 1LL, 100LL, 123457LL}) {
        const auto counts = rng.multinomial(total, probs);
        std::int64_t sum = 0;
        for (auto c : counts) {
            EXPECT_GE(c, 0);
            sum += c;
        }
        EXPECT_EQ(sum, total);
    }
}

TEST(Rng, MultinomialMatchesProportions)
{
    Rng rng(31);
    const std::vector<double> probs{8.0, 4.0, 2.0, 2.0};
    const auto counts = rng.multinomial(1600000, probs);
    EXPECT_NEAR(static_cast<double>(counts[0]), 800000, 8000);
    EXPECT_NEAR(static_cast<double>(counts[1]), 400000, 8000);
}

// Sampler conformance: each sampler at a fixed seed against its
// analytic law, by chi-square at a ~1e-6 tail (oracle/distributions).

TEST(RngConformance, MultinomialIsExactAtSmallTotals)
{
    // Over 8 equal buckets the normal approximation's index-order
    // repair put 0.38 of single-trial draws in bucket 0; every total
    // must now pool to the uniform law (64 exercises the large-total
    // branch, which is unbiased there).
    Rng rng(41);
    const std::vector<double> equal(8, 1.0);
    for (std::int64_t total : {1LL, 2LL, 8LL, 64LL}) {
        std::vector<double> observed(8, 0.0);
        const int draws = 20000;
        for (int i = 0; i < draws; ++i) {
            const auto counts = rng.multinomial(total, equal);
            for (int b = 0; b < 8; ++b)
                observed[b] += static_cast<double>(counts[b]);
        }
        const std::vector<double> expected(
            8, static_cast<double>(draws * total) / 8.0);
        int dof = 0;
        const double chi2 = chiSquare(observed, expected, &dof);
        EXPECT_LT(chi2, chiSquareCritical(dof)) << "total=" << total;
    }

    // Unequal, unnormalised weights with a zero bucket inside.
    const std::vector<double> probs{4.0, 1.0, 0.0, 2.0, 3.0};
    for (std::int64_t total : {1LL, 2LL, 20LL}) {
        std::vector<double> observed(5, 0.0);
        const int draws = 20000;
        for (int i = 0; i < draws; ++i) {
            const auto counts = rng.multinomial(total, probs);
            for (int b = 0; b < 5; ++b)
                observed[b] += static_cast<double>(counts[b]);
        }
        EXPECT_EQ(observed[2], 0.0) << "zero bucket drawn";
        std::vector<double> obs, expected;
        for (int b = 0; b < 5; ++b) {
            if (probs[b] == 0.0)
                continue;
            obs.push_back(observed[b]);
            expected.push_back(draws * total * probs[b] / 10.0);
        }
        int dof = 0;
        const double chi2 = chiSquare(obs, expected, &dof);
        EXPECT_LT(chi2, chiSquareCritical(dof)) << "total=" << total;
    }
}

TEST(RngConformance, GaussianIsStandardNormal)
{
    Rng rng(43);
    std::vector<double> xs(100000);
    for (auto &x : xs)
        x = rng.gaussian();
    int dof = 0;
    const double chi2 = chiSquareContinuous(xs, normalCdf, 40, &dof);
    EXPECT_LT(chi2, chiSquareCritical(dof));
}

TEST(RngConformance, GammaFollowsItsLaw)
{
    Rng rng(47);
    for (double shape : {0.05, 0.3, 0.7, 1.0, 2.5, 9.0}) {
        std::vector<double> xs(50000);
        for (auto &x : xs)
            x = rng.gamma(shape);
        int dof = 0;
        const double chi2 = chiSquareContinuous(
            xs, [shape](double x) { return gammaCdf(shape, x); }, 40,
            &dof);
        EXPECT_LT(chi2, chiSquareCritical(dof)) << "shape=" << shape;
    }
}

TEST(RngConformance, DirichletMarginalsAreBeta)
{
    // Component i of Dirichlet(alphas) is Beta(alpha_i, A - alpha_i).
    Rng rng(53);
    const std::vector<double> alphas{0.05, 0.3, 1.0, 2.5, 6.0};
    double total = 0.0;
    for (double a : alphas)
        total += a;
    const int draws = 30000;
    std::vector<std::vector<double>> marginals(
        alphas.size(), std::vector<double>(draws));
    for (int i = 0; i < draws; ++i) {
        const std::vector<double> p = rng.dirichlet(alphas);
        for (std::size_t c = 0; c < alphas.size(); ++c)
            marginals[c][i] = p[c];
    }
    for (std::size_t c = 0; c < alphas.size(); ++c) {
        const double a = alphas[c];
        const double b = total - a;
        int dof = 0;
        const double chi2 = chiSquareContinuous(
            marginals[c], [a, b](double x) { return betaCdf(a, b, x); },
            40, &dof);
        EXPECT_LT(chi2, chiSquareCritical(dof)) << "alpha=" << a;
    }
}

TEST(RngConformance, OracleLawsAreSound)
{
    // The laws themselves, at points with closed forms.
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-15);
    EXPECT_NEAR(normalCdf(1.959963984540054), 0.975, 1e-12);
    EXPECT_NEAR(gammaCdf(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-12);
    EXPECT_NEAR(gammaCdf(1.0, 0.5), 1.0 - std::exp(-0.5), 1e-12);
    EXPECT_NEAR(gammaCdf(0.5, 0.7), std::erf(std::sqrt(0.7)), 1e-12);
    EXPECT_NEAR(gammaCdf(0.5, 4.0), std::erf(2.0), 1e-12);
    EXPECT_NEAR(betaCdf(1.0, 3.0, 0.2), 1.0 - std::pow(0.8, 3.0), 1e-12);
    EXPECT_NEAR(betaCdf(2.0, 1.0, 0.9), 0.81, 1e-12);
    EXPECT_NEAR(betaCdf(0.5, 0.5, 0.25), 1.0 / 3.0, 1e-12);
    double sum = 0.0;
    for (int k = 0; k <= 7; ++k)
        sum += betaBinomialPmf(7, k, 0.4, 2.2);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Beta-binomial(1, a, b) is Bernoulli(a / (a + b)).
    EXPECT_NEAR(betaBinomialPmf(1, 1, 0.4, 2.2), 0.4 / 2.6, 1e-12);
    // The critical value sits at about a 1e-6 upper tail.
    for (int dof : {1, 7, 39}) {
        const double tail =
            1.0 - gammaCdf(dof / 2.0, chiSquareCritical(dof) / 2.0);
        EXPECT_GT(tail, 1e-7) << "dof=" << dof;
        EXPECT_LT(tail, 1e-5) << "dof=" << dof;
    }
}

TEST(Rng, PermutationIsBijective)
{
    Rng rng(37);
    const auto perm = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (int v : perm) {
        ASSERT_GE(v, 0);
        ASSERT_LT(v, 50);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Stats, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
    EXPECT_NEAR(stddev({1.0, 3.0}), 1.0, 1e-12);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, PercentileLeavesInputUntouched)
{
    // percentile() takes a const ref and uses internal scratch: the
    // caller's vector must come back in its original (unsorted) order.
    const std::vector<double> xs{5, 1, 4, 2, 3};
    const std::vector<double> before = xs;
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 90), 4.6);
    EXPECT_EQ(xs, before);
}

TEST(Stats, PercentileInterpolatesLikeSortedRank)
{
    // Cross-check nth_element selection against a full sort on a
    // larger sample: both must produce the same interpolated values.
    Rng rng(17);
    std::vector<double> xs;
    for (int i = 0; i < 257; ++i)
        xs.push_back(rng.uniform() * 100.0);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 10.0, 50.0, 95.0, 99.0, 100.0}) {
        const double rank =
            p / 100.0 * static_cast<double>(sorted.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = rank - static_cast<double>(lo);
        const double expected =
            sorted[lo] + frac * (sorted[hi] - sorted[lo]);
        EXPECT_DOUBLE_EQ(percentile(xs, p), expected) << "p=" << p;
    }
}

TEST(Stats, ImbalanceFactor)
{
    EXPECT_DOUBLE_EQ(imbalanceFactor({4, 4, 4, 4}), 1.0);
    EXPECT_DOUBLE_EQ(imbalanceFactor({8, 0, 0, 0}), 4.0);
    EXPECT_DOUBLE_EQ(imbalanceFactor({}), 1.0);
}

TEST(Stats, AccumulatorTracksSummary)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0);
    acc.add(3.0);
    acc.add(1.0);
    acc.add(2.0);
    EXPECT_EQ(acc.count(), 3);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 6.0);
}

TEST(Stats, AccumulatorVariance)
{
    Accumulator acc;
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0); // empty
    acc.add(5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0); // single sample
    Accumulator pop;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        pop.add(x);
    // Classic population-variance example: mean 5, variance 4.
    EXPECT_NEAR(pop.variance(), 4.0, 1e-12);
    EXPECT_NEAR(pop.stddev(), 2.0, 1e-12);

    // Welford must agree with the two-pass formula on random data.
    Rng rng(23);
    Accumulator w;
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i) {
        xs.push_back(rng.gaussian(10.0, 3.0));
        w.add(xs.back());
    }
    double sq = 0.0;
    for (const double x : xs)
        sq += (x - mean(xs)) * (x - mean(xs));
    EXPECT_NEAR(w.variance(), sq / static_cast<double>(xs.size()),
                1e-9);
}

TEST(Table, RendersAlignedAndCsv)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.startRow();
    t.cell("alpha");
    t.cell(1.5, 2);
    t.startRow();
    t.cell("b");
    t.cell(std::int64_t{42});
    EXPECT_EQ(t.rowCount(), 2u);

    std::ostringstream text;
    t.print(text);
    EXPECT_NE(text.str().find("demo"), std::string::npos);
    EXPECT_NE(text.str().find("1.50"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\nalpha,1.50\nb,42\n");
}

TEST(Error, FatalThrowsCheckMacro)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    EXPECT_THROW(LAER_CHECK(1 == 2, "must fail"), FatalError);
    EXPECT_NO_THROW(LAER_CHECK(1 == 1, "fine"));
}

TEST(Cli, GetUintParsesAndRejectsGarbage)
{
    const char *argv[] = {"bin", "--seed=42", "--bad=-1",
                          "--junk=12x", "--huge=99999999999999999999"};
    const CliArgs args(5, argv, {"seed", "bad", "junk", "huge"});
    EXPECT_EQ(args.getUint("seed", 7), 42u);
    EXPECT_EQ(args.getUint("absent", 7), 7u); // fallback
    // stoull would wrap "-1" to 2^64 - 1; the parser must refuse.
    EXPECT_THROW(args.getUint("bad", 0), FatalError);
    EXPECT_THROW(args.getUint("junk", 0), FatalError);
    EXPECT_THROW(args.getUint("huge", 0), FatalError);
}

TEST(Cli, GetChoicesRejectsUnknownNamesListingTheAllowedOnes)
{
    const char *argv[] = {"bin", "--policy=LAER,StaticEP",
                          "--bad=LAER,Lear"};
    const CliArgs args(3, argv, {"policy", "bad"});
    const std::vector<std::string> allowed = {"StaticEP", "FlexMoE",
                                              "LAER"};
    EXPECT_EQ(args.getChoices("policy", allowed),
              (std::vector<std::string>{"LAER", "StaticEP"}));
    EXPECT_TRUE(args.getChoices("absent", allowed).empty());
    try {
        args.getChoices("bad", allowed);
        FAIL() << "an unknown name must throw";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("'Lear'"), std::string::npos) << what;
        EXPECT_NE(what.find("StaticEP, FlexMoE, LAER"),
                  std::string::npos)
            << what;
    }
}

} // namespace
} // namespace laer
