/**
 * @file
 * Tests for the synthetic routing generator and trace container —
 * verifying it reproduces the statistical properties of Fig. 1(a).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/stats.hh"
#include "oracle/distributions.hh"
#include "trace/routing_generator.hh"
#include "trace/trace.hh"

namespace laer
{
namespace
{

RoutingModel
baseModel()
{
    RoutingModel m;
    m.numDevices = 8;
    m.numExperts = 8;
    m.topK = 2;
    m.tokensPerDevice = 4096;
    m.seed = 5;
    return m;
}

TEST(RoutingGenerator, ConservesTokenBudget)
{
    RoutingGenerator gen(baseModel());
    for (int it = 0; it < 5; ++it) {
        const RoutingMatrix r = gen.next();
        for (DeviceId d = 0; d < 8; ++d) {
            TokenCount row = 0;
            for (ExpertId j = 0; j < 8; ++j) {
                EXPECT_GE(r.at(d, j), 0);
                row += r.at(d, j);
            }
            EXPECT_EQ(row, 4096 * 2) << "device " << d;
        }
    }
}

TEST(RoutingGenerator, DeterministicForSeed)
{
    RoutingGenerator a(baseModel()), b(baseModel());
    const RoutingMatrix ra = a.next(), rb = b.next();
    for (DeviceId d = 0; d < 8; ++d)
        for (ExpertId j = 0; j < 8; ++j)
            EXPECT_EQ(ra.at(d, j), rb.at(d, j));
}

TEST(RoutingGenerator, SkewKnobControlsImbalance)
{
    RoutingModel flat = baseModel();
    flat.skew = 0.05;
    RoutingModel hot = baseModel();
    hot.skew = 2.0;
    RoutingGenerator gf(flat), gh(hot);
    double imb_flat = 0.0, imb_hot = 0.0;
    for (int it = 0; it < 30; ++it) {
        imb_flat += summarizeRouting(gf.next()).imbalance;
        imb_hot += summarizeRouting(gh.next()).imbalance;
    }
    EXPECT_GT(imb_hot / 30, imb_flat / 30 + 0.5);
}

TEST(RoutingGenerator, HotExpertsDriftOverTime)
{
    // Fig. 1(a): the identity of the overloaded expert changes across
    // training; with drift < 1 the argmax must eventually move.
    RoutingModel m = baseModel();
    m.drift = 0.7;
    m.skew = 1.5;
    RoutingGenerator gen(m);
    int first_hot = -1;
    bool moved = false;
    for (int it = 0; it < 200 && !moved; ++it) {
        const auto loads = gen.next().expertLoads();
        int hot = 0;
        for (ExpertId j = 1; j < 8; ++j)
            if (loads[j] > loads[hot])
                hot = j;
        if (first_hot < 0)
            first_hot = hot;
        else if (hot != first_hot)
            moved = true;
    }
    EXPECT_TRUE(moved);
}

TEST(RoutingGenerator, AuxLossFeedbackBalancesRouting)
{
    // Sec. 2 / Fig. 2: a strong auxiliary loss forces balance.
    RoutingModel strong = baseModel();
    strong.auxLossWeight = 1e-2;
    strong.skew = 1.5;
    RoutingModel none = baseModel();
    none.skew = 1.5;
    RoutingGenerator gs(strong), gn(none);
    double late_aux = 0.0, late_plain = 0.0;
    for (int it = 0; it < 120; ++it) {
        const double a = summarizeRouting(gs.next()).imbalance;
        const double p = summarizeRouting(gn.next()).imbalance;
        if (it >= 100) {
            late_aux += a;
            late_plain += p;
        }
    }
    EXPECT_LT(late_aux / 20, 1.2);          // near-balanced
    EXPECT_GT(late_plain / 20, late_aux / 20); // unaided stays skewed
}

TEST(RoutingGenerator, PopularitySumsToOne)
{
    RoutingGenerator gen(baseModel());
    gen.next();
    const auto p = gen.popularity();
    double sum = 0.0;
    for (double v : p)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(RoutingGenerator, PresetsDiffer)
{
    const auto wiki = RoutingModel::wikitext(8, 8, 2, 1024);
    const auto c4 = RoutingModel::c4(8, 8, 2, 1024);
    EXPECT_GT(wiki.skew, c4.skew);
    EXPECT_GT(wiki.drift, c4.drift);
}

TEST(RoutingGenerator, EmptyDevicesDrawNothing)
{
    // An empty device consumes no draws, so where the empty devices
    // sit does not change what the others draw: the non-empty rows
    // come out identical, in order. Covers both the Dirichlet +
    // multinomial rows (128 tokens) and the urn rows (3 and 9).
    RoutingModel model = baseModel();
    model.numDevices = 4;
    const std::vector<std::pair<std::vector<TokenCount>,
                                std::vector<TokenCount>>>
        cases = {{{64, 0, 0, 128}, {64, 128, 0, 0}},
                 {{3, 0, 0, 9}, {3, 9, 0, 0}},
                 {{0, 0, 64, 3}, {64, 3, 0, 0}}};
    for (const auto &[left, right] : cases) {
        RoutingGenerator a(model);
        RoutingGenerator b(model);
        for (int it = 0; it < 10; ++it) {
            const RoutingMatrix ra = a.nextForTokens(left);
            const RoutingMatrix rb = b.nextForTokens(right);
            std::vector<TokenCount> rows_a, rows_b;
            for (DeviceId d = 0; d < 4; ++d)
                for (ExpertId j = 0; j < 8; ++j) {
                    if (left[d] > 0)
                        rows_a.push_back(ra.at(d, j));
                    if (right[d] > 0)
                        rows_b.push_back(rb.at(d, j));
                    if (left[d] == 0) {
                        ASSERT_EQ(ra.at(d, j), 0);
                    }
                    if (right[d] == 0) {
                        ASSERT_EQ(rb.at(d, j), 0);
                    }
                }
            ASSERT_EQ(rows_a, rows_b) << "iteration " << it;
        }
    }
}

TEST(RoutingGenerator, TrainingDrawIsPinned)
{
    // Every training total lies above the urn bound, where the draw is
    // the historical Dirichlet + multinomial: this checksum (FNV-1a
    // over 20 iterations of next()) must never move, or every training
    // golden moves with it.
    RoutingGenerator gen(baseModel());
    std::uint64_t hash = 1469598103934665603ULL;
    for (int it = 0; it < 20; ++it) {
        const RoutingMatrix r = gen.next();
        for (DeviceId d = 0; d < 8; ++d)
            for (ExpertId j = 0; j < 8; ++j) {
                hash ^= static_cast<std::uint64_t>(r.at(d, j));
                hash *= 1099511628211ULL;
            }
    }
    EXPECT_EQ(hash, 0xdbefaf5096e86d0dULL);
}

TEST(RoutingGenerator, EveryRowSumsToRoutedTokens)
{
    // Empty, urn-sized (routed <= 4 * 8) and multinomial-sized rows.
    RoutingGenerator gen(baseModel());
    const std::vector<TokenCount> tokens = {0, 1, 2, 16, 17, 4096, 0, 300};
    for (int it = 0; it < 20; ++it) {
        const RoutingMatrix r = gen.nextForTokens(tokens);
        for (DeviceId d = 0; d < 8; ++d) {
            TokenCount row = 0;
            for (ExpertId j = 0; j < 8; ++j) {
                ASSERT_GE(r.at(d, j), 0);
                row += r.at(d, j);
            }
            ASSERT_EQ(row, tokens[d] * 2) << "iteration " << it
                                          << " device " << d;
        }
    }
}

TEST(RoutingGenerator, UrnRowsFollowBetaBinomialMarginals)
{
    // Under the Dirichlet-multinomial, expert j's count in a row of n
    // routed tokens is Beta-binomial(n, alpha_j, A - alpha_j). The
    // concentrations drift every call, so each call adds its own
    // probabilities to the expected histogram of every expert.
    RoutingModel model = baseModel();
    model.numDevices = 64;
    model.topK = 1;
    model.skew = 1.0;
    model.deviceJitter = 0.5;
    const int e = model.numExperts;
    const double conc = 1.0 / model.deviceJitter;
    for (int n : {1, 2, e}) {
        RoutingGenerator gen(model);
        std::vector<std::vector<double>> observed(
            e, std::vector<double>(n + 1, 0.0));
        std::vector<std::vector<double>> expected = observed;
        for (int call = 0; call < 1500; ++call) {
            const RoutingMatrix r = gen.nextForTokens(
                std::vector<TokenCount>(model.numDevices, n));
            const std::vector<double> global = gen.popularity();
            std::vector<double> alphas(e);
            double alpha_sum = 0.0;
            for (int j = 0; j < e; ++j) {
                alphas[j] = std::max(1e-3, global[j] * conc * e);
                alpha_sum += alphas[j];
            }
            for (int j = 0; j < e; ++j) {
                for (int k = 0; k <= n; ++k)
                    expected[j][k] +=
                        model.numDevices *
                        betaBinomialPmf(n, k, alphas[j],
                                        alpha_sum - alphas[j]);
                for (DeviceId d = 0; d < model.numDevices; ++d)
                    observed[j][r.at(d, j)] += 1.0;
            }
        }
        for (int j = 0; j < e; ++j) {
            int dof = 0;
            const double chi2 = chiSquare(observed[j], expected[j], &dof);
            EXPECT_LT(chi2, chiSquareCritical(dof))
                << "n=" << n << " expert " << j;
        }
    }
}

TEST(RoutingTrace, StoreAndRetrieve)
{
    RoutingTrace trace(3, 2);
    EXPECT_EQ(trace.iterations(), 3);
    EXPECT_EQ(trace.layers(), 2);
    RoutingMatrix r(4, 4);
    r.at(1, 2) = 99;
    trace.set(2, 1, r);
    EXPECT_EQ(trace.at(2, 1).at(1, 2), 99);
}

TEST(RoutingTrace, RescalePreservesExpertDistribution)
{
    RoutingGenerator gen(baseModel());
    RoutingTrace trace(2, 1);
    trace.set(0, 0, gen.next());
    trace.set(1, 0, gen.next());

    const RoutingTrace big = trace.rescaleDevices(32);
    EXPECT_EQ(big.at(0, 0).numDevices(), 32);
    // Per-device budget is preserved...
    const TokenCount per_dev = trace.at(0, 0).totalTokens() / 8;
    for (DeviceId d = 0; d < 32; ++d) {
        TokenCount row = 0;
        for (ExpertId j = 0; j < 8; ++j)
            row += big.at(0, 0).at(d, j);
        EXPECT_EQ(row, per_dev);
    }
    // ...and the expert shares stay within 2%.
    const auto src = trace.at(0, 0).expertLoads();
    const auto dst = big.at(0, 0).expertLoads();
    const double src_total =
        static_cast<double>(trace.at(0, 0).totalTokens());
    const double dst_total =
        static_cast<double>(big.at(0, 0).totalTokens());
    for (ExpertId j = 0; j < 8; ++j)
        EXPECT_NEAR(dst[j] / dst_total, src[j] / src_total, 0.02);
}

TEST(SummarizeRouting, ComputesShares)
{
    RoutingMatrix r(2, 2);
    r.at(0, 0) = 30;
    r.at(1, 0) = 30;
    r.at(0, 1) = 20;
    r.at(1, 1) = 20;
    const LoadSnapshot snap = summarizeRouting(r);
    EXPECT_EQ(snap.totalTokens, 100);
    EXPECT_DOUBLE_EQ(snap.maxExpertShare, 0.6);
    EXPECT_DOUBLE_EQ(snap.imbalance, 1.2);
}

} // namespace
} // namespace laer
