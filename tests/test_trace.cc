/**
 * @file
 * Tests for the synthetic routing generator and trace container —
 * verifying it reproduces the statistical properties of Fig. 1(a).
 */

#include <gtest/gtest.h>

#include "core/stats.hh"
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

TEST(RoutingGenerator, SparseDrawMatchesDenseWhenNoDeviceIsEmpty)
{
    // With every device carrying tokens the sparse path draws exactly
    // what the dense path draws — bit-identical matrices, iteration
    // after iteration (the RNG streams stay in lockstep).
    RoutingModel dense = baseModel();
    RoutingModel sparse = baseModel();
    sparse.sparseDraw = true;
    RoutingGenerator a(dense);
    RoutingGenerator b(sparse);
    std::vector<TokenCount> tokens = {64, 1, 128, 7, 4096, 32, 9, 300};
    for (int it = 0; it < 20; ++it) {
        const RoutingMatrix ra = a.nextForTokens(tokens);
        const RoutingMatrix rb = b.nextForTokens(tokens);
        for (DeviceId d = 0; d < 8; ++d)
            for (ExpertId j = 0; j < 8; ++j)
                ASSERT_EQ(ra.at(d, j), rb.at(d, j))
                    << "iteration " << it << " device " << d
                    << " expert " << j;
    }
}

TEST(RoutingGenerator, SparseDrawSkipsEmptyDevicesAndDiverges)
{
    // An empty device contributes a zero row either way, but skipping
    // its draw advances the RNG stream differently — the documented
    // contract: sparse runs with empty devices are self-consistent,
    // not dense-identical.
    RoutingModel dense = baseModel();
    RoutingModel sparse = baseModel();
    sparse.sparseDraw = true;
    RoutingGenerator a(dense);
    RoutingGenerator b(sparse);
    RoutingGenerator b2(sparse);
    std::vector<TokenCount> tokens = {64, 0, 128, 0, 0, 0, 0, 3};
    bool diverged = false;
    for (int it = 0; it < 10; ++it) {
        const RoutingMatrix ra = a.nextForTokens(tokens);
        const RoutingMatrix rb = b.nextForTokens(tokens);
        const RoutingMatrix rb2 = b2.nextForTokens(tokens);
        for (DeviceId d = 0; d < 8; ++d) {
            TokenCount dense_row = 0;
            TokenCount sparse_row = 0;
            for (ExpertId j = 0; j < 8; ++j) {
                dense_row += ra.at(d, j);
                sparse_row += rb.at(d, j);
                // Sparse is deterministic for a seed regardless.
                ASSERT_EQ(rb.at(d, j), rb2.at(d, j));
                if (ra.at(d, j) != rb.at(d, j))
                    diverged = true;
            }
            // Both paths conserve the per-device budget; empty
            // devices route nothing under either.
            ASSERT_EQ(dense_row, tokens[d] * 2);
            ASSERT_EQ(sparse_row, tokens[d] * 2);
        }
    }
    EXPECT_TRUE(diverged);
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
