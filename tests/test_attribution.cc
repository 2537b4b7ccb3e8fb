/**
 * @file
 * Conservation tests of the request-level attribution layer
 * (obs/attribution.hh, obs/req_trace.hh): finalize() reproduces the
 * measured latency bit-exactly — including the round-to-even parity
 * traps where no residual alone can solve the reconstruction — and
 * full serving runs under forced preemption (recompute and swap),
 * disaggregated KV transfers, and FlexMoe retune pauses retire every
 * sampled request with components that re-sum to its measured
 * TTFT/E2E. The SLO-miss JSON report is spot-checked for shape;
 * scripts/slo_report.py owns the full schema validation.
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "model/config.hh"
#include "obs/attribution.hh"
#include "obs/req_trace.hh"
#include "serve/kv_cache.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

constexpr int kQueueWait = static_cast<int>(AttrComponent::QueueWait);
constexpr int kPrefill =
    static_cast<int>(AttrComponent::PrefillCompute);
constexpr int kRecovery =
    static_cast<int>(AttrComponent::PreemptRecovery);
constexpr int kRetune = static_cast<int>(AttrComponent::RetunePause);
constexpr int kKvTransfer = static_cast<int>(AttrComponent::KvTransfer);
constexpr int kDecode =
    static_cast<int>(AttrComponent::DecodeResidency);

// ---- finalize(): bit-exact reconstruction ---------------------------------

TEST(AttributionBuilder, FinalizeReconstructsExactly)
{
    AttributionBuilder builder;
    builder.add(AttrComponent::PrefillCompute, 0.0123, true);
    builder.add(AttrComponent::DecodeResidency, 0.456, false);
    builder.add(AttrComponent::KvTransfer, 7.89e-4, false);

    const double measured = 0.5011;
    const AttrBreakdown e2e = builder.finalize(measured, false);
    EXPECT_TRUE(e2e.exact);
    EXPECT_EQ(e2e.canonicalSum(), measured);
    EXPECT_EQ(e2e.measured, measured);
    EXPECT_GT(e2e.components[kQueueWait], 0.0);
}

TEST(AttributionBuilder, TtftSideOnlyCarriesPreFirstTokenTime)
{
    AttributionBuilder builder;
    builder.add(AttrComponent::PrefillCompute, 0.02,
                /*pre_first_token=*/true);
    builder.add(AttrComponent::DecodeResidency, 0.3,
                /*pre_first_token=*/false);

    const AttrBreakdown ttft = builder.finalize(0.025, true);
    EXPECT_TRUE(ttft.exact);
    EXPECT_EQ(ttft.canonicalSum(), 0.025);
    EXPECT_DOUBLE_EQ(ttft.components[kPrefill], 0.02);
    EXPECT_DOUBLE_EQ(ttft.components[kDecode], 0.0);

    const AttrBreakdown e2e = builder.finalize(0.33, false);
    EXPECT_TRUE(e2e.exact);
    EXPECT_EQ(e2e.canonicalSum(), 0.33);
    EXPECT_DOUBLE_EQ(e2e.components[kDecode], 0.3);
}

/** Cases caught by the fuzz campaign where the naive residual walk
 * failed: the rounded re-sum skips `measured` on a round-to-even
 * halfway point until the residual (or one component, by a single
 * ULP) is steered onto a finer grid. */
TEST(AttributionBuilder, FinalizeSolvesRoundToEvenParityTraps)
{
    struct Case
    {
        double measured;
        double prefill;
        double kv;
        double decode;
    };
    const Case cases[] = {
        {0.044709732021937114, 0.018624863933987421,
         0.00080643200000000005, 0.025278436087949684},
        {0.36765144404916655, 0.059283173079748432,
         8.9468160000000002e-05, 0.26228010602264162},
        {0.11733676269001254, 0.014263274173987421, 0.0,
         0.10307348851602517},
        // Single addend whose ULP is half the result's: provably no
        // residual works; needs the one-ULP component redistribution.
        {0.0156199482502233, 0.0068789301518490569, 0.0, 0.0},
        {0.038397888473358489, 0.0071588947916477984, 0.0,
         0.031238993681710694},
        {0.42749150520352203, 0.034838069698817614, 0.0,
         0.39265343550470455},
    };
    for (const Case &c : cases) {
        AttributionBuilder builder;
        if (c.prefill > 0.0)
            builder.add(AttrComponent::PrefillCompute, c.prefill,
                        true);
        if (c.kv > 0.0)
            builder.add(AttrComponent::KvTransfer, c.kv, false);
        if (c.decode > 0.0)
            builder.add(AttrComponent::DecodeResidency, c.decode,
                        false);
        const AttrBreakdown b = builder.finalize(c.measured, false);
        EXPECT_TRUE(b.exact) << formatBreakdown(b);
        EXPECT_EQ(b.canonicalSum(), c.measured) << formatBreakdown(b);
        // A component redistribution moves a component by at most one
        // of its own ULPs — never more.
        if (c.prefill > 0.0) {
            EXPECT_NEAR(b.components[kPrefill], c.prefill,
                        2.0 * c.prefill * 1e-15);
        }
    }
}

// ---- full serving runs: conservation per scenario -------------------------

/** Tight-KV configuration that forces preemptions (mirrors
 * test_engine.cc's swapServingConfig). */
ServingConfig
pressuredConfig(PreemptionMode mode)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::LaerServe;
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.ratePerSec = 40.0;
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.arrival.seed = 99;
    cfg.batcher.tokenBudget = 4096;
    cfg.batcher.kvBudgetBytes = 3000LL * kvBytesPerToken(cfg.model);
    cfg.batcher.kvBytesPerToken = kvBytesPerToken(cfg.model);
    cfg.batcher.kvBlockTokens = 16;
    cfg.batcher.preemptionMode = mode;
    cfg.routing = RoutingModel::wikitext(0, 0, 0, 0);
    cfg.retunePeriod = 8;
    cfg.seed = 5;
    return cfg;
}

/** Total sampled mass (count-weighted mean) of one component across
 * every SLO class of the report's attribution summary. */
double
componentMass(const ServingReport &report, int component)
{
    double mass = 0.0;
    for (const auto &per_class : report.attributionByClass)
        mass += per_class[component].mean *
                static_cast<double>(per_class[component].count);
    return mass;
}

/** Run `cfg` with an every-request recorder attached; fail on any
 * conservation violation and return the report. */
ServingReport
runConserved(const Cluster &cluster, ServingConfig cfg,
             ReqTraceRecorder &recorder)
{
    cfg.reqTrace = &recorder;
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();
    for (const std::string &v : recorder.violations())
        ADD_FAILURE() << v;
    EXPECT_EQ(recorder.sampledRetired(), report.completed);
    EXPECT_EQ(recorder.liveCount(), 0u);
    return report;
}

TEST(ReqTraceConservation, HoldsUnderRecomputePreemption)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ReqTraceConfig trace_cfg;
    trace_cfg.sampleEvery = 1;
    ReqTraceRecorder recorder(trace_cfg);
    const ServingReport report = runConserved(
        cluster, pressuredConfig(PreemptionMode::Recompute), recorder);

    ASSERT_GT(report.preemptions, 0) << "no memory pressure simulated";
    // Replayed prefill after eviction lands in PreemptRecovery.
    EXPECT_GT(componentMass(report, kRecovery), 0.0);
    EXPECT_GT(componentMass(report, kPrefill), 0.0);
    EXPECT_GT(componentMass(report, kDecode), 0.0);
}

TEST(ReqTraceConservation, HoldsUnderSwapPreemption)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ReqTraceConfig trace_cfg;
    trace_cfg.sampleEvery = 1;
    ReqTraceRecorder recorder(trace_cfg);
    const ServingReport report = runConserved(
        cluster, pressuredConfig(PreemptionMode::Swap), recorder);

    ASSERT_GT(report.preemptions, 0);
    // Swap restore time is charged to PreemptRecovery.
    EXPECT_GT(componentMass(report, kRecovery), 0.0);
}

TEST(ReqTraceConservation, HoldsUnderDisaggregatedTransfers)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.ratePerSec = 20.0;
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.arrival.seed = 99;
    cfg.batcher.tokenBudget = 4096;
    cfg.batcher.kvBudgetBytes = 6000LL * kvBytesPerToken(cfg.model);
    cfg.batcher.kvBytesPerToken = kvBytesPerToken(cfg.model);
    cfg.batcher.kvBlockTokens = 16;
    cfg.routing = RoutingModel::wikitext(0, 0, 0, 0);
    cfg.retunePeriod = 8;
    cfg.seed = 5;

    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ReqTraceConfig trace_cfg;
    trace_cfg.sampleEvery = 1;
    ReqTraceRecorder recorder(trace_cfg);
    const ServingReport report =
        runConserved(cluster, cfg, recorder);

    ASSERT_GT(report.migrated, 0);
    // Wire time of migrated KV shows up as the KvTransfer component.
    EXPECT_GT(componentMass(report, kKvTransfer), 0.0);
}

TEST(ReqTraceConservation, RetunePauseStepsLandInRetuneComponent)
{
    // FlexMoe's in-step migration pause reaches the recorder as the
    // retunePause share of a ReqStepShare (engine.cc feeds
    // res.migration through the step split). The incremental planner
    // never pays its move penalty under generator-driven routing, so
    // drive the recorder with the exact shares a paid migration step
    // produces. Dyadic values keep every sum exactly representable.
    ReqTraceConfig trace_cfg;
    trace_cfg.sampleEvery = 1;
    ReqTraceRecorder recorder(trace_cfg);

    recorder.onAdmit(/*id=*/3, /*slo_class=*/1, /*arrival=*/0.0,
                     /*admit_time=*/0.25, /*pool=*/0);

    ReqStepShare prefill;
    prefill.requestId = 3;
    prefill.pool = 0;
    prefill.start = 0.25;
    prefill.duration = 0.125;
    prefill.retunePause = 0.03125; // migration pause before TTFT
    prefill.computeAs = AttrComponent::PrefillCompute;
    prefill.firstToken = true;
    recorder.onStep(prefill);

    ReqStepShare decode;
    decode.requestId = 3;
    decode.pool = 0;
    decode.start = 0.375;
    decode.duration = 0.125;
    decode.retunePause = 0.015625;  // post-TTFT migration pause
    decode.swapOverhead = 0.0078125; // swap restore share
    decode.computeAs = AttrComponent::DecodeResidency;
    recorder.onStep(decode);

    ReqRetireInfo info;
    info.id = 3;
    info.firstTokenTime = 0.375;
    info.finishTime = 0.5;
    info.decodeTokens = 2;
    info.sloTtft = 1.0;
    const RetiredAttribution attr =
        recorder.retire(info, ReqTraceRecorder::RetireContext{});

    // Pre-first-token pause counts toward TTFT; the decode-step pause
    // only toward E2E.
    EXPECT_EQ(attr.ttft.components[static_cast<int>(kRetune)],
              0.03125);
    EXPECT_EQ(attr.e2e.components[static_cast<int>(kRetune)],
              0.03125 + 0.015625);
    EXPECT_EQ(attr.ttft.components[static_cast<int>(kRecovery)], 0.0);
    EXPECT_EQ(attr.e2e.components[static_cast<int>(kRecovery)],
              0.0078125);
    // Compute remainders exclude the pause shares.
    EXPECT_EQ(attr.ttft.components[static_cast<int>(kPrefill)],
              0.125 - 0.03125);
    EXPECT_EQ(attr.e2e.components[static_cast<int>(kDecode)],
              0.125 - 0.015625 - 0.0078125);

    // Conservation holds bit-exactly on both sides.
    EXPECT_TRUE(attr.ttft.exact);
    EXPECT_TRUE(attr.e2e.exact);
    EXPECT_EQ(attr.ttft.canonicalSum(), attr.ttft.measured);
    EXPECT_EQ(attr.e2e.canonicalSum(), attr.e2e.measured);
    EXPECT_EQ(attr.ttft.measured, 0.375);
    EXPECT_EQ(attr.e2e.measured, 0.5);
    EXPECT_TRUE(recorder.violations().empty());
    EXPECT_EQ(recorder.sampledRetired(), 1);
    EXPECT_EQ(recorder.liveCount(), 0u);
}

TEST(ReqTraceConservation, SamplingIsDeterministicAndSparse)
{
    ReqTraceConfig trace_cfg;
    trace_cfg.sampleEvery = 16;
    trace_cfg.seed = 7;
    ReqTraceRecorder a(trace_cfg);
    ReqTraceRecorder b(trace_cfg);
    int sampled = 0;
    for (int id = 0; id < 4096; ++id) {
        EXPECT_EQ(a.wants(id), b.wants(id));
        sampled += a.wants(id) ? 1 : 0;
    }
    // 1-in-16 hashing keeps roughly 256 of 4096; allow wide slack.
    EXPECT_GT(sampled, 128);
    EXPECT_LT(sampled, 512);

    ReqTraceConfig all;
    all.sampleEvery = 1;
    ReqTraceRecorder everything(all);
    for (int id = 0; id < 64; ++id)
        EXPECT_TRUE(everything.wants(id));
}

// ---- SLO-miss report shape -------------------------------------------------

TEST(ReqTraceConservation, SloJsonIsWellFormed)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ReqTraceConfig trace_cfg;
    trace_cfg.sampleEvery = 1;
    trace_cfg.topK = 4;
    ReqTraceRecorder recorder(trace_cfg);
    runConserved(cluster, pressuredConfig(PreemptionMode::Recompute),
                 recorder);

    std::ostringstream os;
    recorder.writeSloJson(os, "unit");
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"run\":\"unit\""), std::string::npos);
    EXPECT_NE(json.find("\"violation_count\":0"), std::string::npos);
    EXPECT_NE(json.find("\"worst_ttft\""), std::string::npos);
    EXPECT_NE(json.find("\"worst_tpot\""), std::string::npos);
    EXPECT_NE(json.find("\"ttft_components_s\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
    // Balanced braces (string values never contain them here).
    long depth = 0;
    for (const char ch : json) {
        depth += ch == '{' ? 1 : 0;
        depth -= ch == '}' ? 1 : 0;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    const std::vector<SloRecord> worst = recorder.worstTtft();
    ASSERT_FALSE(worst.empty());
    EXPECT_LE(worst.size(), 4u);
    for (std::size_t i = 1; i < worst.size(); ++i)
        EXPECT_GE(worst[i - 1].ttft, worst[i].ttft);
    for (const SloRecord &rec : worst) {
        EXPECT_TRUE(rec.ttftBk.exact);
        EXPECT_TRUE(rec.e2eBk.exact);
        EXPECT_EQ(rec.ttftBk.canonicalSum(), rec.ttftBk.measured);
        EXPECT_EQ(rec.e2eBk.canonicalSum(), rec.e2eBk.measured);
    }
}

} // namespace
} // namespace laer
