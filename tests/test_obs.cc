/**
 * @file
 * Unit tests for the observability layer (src/obs): the Chrome/
 * Perfetto trace recorder, the P2 streaming-quantile estimator vs the
 * exact percentile() on several sample shapes, the metrics registry's
 * counters/gauges/histograms and JSONL snapshots, and an end-to-end
 * check that ServingMetrics' streaming memory mode changes reported
 * percentiles only within the documented error bound — never the
 * admission/goodput counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hh"
#include "core/rng.hh"
#include "core/stats.hh"
#include "ctrl/control_loop.hh"
#include "difftest/diff.hh"
#include "difftest/scenario_gen.hh"
#include "obs/metrics.hh"
#include "obs/req_trace.hh"
#include "obs/trace.hh"
#include "serve/obs_sinks.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

// ---------------------------------------------------------------- trace

TEST(Trace, EmitsCompleteAndInstantEvents)
{
    TraceRecorder rec;
    const int pool = rec.track("pool0");
    const int planner = rec.track("pool0/planner");
    EXPECT_NE(pool, planner);
    EXPECT_EQ(pool, rec.track("pool0")); // get-or-create

    rec.span(pool, "decode_step", "serve", 1.0, 0.25,
             {TraceArg{"tokens", 128}});
    rec.instant(pool, "admit", "serve", 0.5, {TraceArg{"id", 7}});
    rec.span(planner, "retune", "planner", 1.5, 0.001, {});

    std::ostringstream os;
    rec.write(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Track names land as thread_name metadata.
    EXPECT_NE(json.find("\"pool0\""), std::string::npos);
    EXPECT_NE(json.find("\"pool0/planner\""), std::string::npos);
    // 1.0 s -> 1e6 us, 0.25 s -> 250000 us.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1000000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":250000"), std::string::npos);
    // Instants carry thread scope.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"tokens\":128"), std::string::npos);
}

TEST(Trace, TimestampsMonotonePerTrackAfterWrite)
{
    TraceRecorder rec;
    const int t = rec.track("pool");
    // Emitted out of order on purpose: write() must sort per track.
    rec.span(t, "b", "serve", 2.0, 0.1, {});
    rec.span(t, "a", "serve", 1.0, 0.1, {});
    rec.instant(t, "i", "serve", 0.5, {});
    std::ostringstream os;
    rec.write(os);
    const std::string json = os.str();
    const std::size_t pa = json.find("\"name\":\"a\"");
    const std::size_t pb = json.find("\"name\":\"b\"");
    const std::size_t pi = json.find("\"name\":\"i\"");
    ASSERT_NE(pa, std::string::npos);
    ASSERT_NE(pb, std::string::npos);
    ASSERT_NE(pi, std::string::npos);
    EXPECT_LT(pi, pa);
    EXPECT_LT(pa, pb);
}

TEST(Trace, EscapesStringsInNamesAndArgs)
{
    TraceRecorder rec;
    const int t = rec.track("a\"b\\c");
    rec.instant(t, "ev\nname", "serve", 0.0,
                {TraceArg{"note", std::string("tab\there")}});
    std::ostringstream os;
    rec.write(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
    EXPECT_NE(json.find("ev\\nname"), std::string::npos);
    EXPECT_NE(json.find("tab\\there"), std::string::npos);
}

// ------------------------------------------------------------ quantiles

TEST(P2Quantile, ExactUnderFiveSamples)
{
    P2Quantile q(0.5);
    q.add(3.0);
    q.add(1.0);
    EXPECT_DOUBLE_EQ(q.value(), percentile({3.0, 1.0}, 50.0));
    q.add(2.0);
    q.add(10.0);
    EXPECT_DOUBLE_EQ(q.value(),
                     percentile({3.0, 1.0, 2.0, 10.0}, 50.0));
}

/** Relative error of the estimator vs the exact percentile, with an
 * absolute floor so near-zero exact values do not blow it up. */
double
relErr(double estimate, double exact)
{
    return std::abs(estimate - exact) /
           std::max(std::abs(exact), 1e-9);
}

void
checkStreamingAccuracy(const std::vector<double> &xs, double tolerance)
{
    StreamingQuantiles stream;
    for (const double x : xs)
        stream.add(x);
    for (const double p : {50.0, 95.0, 99.0}) {
        const double exact = percentile(xs, p);
        const double est = stream.quantile(p);
        EXPECT_LT(relErr(est, exact), tolerance)
            << "p" << p << ": streaming " << est << " vs exact "
            << exact << " on n=" << xs.size();
    }
    // Bounds are exact regardless of distribution.
    EXPECT_DOUBLE_EQ(stream.quantile(0.0),
                     *std::min_element(xs.begin(), xs.end()));
    EXPECT_DOUBLE_EQ(stream.quantile(100.0),
                     *std::max_element(xs.begin(), xs.end()));
}

TEST(StreamingQuantiles, UniformWithinDocumentedBound)
{
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i)
        xs.push_back(rng.uniform() * 100.0);
    checkStreamingAccuracy(xs, 0.05); // docs/OBSERVABILITY.md bound
}

TEST(StreamingQuantiles, LognormalWithinDocumentedBound)
{
    Rng rng(13);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i)
        xs.push_back(std::exp(rng.gaussian(0.0, 1.0)));
    checkStreamingAccuracy(xs, 0.05);
}

TEST(StreamingQuantiles, BimodalWithinRelaxedBound)
{
    // Two well-separated modes (70% around 10, 30% around 100): the
    // hardest shape for P2's parabolic interpolation — the documented
    // bound relaxes to 10%.
    Rng rng(19);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i)
        xs.push_back(rng.uniform() < 0.7
                         ? rng.gaussian(10.0, 2.0)
                         : rng.gaussian(100.0, 5.0));
    checkStreamingAccuracy(xs, 0.10);
}

// ------------------------------------------------------------- registry

TEST(Metrics, CountersGaugesAndSnapshots)
{
    MetricsRegistry reg;
    reg.counter("serve.offered").add(3);
    reg.counter("serve.offered").add(2);
    reg.gauge("serve.queue_depth").set(7.0);
    reg.histogram("serve.ttft_s").observe(0.1);
    reg.histogram("serve.ttft_s").observe(0.3);
    EXPECT_EQ(reg.counter("serve.offered").value(), 5);
    EXPECT_TRUE(reg.has("serve.queue_depth"));
    EXPECT_FALSE(reg.has("serve.missing"));
    // Name reuse across kinds is a bug, not a new metric.
    EXPECT_THROW(reg.gauge("serve.offered"), FatalError);

    const CounterSnapshot snap = reg.snapshot(12.5);
    EXPECT_DOUBLE_EQ(snap.simTime, 12.5);
    const auto find = [&snap](const std::string &name) {
        for (const auto &[key, value] : snap.values)
            if (key == name)
                return value;
        ADD_FAILURE() << "missing " << name;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(find("serve.offered"), 5.0);
    EXPECT_DOUBLE_EQ(find("serve.queue_depth"), 7.0);
    EXPECT_DOUBLE_EQ(find("serve.ttft_s.count"), 2.0);
    EXPECT_DOUBLE_EQ(find("serve.ttft_s.max"), 0.3);

    reg.recordSnapshot(1.0);
    reg.counter("serve.offered").add(1);
    reg.recordSnapshot(2.0);
    std::ostringstream os;
    reg.writeJsonl(os, "runA");
    const std::string jsonl = os.str();
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
    EXPECT_NE(jsonl.find("\"run\":\"runA\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"t\":1"), std::string::npos);
    EXPECT_NE(jsonl.find("\"serve.offered\":6"), std::string::npos);
}

/** Decode the JSON string literal that starts at `json[pos]` (the
 * opening quote) the way a JSON reader would: a raw control character
 * or an unknown escape is a parse error (returns false). */
bool
decodeJsonString(const std::string &json, std::size_t pos,
                 std::string &out)
{
    if (pos >= json.size() || json[pos] != '"')
        return false;
    out.clear();
    for (std::size_t i = pos + 1; i < json.size(); ++i) {
        const char c = json[i];
        if (static_cast<unsigned char>(c) < 0x20)
            return false;
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++i >= json.size())
            return false;
        switch (json[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u':
            if (i + 4 >= json.size())
                return false;
            out += static_cast<char>(
                std::stoi(json.substr(i + 1, 4), nullptr, 16));
            i += 4;
            break;
        default: return false;
        }
    }
    return false;
}

TEST(JsonEscape, EveryControlCharacterRoundTrips)
{
    std::string raw = "q\"b\\";
    for (int c = 1; c < 0x20; ++c)
        raw += static_cast<char>(c);
    const std::string literal = "\"" + jsonEscape(raw) + "\"";
    std::string decoded;
    ASSERT_TRUE(decodeJsonString(literal, 0, decoded)) << literal;
    EXPECT_EQ(decoded, raw);
}

TEST(Metrics, ControlCharactersInTheLabelKeepOneJsonlLine)
{
    const std::string label = "run\tA\nB";
    MetricsRegistry reg;
    reg.counter("serve.offered").add(3);
    reg.recordSnapshot(1.0);
    std::ostringstream os;
    reg.writeJsonl(os, label);
    const std::string jsonl = os.str();
    ASSERT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
    EXPECT_EQ(jsonl.back(), '\n');
    const std::size_t key = jsonl.find("\"run\":");
    ASSERT_NE(key, std::string::npos);
    std::string decoded;
    ASSERT_TRUE(decodeJsonString(jsonl, key + 6, decoded)) << jsonl;
    EXPECT_EQ(decoded, label);

    // The SLO report writer shares the escaper.
    ReqTraceRecorder rt(ReqTraceConfig{});
    std::ostringstream slo;
    rt.writeSloJson(slo, label);
    const std::string report = slo.str();
    EXPECT_EQ(report.find('\n'), std::string::npos);
    ASSERT_TRUE(decodeJsonString(report, report.find("\"run\":") + 6,
                                 decoded))
        << report;
    EXPECT_EQ(decoded, label);
}

// ------------------------------------------- streaming ServingMetrics

ServingConfig
e2eConfig(MetricsMemoryMode mode)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::LaerServe;
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 5.0;
    cfg.sloTtft = 0.5;
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.ratePerSec = 30.0;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.arrival.seed = 11;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.hbmPerDevice = (51LL << 30) / 4;
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.retunePeriod = 16;
    cfg.seed = 3;
    cfg.metricsMode = mode;
    return cfg;
}

TEST(ServingMetricsModes, StreamingNeverChangesCountersAndTracksP95)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    MetricsRegistry exact_registry, streaming_registry;
    ServingConfig exact_cfg = e2eConfig(MetricsMemoryMode::Exact);
    exact_cfg.metricsRegistry = &exact_registry;
    exact_cfg.snapshotInterval = 0.25;
    ServingSimulator exact(cluster, exact_cfg);
    const ServingReport re = exact.run();
    ServingConfig streaming_cfg =
        e2eConfig(MetricsMemoryMode::Streaming);
    streaming_cfg.metricsRegistry = &streaming_registry;
    streaming_cfg.snapshotInterval = 0.25;
    ServingSimulator streaming(cluster, streaming_cfg);
    const ServingReport rs = streaming.run();
    ASSERT_GT(re.completed, 50);

    // The memory mode is a reporting choice: every simulated counter
    // must be bit-identical at every checkpoint, not just at the end
    // of the run. The diff harness names the first divergence.
    SnapshotStream exact_stream, streaming_stream;
    exact_stream.snapshots = exact_registry.snapshots();
    streaming_stream.snapshots = streaming_registry.snapshots();
    ASSERT_GT(exact_stream.size(), 10u);
    const DiffReport diff =
        diffStreams(exact_stream, streaming_stream);
    EXPECT_TRUE(diff.identical()) << diff.toText();
    EXPECT_EQ(rs.offered, re.offered);
    EXPECT_EQ(rs.completed, re.completed);
    EXPECT_DOUBLE_EQ(rs.goodputTps, re.goodputTps);
    EXPECT_DOUBLE_EQ(rs.elapsed, re.elapsed);

    // Streaming percentiles track the exact ones within a loose e2e
    // bound (a few hundred samples, well under the n >= 1000 regime).
    EXPECT_LT(relErr(rs.ttftP50, re.ttftP50), 0.15);
    EXPECT_LT(relErr(rs.tpotP50, re.tpotP50), 0.15);
    EXPECT_LT(relErr(rs.ttftP99, re.ttftP99), 0.20);

    // And the memory claim itself: streaming keeps no sample vectors.
    EXPECT_TRUE(streaming.metrics().ttftSamples().empty());
    EXPECT_TRUE(streaming.metrics().tpotSamples().empty());
    EXPECT_FALSE(exact.metrics().ttftSamples().empty());
    EXPECT_EQ(streaming.metrics().memoryMode(),
              MetricsMemoryMode::Streaming);
}

// ------------------------------------------------ write-only sinks

/** Every simulated field of two reports must match bit for bit; only
 * the wall-clock fields and the sampled attribution (which exists only
 * with a ReqTraceRecorder attached) may differ. */
void
expectSameSimulatedReport(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.sloMet, b.sloMet);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.retunes, b.retunes);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.ttftP50, b.ttftP50);
    EXPECT_EQ(a.ttftP90, b.ttftP90);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.tpotP50, b.tpotP50);
    EXPECT_EQ(a.tpotP99, b.tpotP99);
    EXPECT_EQ(a.throughputTps, b.throughputTps);
    EXPECT_EQ(a.goodputTps, b.goodputTps);
    EXPECT_EQ(a.meanBatchTokens, b.meanBatchTokens);
    EXPECT_EQ(a.meanStepTime, b.meanStepTime);
    EXPECT_EQ(a.meanMaxRelTokens, b.meanMaxRelTokens);
    EXPECT_EQ(a.migrationTotal, b.migrationTotal);
    EXPECT_EQ(a.kvBudgetBytes, b.kvBudgetBytes);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.preemptionsByClass, b.preemptionsByClass);
    EXPECT_EQ(a.meanKvUtilization, b.meanKvUtilization);
    EXPECT_EQ(a.peakKvUtilization, b.peakKvUtilization);
    ASSERT_EQ(a.pools.size(), b.pools.size());
    for (std::size_t i = 0; i < a.pools.size(); ++i) {
        EXPECT_EQ(a.pools[i].name, b.pools[i].name);
        EXPECT_EQ(a.pools[i].devices, b.pools[i].devices);
        EXPECT_EQ(a.pools[i].kvBudgetBytes, b.pools[i].kvBudgetBytes);
        EXPECT_EQ(a.pools[i].steps, b.pools[i].steps);
        EXPECT_EQ(a.pools[i].preemptions, b.pools[i].preemptions);
        EXPECT_EQ(a.pools[i].meanKvUtilization,
                  b.pools[i].meanKvUtilization);
        EXPECT_EQ(a.pools[i].peakKvUtilization,
                  b.pools[i].peakKvUtilization);
    }
    EXPECT_EQ(a.migrated, b.migrated);
    EXPECT_EQ(a.kvTransferBytes, b.kvTransferBytes);
    EXPECT_EQ(a.kvTransferSeconds, b.kvTransferSeconds);
    EXPECT_EQ(a.transferStallSeconds, b.transferStallSeconds);
    EXPECT_EQ(a.swapOutBytes, b.swapOutBytes);
    EXPECT_EQ(a.swapInBytes, b.swapInBytes);
    EXPECT_EQ(a.swapSeconds, b.swapSeconds);
    EXPECT_EQ(a.tunerBudgetMs, b.tunerBudgetMs);
    ASSERT_EQ(a.retuneWall.size(), b.retuneWall.size());
    for (std::size_t i = 0; i < a.retuneWall.size(); ++i)
        EXPECT_EQ(a.retuneWall[i].simTime, b.retuneWall[i].simTime);
    EXPECT_EQ(a.deviceSeconds, b.deviceSeconds);
    ASSERT_EQ(a.scalingEvents.size(), b.scalingEvents.size());
    for (std::size_t i = 0; i < a.scalingEvents.size(); ++i) {
        const ScalingEvent &x = a.scalingEvents[i];
        const ScalingEvent &y = b.scalingEvents[i];
        EXPECT_EQ(x.requested, y.requested);
        EXPECT_EQ(x.applied, y.applied);
        EXPECT_EQ(x.action, y.action);
        EXPECT_EQ(x.before, y.before);
        EXPECT_EQ(x.after, y.after);
        EXPECT_EQ(x.loadDelay, y.loadDelay);
        EXPECT_EQ(x.rehomed, y.rehomed);
    }
    const AvailabilityReport &x = a.availability;
    const AvailabilityReport &y = b.availability;
    EXPECT_EQ(x.faultsInjected, y.faultsInjected);
    EXPECT_EQ(x.repairs, y.repairs);
    EXPECT_EQ(x.requestsRetried, y.requestsRetried);
    EXPECT_EQ(x.requestsFailed, y.requestsFailed);
    EXPECT_EQ(x.transfersAborted, y.transfersAborted);
    EXPECT_EQ(x.mttrMean, y.mttrMean);
    EXPECT_EQ(x.mttrMax, y.mttrMax);
    EXPECT_EQ(x.degradedSeconds, y.degradedSeconds);
    EXPECT_EQ(x.degradedGoodputTps, y.degradedGoodputTps);
    EXPECT_EQ(x.failedByClass, y.failedByClass);
    ASSERT_EQ(x.timeline.size(), y.timeline.size());
    for (std::size_t i = 0; i < x.timeline.size(); ++i) {
        EXPECT_EQ(x.timeline[i].time, y.timeline[i].time);
        EXPECT_EQ(x.timeline[i].kind, y.timeline[i].kind);
        EXPECT_EQ(x.timeline[i].target, y.timeline[i].target);
        EXPECT_EQ(x.timeline[i].magnitude, y.timeline[i].magnitude);
    }
}

void
expectSameSteps(const std::vector<ServingStepResult> &a,
                const std::vector<ServingStepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(i));
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].duration, b[i].duration);
        EXPECT_EQ(a[i].tokens, b[i].tokens);
        EXPECT_EQ(a[i].prefill, b[i].prefill);
        EXPECT_EQ(a[i].decode, b[i].decode);
        EXPECT_EQ(a[i].migration, b[i].migration);
        EXPECT_EQ(a[i].maxRelTokens, b[i].maxRelTokens);
        EXPECT_EQ(a[i].retuned, b[i].retuned);
        EXPECT_EQ(a[i].kvUtilization, b[i].kvUtilization);
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
        EXPECT_EQ(a[i].pool, b[i].pool);
        EXPECT_EQ(a[i].swapOutBytes, b[i].swapOutBytes);
        EXPECT_EQ(a[i].swapInBytes, b[i].swapInBytes);
        EXPECT_EQ(a[i].swapTime, b[i].swapTime);
    }
}

/** Run `cfg` bare and again with a trace, a 0.25 s-snapshot registry
 * and a request recorder sampling every request, optionally under a
 * control loop; the runs must agree.
 * @return the bare run's report. */
ServingReport
expectSinksWriteOnly(const Cluster &cluster, const ServingConfig &cfg,
                     const ControlLoopConfig *loop_cfg)
{
    const auto play = [&](const ServingConfig &c,
                          std::vector<ServingStepResult> &steps) {
        ServingSimulator sim(cluster, c);
        ServingReport report;
        if (loop_cfg != nullptr)
            report = ControlLoop(sim, *loop_cfg).run();
        else
            report = sim.run();
        steps = sim.stepResults();
        return report;
    };
    std::vector<ServingStepResult> bare_steps, observed_steps;
    const ServingReport bare = play(cfg, bare_steps);

    TraceRecorder trace;
    MetricsRegistry registry;
    ReqTraceConfig every;
    every.sampleEvery = 1;
    ReqTraceRecorder requests(every);
    ServingConfig observed_cfg = cfg;
    observed_cfg.trace = &trace;
    observed_cfg.metricsRegistry = &registry;
    observed_cfg.snapshotInterval = 0.25;
    observed_cfg.reqTrace = &requests;
    const ServingReport observed = play(observed_cfg, observed_steps);

    // The sinks really recorded the run.
    EXPECT_GT(trace.eventCount(), 100u);
    EXPECT_GT(registry.snapshots().size(), 4u);
    EXPECT_EQ(requests.sampledRetired(), observed.completed);
    expectSameSimulatedReport(bare, observed);
    expectSameSteps(bare_steps, observed_steps);
    return bare;
}

TEST(WriteOnlySinks, FaultedDisaggregatedRunIsUnchanged)
{
    const Cluster cluster(4, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.capacity = 4;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 30.0;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.seed = 7;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.hbmPerDevice = 40LL << 30;
    cfg.seed = 5;
    // Every fault kind: a straggler, a degraded then dead boundary
    // link, a lost device and a killed and repaired decode pool.
    cfg.faults.events = {
        {0.4, FaultKind::StragglerStart, 0, 2.0},
        {0.6, FaultKind::LinkDegrade, 0, 1.5},
        {0.8, FaultKind::DeviceFail, 1, 1.0},
        {1.0, FaultKind::LinkDown, 0, 1.0},
        {1.1, FaultKind::LinkUp, 0, 1.0},
        {1.2, FaultKind::DeviceRepair, 1, 1.0},
        {1.4, FaultKind::ReplicaFail, 1, 1.0},
        {1.8, FaultKind::ReplicaRepair, 1, 1.0},
        {2.0, FaultKind::StragglerEnd, 0, 1.0},
    };
    const ServingReport report = expectSinksWriteOnly(cluster, cfg, nullptr);
    EXPECT_EQ(report.availability.timeline.size(), cfg.faults.events.size());
    EXPECT_GT(report.availability.requestsRetried, 0);
    EXPECT_GT(report.migrated, 0);
}

/** Two 4-device replicas under enough load to breach the autoscaler's
 * fixed queue threshold (8 waiting per replica). */
ServingConfig
replicaSinkConfig()
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 4.0;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 160.0;
    cfg.arrival.meanPrefillTokens = 128;
    cfg.arrival.meanDecodeTokens = 16;
    cfg.arrival.seed = 5;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.prefillChunk = 512;
    cfg.replicas.replicaDevices = 4;
    cfg.seed = 11;
    return cfg;
}

TEST(WriteOnlySinks, ControlledReplicaRunIsUnchanged)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = replicaSinkConfig();
    cfg.replicas.initialReplicas = 1;
    ControlLoopConfig loop;
    loop.interval = 0.5;
    loop.kind = AutoscalerKind::ThresholdHysteresis;
    loop.autoscaler.minReplicas = 1;
    loop.autoscaler.maxReplicas = 2;
    const ServingReport report = expectSinksWriteOnly(cluster, cfg, &loop);
    EXPECT_FALSE(report.scalingEvents.empty());
}

TEST(WriteOnlySinks, ThreadedReplicaRunIsUnchanged)
{
    // Both replicas fan out over four workers. The registry's 0.25 s
    // snapshots end windows the 1 s dispatch grid does not, which must
    // move no simulated number.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = replicaSinkConfig();
    cfg.threads = 4;
    const ServingReport report = expectSinksWriteOnly(cluster, cfg, nullptr);
    EXPECT_EQ(report.pools.size(), 2u);
    EXPECT_GT(report.pools[1].steps, 0);
}

TEST(FaultPlanRelation, EventsAfterTheLastStepLeaveTheReportUnchanged)
{
    // Relation: a fault plan whose events all fall at or after the
    // run's last step end gives a report bit-identical to an empty
    // plan, at 1 and 4 threads, over the fuzzed scenarios.
    for (std::uint64_t i = 0; i < 12; ++i) {
        const Scenario s = generateScenario(20260808 + i);
        const Cluster cluster = s.makeCluster();
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(s.describe() +
                         " threads=" + std::to_string(threads));
            ServingConfig cfg = s.serving;
            cfg.threads = threads;
            cfg.faults = FaultConfig{};
            ServingSimulator bare(cluster, cfg);
            const ServingReport clean = bare.run();
            const Seconds end = clean.elapsed;
            cfg.faults.events = {
                {end, FaultKind::StragglerStart, 0, 2.0},
                {end + 0.5, FaultKind::ReplicaFail, 0, 1.0},
                {1000.0, FaultKind::LinkDown, 0, 1.0},
            };
            ServingSimulator late(cluster, cfg);
            expectSameSimulatedReport(clean, late.run());
            expectSameSteps(bare.stepResults(), late.stepResults());
        }
    }
}

// ------------------------------------------------------------ ObsSinks

/** Parse `flags` as a binary taking every obs flag would. */
CliArgs
obsArgs(const std::vector<std::string> &flags)
{
    std::vector<const char *> argv = {"bin"};
    for (const std::string &flag : flags)
        argv.push_back(flag.c_str());
    return CliArgs(static_cast<int>(argv.size()), argv.data(),
                   ObsSinks::flags({}));
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** A one-second serving run, small enough to run twice per test. */
ServingConfig
tinyConfig()
{
    ServingConfig cfg = e2eConfig(MetricsMemoryMode::Exact);
    cfg.horizon = 1.0;
    return cfg;
}

TEST(ObsSinks, NoFlagsAttachNothingAndWriteNoFile)
{
    ObsSinks sinks(obsArgs({}));
    ServingConfig cfg = tinyConfig();
    MetricsRegistry registry;
    sinks.attach(cfg, registry, "run");
    EXPECT_EQ(cfg.trace, nullptr);
    EXPECT_EQ(cfg.metricsRegistry, nullptr);
    EXPECT_EQ(cfg.reqTrace, nullptr);
    EXPECT_TRUE(cfg.obsLabel.empty());
    sinks.end(registry, "run");
    std::ostringstream stdout_capture;
    std::streambuf *saved = std::cout.rdbuf(stdout_capture.rdbuf());
    sinks.write();
    std::cout.rdbuf(saved);
    EXPECT_TRUE(stdout_capture.str().empty());
}

TEST(ObsSinks, AllFlagsRecordEveryLabelledRunInOrder)
{
    const std::string dir = ::testing::TempDir();
    const std::string trace = dir + "obs_sinks_trace.json";
    const std::string metrics = dir + "obs_sinks_metrics.jsonl";
    const std::string slo = dir + "obs_sinks_slo.json";
    {
        // A metrics file left by an earlier run must be truncated.
        std::ofstream stale(metrics);
        stale << "{\"run\":\"stale\"}\n";
    }
    ObsSinks sinks(obsArgs({"--trace-out=" + trace,
                            "--metrics-out=" + metrics,
                            "--slo-report-out=" + slo}));
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    for (const std::string label : {"first", "second"}) {
        ServingConfig cfg = tinyConfig();
        MetricsRegistry registry;
        sinks.attach(cfg, registry, label);
        EXPECT_NE(cfg.trace, nullptr);
        EXPECT_EQ(cfg.obsLabel, label);
        EXPECT_EQ(cfg.metricsRegistry, &registry);
        EXPECT_DOUBLE_EQ(cfg.snapshotInterval, 1.0);
        EXPECT_NE(cfg.reqTrace, nullptr);
        ServingSimulator(cluster, cfg).run();
        sinks.end(registry, label);
    }
    std::ostringstream stdout_capture;
    std::streambuf *saved = std::cout.rdbuf(stdout_capture.rdbuf());
    sinks.write();
    std::cout.rdbuf(saved);
    EXPECT_EQ(stdout_capture.str(),
              "wrote " + trace + "\nwrote " + slo + "\n");

    // Trace: tracks under both labels.
    const std::string trace_json = slurp(trace);
    EXPECT_NE(trace_json.find("\"first/"), std::string::npos);
    EXPECT_NE(trace_json.find("\"second/"), std::string::npos);

    // Metrics: the stale line is gone, and every snapshot carries its
    // run's label, first run before second.
    std::istringstream lines(slurp(metrics));
    std::vector<std::string> runs;
    for (std::string line; std::getline(lines, line);) {
        const std::size_t at = line.find("\"run\":\"");
        ASSERT_NE(at, std::string::npos) << line;
        const std::size_t from = at + 7;
        runs.push_back(line.substr(from, line.find('"', from) - from));
    }
    const auto second = std::find(runs.begin(), runs.end(), "second");
    EXPECT_NE(second, runs.begin());
    EXPECT_NE(second, runs.end());
    EXPECT_EQ(std::count(runs.begin(), second, "first"),
              second - runs.begin());
    EXPECT_EQ(std::count(second, runs.end(), "second"),
              runs.end() - second);

    // SLO report: a JSON array of one object per run, in run order.
    std::istringstream slo_lines(slurp(slo));
    std::vector<std::string> objects;
    for (std::string line; std::getline(slo_lines, line);)
        objects.push_back(line);
    ASSERT_EQ(objects.size(), 4u);
    EXPECT_EQ(objects[0], "[");
    EXPECT_EQ(objects[1].rfind("{\"run\":\"first\"", 0), 0u);
    EXPECT_EQ(objects[1].back(), ',');
    EXPECT_EQ(objects[2].rfind("{\"run\":\"second\"", 0), 0u);
    EXPECT_EQ(objects[3], "]");
}

TEST(ObsSinks, UnwritablePathThrowsAtConstruction)
{
    const std::string missing =
        ::testing::TempDir() + "obs_sinks_no_such_dir/out";
    for (const char *flag : {"--trace-out=", "--metrics-out=",
                             "--slo-report-out="})
        EXPECT_THROW(ObsSinks(obsArgs({flag + missing})), FatalError)
            << flag;
}

TEST(ObsSinks, LeavesTheCallersRegistryAlone)
{
    const std::string metrics =
        ::testing::TempDir() + "obs_sinks_own_registry.jsonl";
    ObsSinks sinks(obsArgs({"--metrics-out=" + metrics}));
    ServingConfig cfg = tinyConfig();
    MetricsRegistry own, offered;
    cfg.metricsRegistry = &own;
    cfg.snapshotInterval = 0.5;
    sinks.attach(cfg, offered, "run");
    EXPECT_EQ(cfg.metricsRegistry, &own);
    EXPECT_DOUBLE_EQ(cfg.snapshotInterval, 0.5);
}

} // namespace
} // namespace laer
