/**
 * @file
 * The benchmark program: one fixed-work repetition of one workload per
 * process (perfbench/run.py starts a fresh process per repetition and
 * aggregates them; see perfbench/README.md).
 *
 *   laer_perfbench --workload=NAME --seed=N [--tiny] [--out-dir=DIR]
 *                  [--traced]
 *   laer_perfbench --fingerprint
 *
 * An untraced repetition sets the workload up kSetupReps times (timing
 * each set-up), simulates its fixed horizon or iteration count to a full
 * drain on one thread, checks conservation, and prints one JSON object
 * with the timings and a digest of the simulated outputs. A traced
 * repetition (--traced) runs the same work with a span around every
 * call into a layer's public functions, replays the layers below
 * ServingSimulator::step() on inputs shaped by the workload, writes
 * the spans once at exit, and prints the per-layer numbers.
 *
 * Every timer lives in this file: nothing in src/ is instrumented for
 * the benchmark.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "comm/collectives.hh"
#include "core/cli.hh"
#include "core/error.hh"
#include "model/config.hh"
#include "obs/metrics.hh"
#include "obs/req_trace.hh"
#include "obs/trace.hh"
#include "planner/layout_tuner.hh"
#include "planner/lite_routing.hh"
#include "planner/routing_plan_sparse.hh"
#include "runtime/iteration.hh"
#include "runtime/training_sim.hh"
#include "serve/arrival.hh"
#include "serve/batcher.hh"
#include "serve/serving_sim.hh"
#include "sim/engine.hh"
#include "topo/cluster.hh"
#include "trace/routing_generator.hh"

namespace
{

using Clock = std::chrono::steady_clock;
using namespace laer;

const Clock::time_point kProcessStart = Clock::now();

/** Set-ups timed per repetition; setup_s is their median, since one
 * set-up takes only 10-200 µs. */
constexpr int kSetupReps = 25;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
usSinceStart()
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     kProcessStart)
        .count();
}

/** %.17g: every digit of a double, so digests compare bit-exactly. */
std::string
exact(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

/** `text` as a JSON string literal. */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c == '\n' ? ' ' : c;
    }
    return out + "\"";
}

std::string
jsonNumber(double x)
{
    return std::isfinite(x) ? exact(x) : "null";
}

/** Peak resident set of this process image in MiB: VmHWM, since
 * ru_maxrss would also count the parent's footprint inherited across
 * fork + exec. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Nearest-rank quantile of `xs`; 0 when empty. */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---- spans ------------------------------------------------------------

/** One timed call: name, start, end (µs since process start) and the
 * span that encloses it (-1 for a root). */
struct Span
{
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
};

/** In-memory span log of one traced run, written once at exit. */
class SpanLog
{
  public:
    int begin(const char *name)
    {
        spans_.push_back({name, usSinceStart(), 0.0, open_});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void end(int id)
    {
        spans_[static_cast<std::size_t>(id)].endUs = usSinceStart();
        open_ = spans_[static_cast<std::size_t>(id)].parent;
    }

    /** Durations (µs) of every span called `name`. */
    std::vector<double> durationsUs(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (name == s.name)
                out.push_back(s.endUs - s.startUs);
        return out;
    }

    double totalUs(const std::string &name) const
    {
        double sum = 0.0;
        for (const double d : durationsUs(name))
            sum += d;
        return sum;
    }

    void write(const std::string &path, const std::string &run_id) const
    {
        std::ofstream out(path, std::ios::trunc);
        LAER_CHECK(out.good(), "cannot write " << path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"run\":\"" << run_id << "\",\"id\":" << i
                << ",\"name\":\"" << s.name
                << "\",\"start_us\":" << exact(s.startUs)
                << ",\"end_us\":" << exact(s.endUs)
                << ",\"parent\":" << s.parent << "}\n";
        }
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/** RAII span; a null log records nothing. */
class Scoped
{
  public:
    Scoped(SpanLog *log, const char *name)
        : log_(log), id_(log != nullptr ? log->begin(name) : -1)
    {
    }
    ~Scoped()
    {
        if (log_ != nullptr)
            log_->end(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

// ---- workloads --------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    bool tiny = false;
    std::string outDir = ".";
};

/** A serving workload: its cluster geometry and full configuration. */
struct ServingWorkload
{
    int nodes = 1;
    ServingConfig config;
    bool observed = false; //!< attaches trace/metrics/request sinks
};

/** The fig15 diurnal day, scaled to 1/16 (see README): 64 devices as
 * eight 8-device replicas, one layer, Streaming metrics, sparse draws,
 * the default serial event core. */
ServingWorkload
dayReplicas(const Options &opt)
{
    ServingWorkload w;
    w.nodes = 8;
    ServingConfig &cfg = w.config;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::LaerServe;
    cfg.capacity = 2;
    cfg.simulatedLayers = 1;
    cfg.retunePeriod = 64;
    cfg.tuner.fastScoring = true;
    cfg.replicas.replicaDevices = 8;
    cfg.horizon = opt.tiny ? 2.0 : 25.0;
    cfg.arrival.kind = ArrivalKind::Diurnal;
    cfg.arrival.ratePerSec = 2600.0;
    cfg.arrival.diurnalPeriod = cfg.horizon;
    cfg.arrival.diurnalAmplitude = 0.7;
    cfg.arrival.meanPrefillTokens = 96;
    cfg.arrival.meanDecodeTokens = 24;
    cfg.arrival.numSloClasses = 2;
    cfg.arrival.seed = 15;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.maxRunning = 512;
    cfg.batcher.numSloClasses = 2;
    cfg.routing.sparseDraw = true;
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.metricsMode = MetricsMemoryMode::Streaming;
    return w;
}

/** Tab. 5's serving configuration at 256 devices, retuning every 4
 * steps. */
ServingWorkload
scale256(const Options &opt)
{
    ServingWorkload w;
    w.nodes = opt.tiny ? 4 : 32;
    ServingConfig &cfg = w.config;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::LaerServe;
    cfg.capacity = 2;
    cfg.simulatedLayers = 4;
    cfg.horizon = opt.tiny ? 0.3 : 2.5;
    cfg.arrival.ratePerSec = 40.0;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.seed = 7;
    cfg.batcher.tokenBudget = 16384;
    cfg.batcher.maxRunning = 512;
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.retunePeriod = 4;
    cfg.tuner.capacity = cfg.capacity;
    cfg.tuner.cost.commBytesPerToken = cfg.model.tokenBytes();
    cfg.tuner.cost.compFlopsPerToken = cfg.model.expertFlopsPerToken();
    cfg.tuner.fastScoring = true;
    return w;
}

/** Fig. 13's disaggregated serving on 2x8 devices under bursty load
 * and a tight HBM budget, with every observability sink attached. */
ServingWorkload
disaggObserved(const Options &opt)
{
    ServingWorkload w;
    w.nodes = 2;
    w.observed = true;
    ServingConfig &cfg = w.config;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = ServingPolicy::Disaggregated;
    cfg.capacity = 2;
    cfg.simulatedLayers = 4;
    cfg.horizon = opt.tiny ? 3.0 : 41.0;
    cfg.sloTtft = 0.5;
    cfg.hbmPerDevice = static_cast<Bytes>(12.6 * (1LL << 30));
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.ratePerSec = 60.0;
    cfg.arrival.burstFactor = 4.0;
    cfg.arrival.burstFraction = 0.15;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.seed = 2024;
    cfg.batcher.tokenBudget = 16384;
    cfg.batcher.prefillChunk = 1024;
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.routing.deviceJitter = 0.15;
    cfg.retunePeriod = 16;
    cfg.snapshotInterval = 1.0;
    return w;
}

/** --seed picks the routing draws; each workload keeps one fixed
 * arrival trace, so every seed offers the same requests (scale-256
 * offers only ~100, whose Poisson count would otherwise swing the work
 * by +-10% between seeds). */
void
applySeed(ServingConfig &cfg, std::uint64_t seed)
{
    cfg.seed = 1000 + 7919 * seed;
    cfg.threads = 1;
}

/** LAER training on 64 devices: Mixtral-8x7B e16k4, wikitext-like
 * routing, four simulated layers, a retune every iteration (110 of
 * them, so the retune p90 has at least ten samples beyond it). */
struct TrainingWorkload
{
    int nodes = 8;
    int iterations = 111;
    SimulatorConfig config;
};

TrainingWorkload
train64(const Options &opt)
{
    TrainingWorkload w;
    w.nodes = opt.tiny ? 1 : 8;
    w.iterations = opt.tiny ? 3 : 111;
    SimulatorConfig &cfg = w.config;
    cfg.model = mixtral8x7bE16K4();
    cfg.system = SystemKind::Laer;
    cfg.capacity = 4;
    cfg.seqLen = 8192;
    cfg.simulatedLayers = 4;
    cfg.tpDegree = 2;
    cfg.tokensPerDevice = 8192;
    const int devices = 8 * w.nodes;
    cfg.routing = RoutingModel::wikitext(devices, cfg.model.numExperts,
                                         cfg.model.topK, 16384);
    cfg.seed = 3000 + 7919 * opt.seed;
    return w;
}

bool
isServing(const std::string &name)
{
    return name == "day-replicas" || name == "scale-256" ||
           name == "disagg-observed";
}

ServingWorkload
servingWorkload(const Options &opt)
{
    ServingWorkload w = opt.workload == "day-replicas" ? dayReplicas(opt)
                        : opt.workload == "scale-256"  ? scale256(opt)
                                                       : disaggObserved(opt);
    applySeed(w.config, opt.seed);
    return w;
}

// ---- one serving run --------------------------------------------------

/** Everything one serving run owns; members are declared so the
 * simulator dies before the cluster and sinks it points into. */
struct ServingRun
{
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<TraceRecorder> trace;
    std::unique_ptr<MetricsRegistry> registry;
    std::unique_ptr<ReqTraceRecorder> reqTrace;
    std::unique_ptr<ServingSimulator> sim;
};

/** The set-up a user pays before the first simulated step: cluster,
 * configuration (validated by the simulator's constructor) and the
 * simulator itself, plus the sinks when the workload attaches them. */
ServingRun
buildServing(const ServingWorkload &w, bool sinks, bool self_profile)
{
    ServingRun run;
    run.cluster = std::make_unique<Cluster>(Cluster::a100(w.nodes, 8));
    ServingConfig cfg = w.config;
    cfg.selfProfile = self_profile;
    if (sinks) {
        run.trace = std::make_unique<TraceRecorder>();
        run.registry = std::make_unique<MetricsRegistry>();
        run.reqTrace = std::make_unique<ReqTraceRecorder>();
        cfg.trace = run.trace.get();
        cfg.metricsRegistry = run.registry.get();
        cfg.reqTrace = run.reqTrace.get();
        if (cfg.snapshotInterval <= 0.0)
            cfg.snapshotInterval = 1.0;
    }
    run.sim = std::make_unique<ServingSimulator>(*run.cluster, cfg);
    return run;
}

/** Size of the trace the sinks wrote. */
struct SinkOutput
{
    std::size_t traceEvents = 0;
    double traceBytes = 0.0;
};

SinkOutput
writeSinks(const ServingRun &run, const std::string &dir,
           const std::string &stem)
{
    namespace fs = std::filesystem;
    const std::string trace_path = dir + "/" + stem + ".trace.json";
    const std::string metrics_path = dir + "/" + stem + ".metrics.jsonl";
    const std::string slo_path = dir + "/" + stem + ".slo.json";
    run.trace->writeFile(trace_path);
    std::ofstream(metrics_path, std::ios::trunc).close();
    run.registry->appendJsonlFile(metrics_path, stem);
    {
        std::ofstream slo(slo_path, std::ios::trunc);
        LAER_CHECK(slo.good(), "cannot write " << slo_path);
        run.reqTrace->writeSloJson(slo, stem);
    }
    SinkOutput out;
    out.traceEvents = run.trace->eventCount();
    out.traceBytes = static_cast<double>(fs::file_size(trace_path));
    return out;
}

/** Conservation of a drained run; "" when it holds. */
std::string
checkServing(const ServingRun &run, const ServingReport &r)
{
    std::ostringstream why;
    const std::int64_t failed = r.availability.requestsFailed;
    if (r.offered <= 0)
        why << "nothing offered; ";
    if (r.completed + failed != r.offered)
        why << "completed " << r.completed << " + failed " << failed
            << " != offered " << r.offered << "; ";
    for (int i = 0; i < run.sim->numEngines(); ++i)
        if (run.sim->engine(i).hasWork())
            why << "engine " << i << " still holds requests; ";
    if (!(r.elapsed > 0.0) || !std::isfinite(r.elapsed))
        why << "bad elapsed " << r.elapsed << "; ";
    if (run.reqTrace) {
        if (!run.reqTrace->violations().empty())
            why << "request attribution: "
                << run.reqTrace->violations().front() << "; ";
        if (run.reqTrace->liveCount() != 0)
            why << run.reqTrace->liveCount()
                << " sampled requests never retired; ";
    }
    return why.str();
}

std::string
servingDigest(const ServingReport &r)
{
    std::ostringstream d;
    d << "offered=" << r.offered << " completed=" << r.completed
      << " failed=" << r.availability.requestsFailed
      << " steps=" << r.steps << " retunes=" << r.retunes
      << " preemptions=" << r.preemptions << " migrated=" << r.migrated
      << " elapsed=" << exact(r.elapsed)
      << " ttft_p99=" << exact(r.ttftP99)
      << " goodput=" << exact(r.goodputTps);
    return d.str();
}

/** Times `reps` complete set-ups (at most one alive at a time) and
 * returns the last. */
template <typename Build>
auto
timedSetups(int reps, std::vector<double> &seconds, Build build)
{
    decltype(build()) kept;
    for (int k = 0; k < reps; ++k) {
        kept = {}; // tear down untimed
        const Clock::time_point t0 = Clock::now();
        auto fresh = build();
        seconds.push_back(secondsSince(t0));
        kept = std::move(fresh);
    }
    return kept;
}

/** The untraced repetition's JSON line. */
struct RepOutput
{
    std::string digest;
    std::string check;       //!< "" when every check passed
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    double completedOps = 0; //!< requests (training: sequences)
    double simSeconds = 0.0;
    double wallSeconds = 0.0;
    int steps = 0;
    std::vector<double> setupSeconds;
    std::vector<double> retuneMs;

    void print(const Options &opt) const
    {
        std::ostringstream o;
        o << "{\"kind\":\"rep\",\"workload\":\"" << opt.workload
          << "\",\"seed\":" << opt.seed
          << ",\"digest\":" << jsonString(digest)
          << ",\"check\":" << jsonString(check)
          << ",\"attempted\":" << attempted << ",\"failed\":" << failed
          << ",\"completed_ops\":" << jsonNumber(completedOps)
          << ",\"sim_s\":" << jsonNumber(simSeconds)
          << ",\"wall_s\":" << jsonNumber(wallSeconds)
          << ",\"steps\":" << steps << ",\"setup_s\":"
          << jsonNumber(quantile(setupSeconds, 0.5))
          << ",\"peak_rss_mb\":" << jsonNumber(peakRssMb())
          << ",\"retune_ms\":[";
        for (std::size_t i = 0; i < retuneMs.size(); ++i)
            o << (i ? "," : "") << jsonNumber(retuneMs[i]);
        o << "]}";
        std::cout << o.str() << "\n";
    }
};

RepOutput
servingRep(const Options &opt)
{
    const ServingWorkload w = servingWorkload(opt);
    RepOutput out;
    ServingRun run = timedSetups(kSetupReps, out.setupSeconds, [&] {
        return buildServing(w, w.observed, /*self_profile=*/false);
    });

    const Clock::time_point t0 = Clock::now();
    const ServingReport r = run.sim->run();
    if (w.observed)
        writeSinks(run, opt.outDir, opt.workload);
    out.wallSeconds = secondsSince(t0);

    out.check = checkServing(run, r);
    out.digest = servingDigest(r);
    out.attempted = r.offered;
    out.failed = out.check.empty() ? r.availability.requestsFailed
                                   : r.offered;
    out.completedOps = static_cast<double>(r.completed);
    out.simSeconds = r.elapsed;
    out.steps = r.steps;
    for (const RetuneWallSample &s : r.retuneWall)
        out.retuneMs.push_back(s.wallMs);
    return out;
}

// ---- one training run -------------------------------------------------

struct TrainingRun
{
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<TrainingSimulator> sim;
};

TrainingRun
buildTraining(const TrainingWorkload &w)
{
    TrainingRun run;
    run.cluster = std::make_unique<Cluster>(Cluster::a100(w.nodes, 8));
    run.sim = std::make_unique<TrainingSimulator>(*run.cluster, w.config);
    return run;
}

/** Sequences of seqLen tokens one iteration trains on. */
double
sequencesPerIteration(const SimulatorConfig &cfg)
{
    return static_cast<double>(cfg.globalBatchTokens) / cfg.seqLen;
}

RepOutput
trainingRep(const Options &opt)
{
    const TrainingWorkload w = train64(opt);
    RepOutput out;
    TrainingRun run = timedSetups(kSetupReps, out.setupSeconds,
                                  [&] { return buildTraining(w); });

    std::vector<IterationResult> results;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < w.iterations; ++i)
        results.push_back(run.sim->step());
    out.wallSeconds = secondsSince(t0);

    double time_sum = 0.0, a2a_sum = 0.0, imbalance_sum = 0.0;
    std::int64_t bad = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const IterationResult &it = results[i];
        if (!(it.time > 0.0) || !std::isfinite(it.time))
            ++bad;
        time_sum += it.time;
        a2a_sum += it.a2a;
        imbalance_sum += it.maxRelTokens;
        if (i > 0) // iteration 0 has no previous routing to tune from
            out.retuneMs.push_back(1e3 * it.plannerWall);
    }
    std::ostringstream d;
    d << "iterations=" << results.size() << " time_sum="
      << exact(time_sum) << " a2a_sum=" << exact(a2a_sum)
      << " imbalance_sum=" << exact(imbalance_sum);
    out.digest = d.str();
    if (bad > 0)
        out.check = std::to_string(bad) + " iterations without a time";
    out.attempted = w.iterations;
    out.failed = out.check.empty() ? 0 : w.iterations;
    out.completedOps = sequencesPerIteration(w.config) *
                       static_cast<double>(w.iterations - bad);
    out.simSeconds = time_sum;
    out.steps = w.iterations;
    return out;
}

// ---- traced run: layer replays ----------------------------------------

/** The shape a workload gives the layers below its step loop. */
struct Shape
{
    int nodes = 1;            //!< pool = Cluster::a100(nodes, 8)
    ModelConfig model;
    int capacity = 2;
    int layers = 1;
    TokenCount stepTokens = 1; //!< tokens per step over the pool
    Seconds stepTime = 0.01;   //!< simulated seconds per step
    int retunePeriod = 1;      //!< steps aggregated per retune
    bool training = false;     //!< draws via next(), not nextForTokens()
    RoutingModel routing;
    TunerConfig tuner;
    BatcherConfig batcher;     //!< resolved for one pool
    ArrivalConfig arrival;
    std::uint64_t seed = 1;
};

/** Per-layer numbers, printed by name. */
using LayerMetrics = std::vector<std::pair<std::string, double>>;

RoutingGenerator
shapeGenerator(const Shape &s, int devices)
{
    RoutingModel rm = s.routing;
    rm.numDevices = devices;
    rm.numExperts = s.model.numExperts;
    rm.topK = s.model.topK;
    rm.tokensPerDevice =
        std::max<TokenCount>(1, s.stepTokens / devices);
    rm.seed = s.seed;
    return RoutingGenerator(rm);
}

/** One step's gating at the shape (untimed unless `log` is set). */
RoutingMatrix
drawStep(const Shape &s, RoutingGenerator &gen, int devices,
         SpanLog *log)
{
    if (s.training) {
        Scoped span(log, "trace.draw");
        return gen.next();
    }
    std::vector<TokenCount> share(static_cast<std::size_t>(devices),
                                  s.stepTokens / devices);
    for (TokenCount i = 0; i < s.stepTokens % devices; ++i)
        share[static_cast<std::size_t>(i)] += 1;
    Scoped span(log, "trace.draw");
    return gen.nextForTokens(share);
}

TunerConfig
shapeTuner(const Shape &s)
{
    TunerConfig tc = s.tuner;
    tc.capacity = s.capacity;
    tc.buildPlan = false;
    tc.cost.commBytesPerToken = s.model.tokenBytes();
    tc.cost.compFlopsPerToken = s.model.expertFlopsPerToken();
    tc.pool = nullptr;
    return tc;
}

/** Replay counts: enough samples for a p90 with ten beyond it. */
struct ReplayCounts
{
    int draws = 400;
    int tunes = 100;
    int routes = 400;
    int timelines = 200;
    int batches = 2000;
    int iterations = 6;
    int microbatches = 6;
};

void
replayDrawTuneRoute(const Shape &s, const ReplayCounts &n, SpanLog &log,
                    LayerMetrics &m, ExpertLayout &layout_out)
{
    const Cluster pool = Cluster::a100(s.nodes, 8);
    const int devices = pool.numDevices();
    RoutingGenerator gen = shapeGenerator(s, devices);

    {
        Scoped replay(&log, "replay.draw");
        for (int i = 0; i < n.draws; ++i)
            drawStep(s, gen, devices, &log);
    }
    const std::vector<double> draws = log.durationsUs("trace.draw");
    m.emplace_back("trace.draw_calls", static_cast<double>(draws.size()));
    m.emplace_back("trace.draw_us_p50", quantile(draws, 0.5));

    const TunerConfig tc = shapeTuner(s);
    ExpertLayout previous;
    int changes = 0;
    {
        Scoped replay(&log, "replay.tune");
        for (int i = 0; i < n.tunes; ++i) {
            RoutingMatrix agg(devices, s.model.numExperts);
            for (int k = 0; k < s.retunePeriod; ++k) {
                const RoutingMatrix r = drawStep(s, gen, devices, nullptr);
                for (DeviceId d = 0; d < devices; ++d)
                    for (ExpertId e = 0; e < s.model.numExperts; ++e)
                        agg.at(d, e) += r.at(d, e);
            }
            ExpertLayout layout;
            {
                Scoped span(&log, "planner.tune");
                layout = tuneExpertLayout(pool, agg, tc).layout;
            }
            if (i > 0 && !(layout == previous))
                ++changes;
            previous = std::move(layout);
        }
    }
    const std::vector<double> tunes = log.durationsUs("planner.tune");
    std::vector<double> tune_ms;
    for (const double us : tunes)
        tune_ms.push_back(us / 1e3);
    m.emplace_back("planner.tune_calls", static_cast<double>(tunes.size()));
    m.emplace_back("planner.tune_ms_p50", quantile(tune_ms, 0.5));
    m.emplace_back("planner.tune_ms_p90", quantile(tune_ms, 0.9));
    m.emplace_back("planner.layout_change_ratio",
          n.tunes > 1 ? static_cast<double>(changes) / (n.tunes - 1)
                      : 0.0);

    const ReplicaIndex index(pool, previous);
    RoutingPlanSparse plan;
    A2aPortLoads loads;
    double nnz = 0.0;
    {
        Scoped replay(&log, "replay.route");
        for (int i = 0; i < n.routes; ++i) {
            const RoutingMatrix r = drawStep(s, gen, devices, nullptr);
            Scoped span(&log, "planner.route");
            liteRoutingSparse(pool, r, index, plan);
            plan.portLoads(pool, s.model.tokenBytes(), loads);
            const Seconds t = a2aBottleneckTimeFromLoads(pool, loads) +
                              a2aBottleneckTimeFromLoads(pool, loads,
                                                         /*transpose=*/true);
            LAER_CHECK(std::isfinite(t), "non-finite route price");
            nnz += static_cast<double>(plan.nnz());
        }
    }
    m.emplace_back("planner.route_us_p50",
          quantile(log.durationsUs("planner.route"), 0.5));
    m.emplace_back("planner.route_nnz_mean",
                   n.routes > 0 ? nnz / n.routes : 0.0);
    layout_out = previous;
}

/** The serving step's forward timeline (attention -> dispatch barrier
 * -> expert FFN -> combine barrier, per layer) built on SimEngine the
 * way ServingEngine::executeStep lays it out. */
void
replayTimeline(const Shape &s, const ExpertLayout &layout,
               const ReplayCounts &n, SpanLog &log, LayerMetrics &m)
{
    const Cluster pool = Cluster::a100(s.nodes, 8);
    const int devices = pool.numDevices();
    RoutingGenerator gen = shapeGenerator(s, devices);
    const ReplicaIndex index(pool, layout);
    const Seconds attn_dur =
        static_cast<double>(s.stepTokens) *
        s.model.attnFlopsPerToken(1024) / devices / pool.computeFlops();
    RoutingPlanSparse plan;
    A2aPortLoads loads;
    int tasks = 0;
    Scoped replay(&log, "replay.timeline");
    for (int i = 0; i < n.timelines; ++i) {
        std::vector<std::vector<TokenCount>> recv(
            static_cast<std::size_t>(s.layers));
        std::vector<Seconds> disp(recv.size()), comb(recv.size());
        for (std::size_t l = 0; l < recv.size(); ++l) {
            const RoutingMatrix r = drawStep(s, gen, devices, nullptr);
            liteRoutingSparse(pool, r, index, plan);
            plan.portLoads(pool, s.model.tokenBytes(), loads);
            disp[l] = kCollectiveAlpha +
                      a2aBottleneckTimeFromLoads(pool, loads);
            comb[l] = kCollectiveAlpha +
                      a2aBottleneckTimeFromLoads(pool, loads, true);
            plan.receivedTokens(recv[l]);
        }
        Scoped span(&log, "sim.timeline");
        SimEngine eng(devices);
        std::vector<TaskId> prev(static_cast<std::size_t>(devices), -1);
        for (std::size_t l = 0; l < recv.size(); ++l) {
            std::vector<TaskId> attn(prev.size()), dispatch(prev.size()),
                expert(prev.size());
            for (DeviceId d = 0; d < devices; ++d) {
                const std::vector<TaskId> deps =
                    prev[d] < 0 ? std::vector<TaskId>{}
                                : std::vector<TaskId>{prev[d]};
                attn[d] = eng.addTask("attn", d, StreamKind::Compute,
                                      attn_dur, deps, "attn");
            }
            for (DeviceId d = 0; d < devices; ++d)
                dispatch[d] = eng.addTask("dispatch", d,
                                          StreamKind::Dispatch, disp[l],
                                          attn, "a2a");
            for (DeviceId d = 0; d < devices; ++d)
                expert[d] = eng.addTask(
                    "expert", d, StreamKind::Compute,
                    static_cast<double>(recv[l][d]) *
                        s.model.expertFlopsPerToken() /
                        pool.computeFlops(),
                    {dispatch[d]}, "expert");
            for (DeviceId d = 0; d < devices; ++d)
                prev[d] = eng.addTask("combine", d, StreamKind::Dispatch,
                                      comb[l], expert, "a2a");
        }
        eng.run();
        LAER_CHECK(eng.makespan() > 0.0, "empty step timeline");
        eng.categoryBusyPerDevice();
        tasks = eng.taskCount();
    }
    m.emplace_back("sim.timeline_us_p50",
          quantile(log.durationsUs("sim.timeline"), 0.5));
    m.emplace_back("sim.tasks_per_step", tasks);
}

/** ContinuousBatcher::nextBatch on the workload's arrival stream and
 * resolved batcher configuration, committing each plan one mean step
 * later. */
void
replayBatcher(const Shape &s, const ReplayCounts &n, SpanLog &log,
              LayerMetrics &m)
{
    ContinuousBatcher batcher(s.batcher);
    ArrivalProcess arrivals(s.arrival);
    Request next = arrivals.next();
    Seconds now = 0.0;
    Scoped replay(&log, "replay.batch");
    for (int i = 0; i < n.batches; ++i) {
        while (next.arrival <= now) {
            batcher.enqueue(next);
            next = arrivals.next();
        }
        BatchPlan plan;
        {
            Scoped span(&log, "serve.batch");
            plan = batcher.nextBatch();
        }
        if (plan.empty()) {
            now = std::max(now + s.stepTime, next.arrival);
            continue;
        }
        now += s.stepTime;
        batcher.applyStep(plan, now);
        batcher.takeFinished();
        batcher.takePreempted();
        batcher.takeSwapOutBytes();
        batcher.takeSwapInBytes();
    }
    m.emplace_back("serve.batch_us_p50",
          quantile(log.durationsUs("serve.batch"), 0.5));
}

SimulatorConfig
trainingAtShape(const Shape &s)
{
    SimulatorConfig cfg;
    cfg.model = s.model;
    cfg.system = SystemKind::Laer;
    cfg.capacity = s.capacity;
    cfg.simulatedLayers = s.layers;
    const int devices = 8 * s.nodes;
    cfg.tokensPerDevice = std::max<TokenCount>(64, s.stepTokens / devices);
    cfg.globalBatchTokens = cfg.tokensPerDevice * devices;
    cfg.seqLen = static_cast<int>(std::min<TokenCount>(
        8192, cfg.tokensPerDevice));
    cfg.routing = s.routing;
    cfg.seed = s.seed;
    return cfg;
}

/** TrainingSimulator::step and simulateMicroBatch at the shape;
 * `iterations` spans already logged by the caller are reused. */
void
runtimeMetrics(const Shape &s, const SimulatorConfig &cfg,
               const ExpertLayout &layout, const ReplayCounts &n,
               double planner_s, SpanLog &log, LayerMetrics &m)
{
    std::vector<double> iter_ms;
    for (const double us : log.durationsUs("runtime.iter"))
        iter_ms.push_back(us / 1e3);
    double iter_s = 0.0;
    for (const double ms : iter_ms)
        iter_s += ms / 1e3;
    m.emplace_back("runtime.iter_ms_p50", quantile(iter_ms, 0.5));
    m.emplace_back("runtime.iter_ms_p90", quantile(iter_ms, 0.9));
    m.emplace_back("runtime.planner_share",
                   iter_s > 0.0 ? planner_s / iter_s : 0.0);

    const Cluster pool = Cluster::a100(s.nodes, 8);
    RoutingModel rm = cfg.routing;
    rm.numDevices = pool.numDevices();
    rm.numExperts = cfg.model.numExperts;
    rm.topK = cfg.model.topK;
    rm.tokensPerDevice = cfg.tokensPerDevice;
    rm.seed = s.seed + 17;
    RoutingGenerator gen(rm);
    std::vector<RoutingPlan> plans;
    for (int l = 0; l < cfg.simulatedLayers; ++l)
        plans.push_back(liteRouting(pool, gen.next(), layout));
    IterationSpec spec;
    spec.model = &cfg.model;
    spec.system = cfg.system;
    spec.seqLen = cfg.seqLen;
    spec.tokensPerDevice = cfg.tokensPerDevice;
    spec.tpDegree = cfg.tpDegree;
    spec.capacityHint = cfg.capacity;
    for (const RoutingPlan &p : plans)
        spec.layerPlans.push_back(&p);
    {
        Scoped replay(&log, "replay.microbatch");
        for (int i = 0; i < n.microbatches; ++i) {
            Scoped span(&log, "runtime.microbatch");
            const MicroBatchResult r = simulateMicroBatch(pool, spec);
            LAER_CHECK(r.makespan > 0.0, "empty micro-batch timeline");
        }
    }
    std::vector<double> micro_ms;
    for (const double us : log.durationsUs("runtime.microbatch"))
        micro_ms.push_back(us / 1e3);
    m.emplace_back("runtime.microbatch_ms_p50", quantile(micro_ms, 0.5));
}

/** TrainingSimulator::step spans; returns the summed planner wall. */
double
tracedTrainingLoop(const Cluster &cluster, const SimulatorConfig &cfg,
                   int iterations, SpanLog &log)
{
    TrainingSimulator sim(cluster, cfg);
    double planner_s = 0.0;
    for (int i = 0; i < iterations; ++i) {
        IterationResult r;
        {
            Scoped span(&log, "runtime.iter");
            r = sim.step();
        }
        planner_s += r.plannerWall;
    }
    return planner_s;
}

/** What the traced serve loop hands the layer replays. */
struct ServeTrace
{
    ServingReport report;
    double wallSeconds = 0.0;
    int poolDevices = 0;
    BatcherConfig batcher;
};

/** The serve step loop with a span per ServingSimulator::step() and the
 * program's own selfProfile on, then the sinks-on/sinks-off pair that
 * prices observability. */
ServeTrace
tracedServing(const ServingWorkload &w, const Options &opt, SpanLog &log,
              LayerMetrics &m)
{
    ServeTrace out;
    ServingRun run;
    {
        Scoped span(&log, "setup");
        run = buildServing(w, w.observed, /*self_profile=*/true);
    }
    {
        const Clock::time_point t0 = Clock::now();
        Scoped span(&log, "serve.run");
        bool more = true;
        while (more) {
            Scoped step(&log, "serve.step");
            more = run.sim->step();
        }
        out.report = run.sim->finish();
        if (w.observed) {
            Scoped write(&log, "obs.write");
            writeSinks(run, opt.outDir, opt.workload + ".traced");
        }
        out.wallSeconds = secondsSince(t0);
    }
    const std::string check = checkServing(run, out.report);
    LAER_CHECK(check.empty(), "traced run failed its checks: " << check);
    out.poolDevices = run.sim->engine(0).slice().numDevices();
    out.batcher = run.sim->engine(0).batcher().config();

    const ServingReport &r = out.report;
    std::vector<double> steps = log.durationsUs("serve.step");
    const double offered = static_cast<double>(std::max<std::int64_t>(
        1, r.offered));
    m.emplace_back("serve.step_calls", static_cast<double>(steps.size()));
    m.emplace_back("serve.step_us_p50", quantile(steps, 0.5));
    m.emplace_back("serve.step_us_p99", quantile(steps, 0.99));
    m.emplace_back("serve.completed_ratio",
                   static_cast<double>(r.completed) / offered);
    m.emplace_back("serve.preempt_ratio",
                   static_cast<double>(r.preemptions) / offered);
    m.emplace_back("serve.migrated", static_cast<double>(r.migrated));
    m.emplace_back("serve.kv_transfer_mb",
          static_cast<double>(r.kvTransferBytes) / (1 << 20));
    m.emplace_back("serve.prof_pricing_ms", r.profStepPricingMs);
    m.emplace_back("serve.prof_retune_ms", r.profRetuneMs);
    m.emplace_back("serve.prof_loop_ms", r.profEventLoopMs);

    // Observability priced as the same plain run() with every sink
    // attached over without any.
    double with_s = 0.0, without_s = 0.0;
    SinkOutput sinks;
    {
        Scoped span(&log, "obs.with_sinks");
        ServingRun on = buildServing(w, /*sinks=*/true, false);
        const Clock::time_point t0 = Clock::now();
        on.sim->run();
        {
            Scoped write(&log, "obs.write_sinks");
            sinks = writeSinks(on, opt.outDir, opt.workload + ".sinks");
        }
        with_s = secondsSince(t0);
    }
    {
        Scoped span(&log, "obs.without_sinks");
        ServingRun off = buildServing(w, /*sinks=*/false, false);
        const Clock::time_point t0 = Clock::now();
        off.sim->run();
        without_s = secondsSince(t0);
    }
    m.emplace_back("obs.overhead_ratio", with_s / without_s);
    m.emplace_back("obs.trace_events", static_cast<double>(sinks.traceEvents));
    m.emplace_back("obs.trace_mb", sinks.traceBytes / (1 << 20));
    m.emplace_back("obs.write_ms", log.totalUs("obs.write_sinks") / 1e3);
    return out;
}

Shape
servingShape(const ServingWorkload &w, const ServeTrace &t)
{
    Shape s;
    s.nodes = t.poolDevices / 8;
    s.model = w.config.model;
    s.capacity = w.config.capacity;
    s.layers = w.config.simulatedLayers;
    s.stepTokens = std::max<TokenCount>(
        1, static_cast<TokenCount>(std::llround(t.report.meanBatchTokens)));
    s.stepTime = t.report.meanStepTime;
    s.retunePeriod = w.config.retunePeriod;
    s.routing = w.config.routing;
    s.tuner = w.config.tuner;
    s.batcher = t.batcher;
    s.arrival = w.config.arrival;
    // A replica engine sees its share of the cluster's arrivals.
    if (w.config.replicas.replicaDevices > 0)
        s.arrival.ratePerSec *= static_cast<double>(t.poolDevices) /
                                (8.0 * w.nodes);
    s.seed = w.config.seed;
    return s;
}

/** The serving layers at the training shape: one whole-cluster
 * LaerServe engine on train-64's devices, model, layers and retune
 * cadence, fed Poisson arrivals. */
ServingWorkload
servingAtTrainingShape(const TrainingWorkload &t, const Options &opt)
{
    ServingWorkload w;
    w.nodes = t.nodes;
    ServingConfig &cfg = w.config;
    cfg.model = t.config.model;
    cfg.policy = ServingPolicy::LaerServe;
    cfg.capacity = t.config.capacity;
    cfg.simulatedLayers = t.config.simulatedLayers;
    cfg.retunePeriod = 1;
    cfg.horizon = opt.tiny ? 0.2 : 1.0;
    cfg.arrival.ratePerSec = 40.0;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.batcher.tokenBudget = 16384;
    cfg.routing = t.config.routing;
    cfg.tuner.fastScoring = true;
    applySeed(cfg, opt.seed);
    return w;
}

void
tracedRun(const Options &opt)
{
    SpanLog log;
    LayerMetrics m;
    ReplayCounts n;
    if (opt.tiny)
        n = ReplayCounts{20, 10, 20, 10, 100, 2, 2};
    Shape shape;
    double main_wall = 0.0;
    int root = log.begin("run");
    if (isServing(opt.workload)) {
        const ServingWorkload w = servingWorkload(opt);
        const ServeTrace t = tracedServing(w, opt, log, m);
        main_wall = t.wallSeconds;
        shape = servingShape(w, t);
        replayBatcher(shape, n, log, m);
        ExpertLayout layout;
        replayDrawTuneRoute(shape, n, log, m, layout);
        replayTimeline(shape, layout, n, log, m);
        const SimulatorConfig train = trainingAtShape(shape);
        double planner_s = 0.0;
        {
            Scoped replay(&log, "replay.iter");
            const Cluster pool = Cluster::a100(shape.nodes, 8);
            planner_s = tracedTrainingLoop(pool, train, n.iterations, log);
        }
        runtimeMetrics(shape, train, layout, n, planner_s, log, m);
    } else {
        const TrainingWorkload w = train64(opt);
        double planner_s = 0.0;
        {
            const Clock::time_point t0 = Clock::now();
            Scoped span(&log, "train.run");
            const Cluster cluster = Cluster::a100(w.nodes, 8);
            planner_s = tracedTrainingLoop(cluster, w.config, w.iterations,
                                           log);
            main_wall = secondsSince(t0);
        }
        shape.nodes = w.nodes;
        shape.model = w.config.model;
        shape.capacity = w.config.capacity;
        shape.layers = w.config.simulatedLayers;
        shape.stepTokens = w.config.tokensPerDevice * 8 * w.nodes;
        shape.retunePeriod = 1;
        shape.training = true;
        shape.routing = w.config.routing;
        shape.seed = w.config.seed;

        // Serve layers: train-64 never calls them, so they are measured
        // on a serving replay at its shape (README).
        const ServingWorkload serve = servingAtTrainingShape(w, opt);
        const ServeTrace t = tracedServing(serve, opt, log, m);
        const Shape serve_shape = servingShape(serve, t);
        replayBatcher(serve_shape, n, log, m);

        ExpertLayout layout;
        replayDrawTuneRoute(shape, n, log, m, layout);
        replayTimeline(shape, layout, n, log, m);
        runtimeMetrics(shape, w.config, layout, n, planner_s, log, m);
    }
    log.end(root);

    const std::string run_id = opt.workload + "-" +
                               std::to_string(opt.seed) + "-" +
                               std::to_string(getpid());
    const std::string spans_path =
        opt.outDir + "/" + opt.workload + ".spans.jsonl";
    log.write(spans_path, run_id);

    std::ostringstream o;
    o << "{\"kind\":\"traced\",\"workload\":\"" << opt.workload
      << "\",\"run_id\":\"" << run_id << "\",\"spans\":\"" << spans_path
      << "\",\"traced_wall_s\":" << jsonNumber(main_wall)
      << ",\"layers\":{";
    for (std::size_t i = 0; i < m.size(); ++i)
        o << (i ? "," : "") << "\"" << m[i].first
          << "\":" << jsonNumber(m[i].second);
    o << "}}";
    std::cout << o.str() << "\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    const CliArgs args(argc, argv,
                       {"workload", "seed", "tiny", "out-dir", "traced",
                        "fingerprint"});
    if (args.has("fingerprint")) {
        std::cout << "{\"compiler\":\"" << LAER_BENCH_COMPILER
                  << "\",\"build_type\":\"" << LAER_BENCH_BUILD_TYPE
                  << "\"}\n";
        return 0;
    }
    Options opt;
    opt.workload = args.get("workload");
    opt.seed = args.getUint("seed", 1);
    opt.tiny = args.has("tiny");
    opt.outDir = args.get("out-dir", ".");
    LAER_CHECK(isServing(opt.workload) || opt.workload == "train-64",
               "unknown workload '" << opt.workload << "'");
    std::filesystem::create_directories(opt.outDir);

    if (args.has("traced")) {
        tracedRun(opt);
        return 0;
    }
    const RepOutput rep =
        isServing(opt.workload) ? servingRep(opt) : trainingRep(opt);
    rep.print(opt);
    return rep.check.empty() ? 0 : 1;
} catch (const laer::FatalError &err) {
    std::cerr << "laer_perfbench: " << err.what() << "\n";
    return 2;
}
