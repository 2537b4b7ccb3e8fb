#include "difftest/scenario_gen.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "model/config.hh"
#include "serve/batcher.hh"

namespace laer
{

namespace
{

/** Synthetic KV sizing is in token units (1 B/token): the floor any
 * budget must clear so a single request's full context always fits
 * the pool — ContinuousBatcher::enqueue's validity requirement —
 * even after a disaggregated run halves the budget per pool. */
constexpr TokenCount kKvFloorContexts = 96;

TokenCount
meanFullContext(const ArrivalConfig &arrival)
{
    return arrival.meanPrefillTokens + arrival.meanDecodeTokens;
}

/** Every expert must fit the smallest pool the scenario can create
 * (half the cluster under Disaggregated). */
bool
feasible(const Scenario &s)
{
    const int devices = s.nodes * s.devicesPerNode;
    const int experts = s.serving.model.numExperts;
    if (devices < 2 || s.serving.capacity * devices < experts)
        return false;
    // A shrunk topology must still hold every engine the fault plan
    // targets (expandFaultPlan() refuses a target outside the run; the
    // generated link events target 0).
    const int replica = s.serving.replicas.replicaDevices;
    const int engines =
        s.serving.policy == ServingPolicy::Disaggregated ? 2
        : replica > 0                                    ? devices / replica
                                                         : 1;
    for (const FaultEvent &e : s.serving.faults.events)
        if (e.target >= engines)
            return false;
    if (s.serving.policy == ServingPolicy::Disaggregated)
        return devices >= 4 && devices % 2 == 0 &&
               s.serving.capacity * (devices / 2) >= experts;
    return true;
}

const char *
kvRegime(const Scenario &s)
{
    if (s.serving.batcher.kvBudgetBytes == 0)
        return "off";
    const Bytes floor =
        kKvFloorContexts * meanFullContext(s.serving.arrival);
    return s.serving.batcher.kvBudgetBytes >= 16 * floor ? "ample"
                                                         : "tight";
}

} // namespace

std::string
Scenario::describe() const
{
    std::ostringstream os;
    os << "seed=" << seed << " cluster=" << nodes << "x"
       << devicesPerNode
       << " policy=" << servingPolicyName(serving.policy)
       << " arrival=" << arrivalKindName(serving.arrival.kind) << "@"
       << serving.arrival.ratePerSec << "/s"
       << " prefill~" << serving.arrival.meanPrefillTokens
       << " decode~" << serving.arrival.meanDecodeTokens
       << " classes=" << serving.arrival.numSloClasses
       << " kv=" << kvRegime(*this) << "("
       << serving.batcher.kvBudgetBytes << "B)"
       << " horizon=" << serving.horizon << "s"
       << " layers=" << serving.simulatedLayers
       << " retune=" << serving.retunePeriod
       << " capacity=" << serving.capacity;
    if (serving.replicas.initialReplicas > 0)
        os << " replicas=" << serving.replicas.initialReplicas << "x"
           << serving.replicas.replicaDevices;
    if (serving.faults.enabled())
        os << " faults=" << serving.faults.events.size()
           << (serving.faults.mtbf > 0.0 ? "+mtbf" : "");
    return os.str();
}

void
Scenario::writeJson(std::ostream &os) const
{
    os << "{\"seed\":" << seed << ",\"nodes\":" << nodes
       << ",\"devices_per_node\":" << devicesPerNode << ",\"policy\":\""
       << servingPolicyName(serving.policy) << "\",\"arrival\":\""
       << arrivalKindName(serving.arrival.kind)
       << "\",\"rate_per_s\":" << serving.arrival.ratePerSec
       << ",\"mean_prefill\":" << serving.arrival.meanPrefillTokens
       << ",\"mean_decode\":" << serving.arrival.meanDecodeTokens
       << ",\"slo_classes\":" << serving.arrival.numSloClasses
       << ",\"kv_budget_bytes\":" << serving.batcher.kvBudgetBytes
       << ",\"kv_regime\":\"" << kvRegime(*this)
       << "\",\"horizon_s\":" << serving.horizon
       << ",\"layers\":" << serving.simulatedLayers
       << ",\"retune_period\":" << serving.retunePeriod
       << ",\"capacity\":" << serving.capacity
       << ",\"token_budget\":" << serving.batcher.tokenBudget
       << ",\"control_interval_s\":" << controlInterval
       << ",\"replicas\":" << serving.replicas.initialReplicas
       << ",\"replica_devices\":" << serving.replicas.replicaDevices
       << ",\"fault_events\":" << serving.faults.events.size()
       << ",\"fault_mtbf_s\":" << serving.faults.mtbf << "}";
}

Scenario
generateScenario(std::uint64_t seed)
{
    Rng rng(seed);
    Scenario s;
    s.seed = seed;

    // Cluster shape: small enough to replay in well under a second,
    // big enough that placement and the sparse hot path matter.
    s.nodes = rng.uniform() < 0.5 ? 1 : 2;
    s.devicesPerNode = rng.uniform() < 0.5 ? 2 : 4;
    if (s.nodes * s.devicesPerNode < 4)
        s.devicesPerNode = 4;
    const int devices = s.nodes * s.devicesPerNode;

    ServingConfig &cfg = s.serving;
    cfg.model = mixtral8x7bE8K2();
    const int experts = cfg.model.numExperts;
    // Capacity such that every expert fits half the cluster: the
    // tightest pool any lane or split can create.
    const int min_capacity = (2 * experts + devices - 1) / devices;
    cfg.capacity = min_capacity + rng.uniformInt(0, 1);
    cfg.simulatedLayers = rng.uniformInt(1, 3);
    cfg.retunePeriod = rng.uniformInt(4, 32);
    cfg.horizon = rng.uniform(1.5, 3.0);
    cfg.sloTtft = rng.uniform(0.3, 0.8);
    cfg.seed = rng.nextU64();
    cfg.threads = 1;

    // Expert-placement policy; Disaggregated splits half/half, which
    // the cluster envelope keeps node-regular and expert-feasible.
    const double policy_draw = rng.uniform();
    if (policy_draw < 0.35)
        cfg.policy = ServingPolicy::LaerServe;
    else if (policy_draw < 0.55)
        cfg.policy = ServingPolicy::StaticEp;
    else if (policy_draw < 0.75)
        cfg.policy = ServingPolicy::FlexMoe;
    else
        cfg.policy = ServingPolicy::Disaggregated;
    // StaticEP shards experts evenly: capacity must divide E.
    if (cfg.policy == ServingPolicy::StaticEp)
        while (experts % cfg.capacity != 0)
            ++cfg.capacity;

    // Arrival process and request shapes.
    const double arrival_draw = rng.uniform();
    cfg.arrival.kind = arrival_draw < 0.4 ? ArrivalKind::Poisson
                       : arrival_draw < 0.7 ? ArrivalKind::Bursty
                                            : ArrivalKind::Diurnal;
    cfg.arrival.ratePerSec = rng.uniform(4.0, 24.0);
    cfg.arrival.diurnalPeriod = rng.uniform(1.0, 3.0);
    cfg.arrival.meanPrefillTokens = rng.uniformInt(64, 320);
    cfg.arrival.meanDecodeTokens = rng.uniformInt(8, 48);
    cfg.arrival.numSloClasses = rng.uniformInt(1, 3);
    cfg.arrival.seed = rng.nextU64();
    cfg.batcher.numSloClasses = cfg.arrival.numSloClasses;
    cfg.batcher.tokenBudget = 1024 << rng.uniformInt(1, 3);
    cfg.batcher.prefillChunk = 128 << rng.uniformInt(0, 2);

    // KV budget: off, ample, or tight enough to drive preemptions.
    // Synthetic byte pool (1 B/token) so the pressure knob is
    // independent of the model's real KV geometry.
    const double kv_draw = rng.uniform();
    if (kv_draw >= 0.4) {
        const Bytes floor =
            kKvFloorContexts * meanFullContext(cfg.arrival);
        cfg.batcher.kvBytesPerToken = 1;
        cfg.batcher.kvBlockTokens = rng.uniform() < 0.5 ? 1 : 16;
        cfg.batcher.kvBudgetBytes =
            kv_draw < 0.7
                ? floor + rng.uniformInt(0, 8) *
                              meanFullContext(cfg.arrival) // tight
                : 4096 * floor;                            // ample
        cfg.batcher.preemptionMode = PreemptionMode::Recompute;
    }

    // Routing drift/skew of the simulated gate.
    cfg.routing.skew = rng.uniform(0.8, 1.6);
    cfg.routing.drift = rng.uniform(0.9, 0.99);
    cfg.routing.deviceJitter = rng.uniform(0.05, 0.25);

    s.controlInterval = rng.uniform(0.25, 1.0);
    s.snapshotInterval = 0.25;

    // Replica topologies, drawn natively (~35% of LaerServe
    // scenarios): two half-cluster slices, so failover and the
    // replica-aware lanes exercise multi-engine runs without a lane
    // prepare() override. The capacity envelope above already
    // guarantees every expert fits a half-cluster pool.
    if (cfg.policy == ServingPolicy::LaerServe &&
        rng.uniform() < 0.35) {
        cfg.replicas.replicaDevices = devices / 2;
        cfg.replicas.initialReplicas = 2;
    }

    // Optional fault plan (~25% of the scenarios that can survive
    // one): a mid-run fail-stop with a scripted repair on replica
    // topologies; under Disaggregated either a boundary-link flap or
    // a fail-stop plus repair of a uniformly drawn pool. Every plan
    // heals well before the horizon, so the equivalence lanes compare
    // recovered runs, not wedged ones.
    const bool replicated = cfg.replicas.initialReplicas >= 2;
    if ((replicated || cfg.policy == ServingPolicy::Disaggregated) &&
        rng.uniform() < 0.25) {
        const Seconds down = rng.uniform(0.25, 0.45) * cfg.horizon;
        const Seconds up =
            down + rng.uniform(0.15, 0.30) * cfg.horizon;
        if (replicated || rng.uniform() < 0.5) {
            const int victim = replicated ? 1 : rng.uniformInt(0, 1);
            cfg.faults.events.push_back(
                {down, FaultKind::ReplicaFail, victim, 1.0});
            cfg.faults.events.push_back(
                {up, FaultKind::ReplicaRepair, victim, 1.0});
        } else {
            cfg.faults.events.push_back(
                {down, FaultKind::LinkDown, 0, 1.0});
            cfg.faults.events.push_back(
                {up, FaultKind::LinkUp, 0, 1.0});
        }
        cfg.faults.backoffBase = 0.02;
        cfg.faults.retryBudget = 4;
    }
    return s;
}

ShrinkOutcome
shrinkScenario(const Scenario &failing,
               const std::function<bool(const Scenario &)> &still_fails,
               int max_attempts)
{
    // Each op proposes one knob reduction; nullopt-style no-ops are
    // signalled by returning the input unchanged. Ops run in passes;
    // numeric ops halve toward their floor, so repeated passes bisect.
    using Op = std::function<Scenario(const Scenario &)>;
    const std::vector<Op> ops = {
        [](Scenario s) {
            s.serving.horizon = std::max(0.5, s.serving.horizon / 2);
            return s;
        },
        [](Scenario s) {
            s.serving.arrival.ratePerSec =
                std::max(2.0, s.serving.arrival.ratePerSec / 2);
            return s;
        },
        [](Scenario s) {
            s.serving.arrival.meanPrefillTokens = std::max<TokenCount>(
                32, s.serving.arrival.meanPrefillTokens / 2);
            return s;
        },
        [](Scenario s) {
            s.serving.arrival.meanDecodeTokens = std::max<TokenCount>(
                4, s.serving.arrival.meanDecodeTokens / 2);
            return s;
        },
        [](Scenario s) {
            s.serving.simulatedLayers = 1;
            return s;
        },
        [](Scenario s) {
            s.serving.arrival.numSloClasses = 1;
            s.serving.batcher.numSloClasses = 1;
            return s;
        },
        [](Scenario s) {
            s.serving.arrival.kind = ArrivalKind::Poisson;
            return s;
        },
        [](Scenario s) {
            s.serving.hbmPerDevice = 0;
            s.serving.batcher.kvBudgetBytes = 0;
            return s;
        },
        [](Scenario s) {
            s.serving.faults = FaultConfig();
            return s;
        },
        [](Scenario s) {
            s.serving.replicas = ReplicaConfig();
            return s;
        },
        [](Scenario s) {
            if (s.serving.policy != ServingPolicy::Disaggregated)
                s.serving.policy = ServingPolicy::LaerServe;
            return s;
        },
        [](Scenario s) {
            s.serving.retunePeriod = std::min(s.serving.retunePeriod, 8);
            return s;
        },
        [](Scenario s) {
            s.nodes = 1;
            return s;
        },
        [](Scenario s) {
            s.devicesPerNode = s.nodes * s.devicesPerNode >= 8
                                   ? s.devicesPerNode
                                   : s.devicesPerNode;
            if (s.nodes * 2 * s.serving.capacity >=
                2 * s.serving.model.numExperts)
                s.devicesPerNode = 2;
            return s;
        },
    };

    ShrinkOutcome outcome;
    outcome.scenario = failing;
    bool reduced = true;
    while (reduced && outcome.attempts < max_attempts) {
        reduced = false;
        for (const Op &op : ops) {
            if (outcome.attempts >= max_attempts)
                break;
            const Scenario candidate = op(outcome.scenario);
            if (candidate.describe() == outcome.scenario.describe())
                continue; // no-op on the current scenario
            if (!feasible(candidate))
                continue;
            ++outcome.attempts;
            if (still_fails(candidate)) {
                outcome.scenario = candidate;
                ++outcome.reductions;
                reduced = true;
            }
        }
    }
    return outcome;
}

} // namespace laer
