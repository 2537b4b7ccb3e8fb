#include "serve/serving_sim.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "core/error.hh"
#include "core/thread_pool.hh"
#include "serve/kv_cache.hh"

namespace laer
{

namespace
{

constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

/** Insert `item` into a queue kept sorted by readyAt. Ties keep
 * insertion order (stable), so the walk order is a pure function of
 * the push history. */
template <typename T>
void
insertByReadyAt(std::deque<T> &queue, T item)
{
    const auto pos = std::upper_bound(
        queue.begin(), queue.end(), item.readyAt,
        [](Seconds t, const T &queued) { return t < queued.readyAt; });
    queue.insert(pos, std::move(item));
}

/** Validate and fill the derived fields of the configuration. */
ServingConfig
normalizeConfig(const Cluster &cluster, ServingConfig config)
{
    config.model.validate();
    const int n = cluster.numDevices();
    const int experts = config.model.numExperts;
    LAER_CHECK(config.capacity >= 1, "capacity must be positive");
    LAER_CHECK(n * config.capacity >= experts,
               "cluster too small to host every expert");
    LAER_CHECK(config.simulatedLayers >= 1 &&
                   config.simulatedLayers <= config.model.layers,
               "simulated layer count out of range");
    LAER_CHECK(config.horizon > 0.0, "horizon must be positive");
    LAER_CHECK(config.retunePeriod >= 1,
               "retune period must be positive");

    config.batcher.numSloClasses = config.arrival.numSloClasses;

    config.routing.numDevices = n;
    config.routing.numExperts = experts;
    config.routing.topK = config.model.topK;
    config.routing.tokensPerDevice =
        std::max<TokenCount>(1, config.batcher.tokenBudget / n);

    config.tuner.capacity = config.capacity;
    if (config.tuner.cost.commBytesPerToken == 0)
        config.tuner.cost.commBytesPerToken = config.model.tokenBytes();
    if (config.tuner.cost.compFlopsPerToken == 0)
        config.tuner.cost.compFlopsPerToken =
            config.model.expertFlopsPerToken();

    LAER_CHECK(!config.desParallel ||
                   config.policy != ServingPolicy::Disaggregated,
               "the windowed event core cannot run disaggregated pools "
               "(prefill->decode migrations couple the engines inside "
               "a window)");

    if (config.policy == ServingPolicy::Disaggregated) {
        LAER_CHECK(n >= 2, "disaggregation needs at least two devices");
        if (config.disagg.prefillDevices == 0)
            config.disagg.prefillDevices = n / 2;
        const int prefill = config.disagg.prefillDevices;
        const int decode = n - prefill;
        LAER_CHECK(prefill >= 1 && decode >= 1,
                   "prefill pool size " << prefill
                                        << " leaves no decode pool on "
                                        << n << " devices");
        LAER_CHECK(prefill * config.capacity >= experts &&
                       decode * config.capacity >= experts,
                   "each pool must be able to host every expert");
        if (config.disagg.sharedLayout)
            LAER_CHECK(prefill == decode,
                       "shared-layout disaggregation needs equal pools "
                       "(" << prefill << " vs " << decode << ")");
        LAER_CHECK(config.replicas.replicaDevices == 0,
                   "replica slicing and disaggregation are exclusive "
                   "simulator topologies");
    }

    if (config.replicas.replicaDevices > 0) {
        const int rd = config.replicas.replicaDevices;
        LAER_CHECK(n % rd == 0, "replica size "
                                    << rd << " must divide the "
                                    << n << "-device cluster");
        LAER_CHECK(rd * config.capacity >= experts,
                   "each replica must be able to host every expert");
        const int slots = n / rd;
        if (config.replicas.initialReplicas == 0)
            config.replicas.initialReplicas = slots;
        LAER_CHECK(config.replicas.initialReplicas >= 1 &&
                       config.replicas.initialReplicas <= slots,
                   "initial replica count "
                       << config.replicas.initialReplicas
                       << " out of range [1, " << slots << "]");
    }
    return config;
}

} // namespace

ServingSimulator::ServingSimulator(const Cluster &cluster,
                                   const ServingConfig &config)
    : cluster_(cluster), config_(normalizeConfig(cluster, config)),
      arrivals_(config_.arrival),
      metrics_(config_.sloTtft, config_.metricsMode)
{
    // One worker pool shared by every engine (engines step one at a
    // time, so there is no contention). threads == 1 stays pool-free.
    if (ThreadPool::resolveThreads(config_.threads) > 1)
        threadPool_ = std::make_unique<ThreadPool>(config_.threads);
    std::vector<DevicePoolSlice> slices;
    if (config_.policy == ServingPolicy::Disaggregated) {
        const int prefill = config_.disagg.prefillDevices;
        slices = partitionCluster(
            cluster_, {prefill, cluster_.numDevices() - prefill},
            {"prefill", "decode"});
    } else if (config_.replicas.replicaDevices > 0) {
        const int rd = config_.replicas.replicaDevices;
        const int slots = cluster_.numDevices() / rd;
        std::vector<int> counts(slots, rd);
        std::vector<std::string> names;
        for (int i = 0; i < slots; ++i)
            names.push_back("replica" + std::to_string(i));
        slices = partitionCluster(cluster_, counts, names);
    } else {
        slices.push_back(wholeClusterSlice(cluster_));
    }
    // Each engine owns a copy of its slice: engine().slice().
    slots_.resize(slices.size());
    for (std::size_t i = 0; i < slices.size(); ++i)
        slots_[i].inc.engine = std::make_unique<ServingEngine>(
            slices[i], engineConfigFor(slices[i], static_cast<int>(i)));
    nextSnapshot_ = config_.snapshotInterval;
    barrier_ = kNever;
    // An empty plan expands to no events, and with no events every
    // fault hook is inert (docs/ROBUSTNESS.md). The expansion checks
    // every engine target against the slots, parked ones included.
    faultPlan_ = expandFaultPlan(config_.faults,
                                 static_cast<int>(slots_.size()),
                                 config_.horizon);
    avail_.failedByClass.assign(
        static_cast<std::size_t>(config_.arrival.numSloClasses), 0);
    // Replica slices beyond the initial count start parked: their
    // devices are dark until the control plane spins them up.
    if (config_.replicas.replicaDevices > 0)
        for (std::size_t i = config_.replicas.initialReplicas;
             i < slots_.size(); ++i)
            slots_[i].engine().drain();
}

ServingSimulator::~ServingSimulator() = default;

EngineConfig
ServingSimulator::engineConfigFor(const DevicePoolSlice &slice,
                                  int pool_index) const
{
    const int n = slice.numDevices();
    const int cluster_n = cluster_.numDevices();

    EngineConfig ec;
    ec.model = config_.model;
    ec.policy = config_.policy == ServingPolicy::Disaggregated
                    ? ServingPolicy::LaerServe
                    : config_.policy;
    ec.capacity = config_.capacity;
    ec.simulatedLayers = config_.simulatedLayers;
    ec.retunePeriod = config_.retunePeriod;
    ec.tuner = config_.tuner;
    // The engine only adopts decision.layout; the dense winner plan
    // would be built and thrown away (steps price from the sparse
    // path), so skip it regardless of the caller's tuner default.
    ec.tuner.buildPlan = false;
    ec.tuner.pool = threadPool_.get();
    ec.pool = threadPool_.get();
    ec.tunerBudgetMs = config_.tunerBudgetMs;
    // Engines draw from disjoint seed streams; pool 0 keeps the run's
    // base seed so single-engine runs reproduce PR 1-2 bit-for-bit.
    ec.seed = config_.seed +
              104729ULL * static_cast<std::uint64_t>(pool_index);
    // Shared-layout disaggregation: the decode pool (index 1) leads,
    // the prefill pool follows via setLayouts().
    ec.tuningEnabled = !(config_.policy == ServingPolicy::Disaggregated &&
                         config_.disagg.sharedLayout && pool_index == 0);

    ec.batcher = config_.batcher;
    // A pool's step budget is its device share of the cluster budget.
    ec.batcher.tokenBudget = std::max<TokenCount>(
        1, config_.batcher.tokenBudget * n / cluster_n);
    const PoolKv kv = poolKvFor(n);
    ec.batcher.kvBudgetBytes = kv.budget;
    ec.batcher.kvBytesPerToken = kv.bytesPerToken;
    ec.batcher.kvBlockTokens = kv.blockTokens;

    ec.routing = config_.routing;
    ec.routing.numDevices = n;
    ec.routing.tokensPerDevice =
        std::max<TokenCount>(1, ec.batcher.tokenBudget / n);
    return ec;
}

Seconds
ServingSimulator::loadDelayFor(const DevicePoolSlice &slice) const
{
    // Every device of the pool restores its own shard of the
    // inference-time model state (Sec. 3.1 residency: fully sharded
    // bf16 parameters + the unsharded working set) over its host
    // link in parallel, so the per-device bytes set the delay.
    const Bytes per_device =
        inferenceModelState(config_.model, slice.numDevices(),
                            config_.capacity)
            .total();
    return static_cast<double>(per_device) / kHostLinkBw;
}

ServingSimulator::PoolKv
ServingSimulator::poolKvFor(int devices) const
{
    PoolKv kv;
    if (config_.hbmPerDevice > 0) {
        // Derive the pool's KV budget from simulated HBM: model state
        // and the activation working set come off the top (Sec. 3.1
        // memory model applied to inference), the remainder is KV, and
        // the batcher switches from maxRunning slots to byte
        // accounting. Per device, an n-device pool steps
        // max(1, max(1, B n / N) / n) = max(1, B / N) tokens of the
        // cluster budget B over N devices, whatever n is.
        const TokenCount step_tokens = std::max<TokenCount>(
            1, config_.batcher.tokenBudget / cluster_.numDevices());
        kv.budget = servingMemoryBudget(config_.model, devices,
                                        config_.capacity,
                                        config_.hbmPerDevice, step_tokens)
                        .kvPoolTotal;
        kv.bytesPerToken = kvBytesPerToken(config_.model);
        kv.blockTokens = config_.kvBlockTokens;
    } else {
        // Direct pool sizing splits the configured budget by device
        // share; a zero budget is maxRunning slot mode.
        kv.budget = config_.batcher.kvBudgetBytes * devices /
                    cluster_.numDevices();
        kv.bytesPerToken = config_.batcher.kvBytesPerToken;
        kv.blockTokens = config_.batcher.kvBlockTokens;
    }
    return kv;
}

int
ServingSimulator::minPoolDevices() const
{
    int floor = (config_.model.numExperts + config_.capacity - 1) /
                config_.capacity;
    // Shards grow as pools shrink, so feasibility is monotone in the
    // pool size: walk up until the memory budget closes.
    for (; floor < cluster_.numDevices(); ++floor) {
        try {
            poolKvFor(floor);
            break;
        } catch (const FatalError &) {
            // model shard + activations leave no KV pool
        }
    }
    return floor;
}

int
ServingSimulator::poweredDevices() const
{
    // Disaggregation re-purposes devices but never releases them;
    // only replica scale-down turns slices dark.
    if (config_.policy == ServingPolicy::Disaggregated)
        return cluster_.numDevices();
    int devices = 0;
    for (const Slot &slot : slots_)
        if (slot.engine().state() != EngineState::Stopped)
            devices += slot.engine().slice().numDevices();
    return devices;
}

void
ServingSimulator::accruePower(Seconds t)
{
    LAER_ASSERT(t >= lastPowerAccrual_, "power accrual went backwards");
    deviceSeconds_ += (t - lastPowerAccrual_) * poweredDevices();
    lastPowerAccrual_ = t;
}

double
ServingSimulator::deviceSecondsSoFar() const
{
    return deviceSeconds_ +
           (now_ - lastPowerAccrual_) * poweredDevices();
}

int
ServingSimulator::activeReplicas() const
{
    int live = 0;
    for (const Slot &slot : slots_)
        if (slot.engine().state() != EngineState::Stopped)
            ++live;
    return live;
}

int
ServingSimulator::prefillDevices() const
{
    return config_.policy == ServingPolicy::Disaggregated
               ? slots_[0].engine().slice().numDevices()
               : 0;
}

bool
ServingSimulator::reconfigPending() const
{
    if (pending_.active)
        return true;
    for (const Slot &slot : slots_)
        if (slot.engine().state() == EngineState::Draining)
            return true;
    return false;
}

int
ServingSimulator::leastLoadedLive(const std::vector<int> &load) const
{
    int best = -1;
    int best_load = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const ServingEngine &engine = slots_[i].engine();
        if (!engine.accepting())
            continue;
        const int l = load.empty() ? engine.load() : load[i];
        if (best < 0 || l < best_load) {
            best = static_cast<int>(i);
            best_load = l;
        }
    }
    return best;
}

Seconds
ServingSimulator::rebuildEngine(std::size_t i, const DevicePoolSlice &slice)
{
    Slot &slot = slots_[i];
    LAER_ASSERT(slot.engine().state() == EngineState::Stopped &&
                    !slot.inc.pendingKill && slot.inc.drainStart < 0.0,
                "rebuild of slot " << i << " while its engine is live");
    // The fresh incarnation is built before the old one (which may own
    // `slice`) is released.
    slot.inc = Slot::Incarnation{std::make_unique<ServingEngine>(
        slice, engineConfigFor(slice, static_cast<int>(i)),
        EngineState::Loading)};
    const Seconds delay = loadDelayFor(slot.engine().slice());
    slot.freeAt = now_ + delay;
    // Dropping the old stragglers and masked devices may close the
    // degraded window; a fault-killed slot stays degraded until its
    // Active promote in applyReconfig() closes its MTTR clock.
    updateDegraded();
    return delay;
}

void
ServingSimulator::beginEngineDrain(std::size_t i)
{
    Slot &slot = slots_[i];
    if (slot.engine().state() == EngineState::Loading)
        slot.freeAt = now_; // no step in flight: drain at once
    slot.engine().beginDrain();
    slot.inc.drainStart = now_;
}

bool
ServingSimulator::requestReplicas(int target)
{
    LAER_CHECK(config_.replicas.replicaDevices > 0,
               "requestReplicas needs replica slicing "
               "(ReplicaConfig::replicaDevices)");
    const int slots = replicaSlots();
    target = std::min(std::max(target, 1), slots);
    if (reconfigPending())
        return false;
    const int live = activeReplicas();
    if (target == live)
        return false;

    if (target > live) {
        // Scale up: rebuild the lowest parked slots behind the model
        // load; they accept arrivals immediately and step once loaded.
        accruePower(now_);
        Seconds delay = 0.0;
        int spun = 0;
        for (std::size_t i = 0; i < slots_.size() &&
                                live + spun < target; ++i) {
            if (slots_[i].engine().state() != EngineState::Stopped)
                continue;
            delay = std::max(
                delay, rebuildEngine(i, slots_[i].engine().slice()));
            ++spun;
        }
        ScalingEvent event;
        event.requested = now_;
        event.applied = now_ + delay;
        event.action = "replicas";
        event.before = live;
        event.after = target;
        event.loadDelay = delay;
        recordScaling(event);
    } else {
        // Scale down: close admission on the highest live slots; the
        // drain itself completes in applyReconfig() at each victim's
        // next idle moment.
        pending_ = PendingReconfig{};
        pending_.active = true;
        pending_.target = target;
        pending_.requestedAt = now_;
        pending_.before = live;
        int to_drain = live - target;
        for (int i = slots - 1; i >= 0 && to_drain > 0; --i) {
            if (!slots_[i].engine().accepting())
                continue;
            beginEngineDrain(static_cast<std::size_t>(i));
            --to_drain;
        }
        applyReconfig();
    }
    return true;
}

bool
ServingSimulator::requestSplit(int prefill_devices)
{
    LAER_CHECK(config_.policy == ServingPolicy::Disaggregated,
               "requestSplit needs a disaggregated run");
    LAER_CHECK(!config_.disagg.sharedLayout,
               "dynamic pool sizing cannot rebalance a shared-layout "
               "run (the pools must stay equal)");
    const int n = cluster_.numDevices();
    const int decode = n - prefill_devices;
    // The floor covers both the expert-hosting constraint and — with
    // the KV model on — memory feasibility, so an accepted split can
    // never fail inside the post-drain engine rebuild.
    const int min_pool = minPoolDevices();
    if (reconfigPending())
        return false;
    // A dead pool has nothing to drain: its repair comes first.
    if (!slots_[0].engine().accepting() ||
        !slots_[1].engine().accepting())
        return false;
    if (prefill_devices == slots_[0].engine().slice().numDevices())
        return false;
    if (prefill_devices < min_pool || decode < min_pool)
        return false;
    if (!cluster_.isNodeRegularSlice(0, prefill_devices) ||
        !cluster_.isNodeRegularSlice(prefill_devices, decode))
        return false;

    // Every live context must stay admissible after the shrink: the
    // biggest full context (Request::fullContext(), so a prefill
    // copy's parked decode target counts) among running/waiting
    // requests, in-flight migrations and retries waiting out their
    // backoff has to fit both new pools' KV budgets (conservative:
    // the prefill pool only ever sees prompt + 1, but one ceiling
    // keeps the check simple), or re-homing would blow up enqueue()
    // after the drain.
    TokenCount max_ctx = 0;
    for (const Slot &slot : slots_)
        max_ctx = std::max(max_ctx,
                           slot.engine().batcher().maxLiveFullContext());
    for (const PendingMigration &m : migrations_)
        max_ctx = std::max(max_ctx, m.request.fullContext());
    for (const PendingRetry &r : retryQueue_)
        max_ctx = std::max(max_ctx, r.request.fullContext());
    if (max_ctx > 0) {
        for (const int pool : {prefill_devices, decode}) {
            const PoolKv kv = poolKvFor(pool);
            if (kv.budget > 0 && kv.bytesFor(max_ctx) > kv.budget)
                return false;
        }
    }

    pending_ = PendingReconfig{};
    pending_.active = true;
    pending_.split = true;
    pending_.target = prefill_devices;
    pending_.requestedAt = now_;
    pending_.before = slots_[0].engine().slice().numDevices();
    pending_.held.assign(2, {});
    for (std::size_t i = 0; i < 2; ++i)
        beginEngineDrain(i);
    applyReconfig();
    return true;
}

// ---- observability plumbing -----------------------------------------
// Every helper below is write-only: nothing recorded here is ever read
// back by the simulation, so the attached/unattached states price
// identically.

std::string
ServingSimulator::obsPrefix() const
{
    return config_.obsLabel.empty() ? std::string()
                                    : config_.obsLabel + "/";
}

int
ServingSimulator::poolTrack(std::size_t i)
{
    return config_.trace->track(obsPrefix() +
                                slots_[i].engine().slice().name);
}

int
ServingSimulator::plannerTrack(std::size_t i)
{
    return config_.trace->track(
        obsPrefix() + slots_[i].engine().slice().name + "/planner");
}

int
ServingSimulator::kvTrack()
{
    return config_.trace->track(obsPrefix() + "kv_transfer");
}

int
ServingSimulator::controlTrack()
{
    return config_.trace->track(obsPrefix() + "control");
}

void
ServingSimulator::recordScaling(const ScalingEvent &event)
{
    scalingEvents_.push_back(event);
    LAER_METRIC_COUNT(config_.metricsRegistry, "ctrl.scaling_events",
                      1);
    LAER_TRACE_INSTANT(config_.trace, controlTrack(), event.action,
                       "ctrl", event.requested,
                       {TraceArg{"before", event.before},
                        TraceArg{"after", event.after},
                        TraceArg{"load_delay_s", event.loadDelay},
                        TraceArg{"rehomed", event.rehomed}});
}

void
ServingSimulator::updateRegistryGauges()
{
    MetricsRegistry *reg = config_.metricsRegistry;
    if (reg == nullptr)
        return;
    int waiting = 0;
    int running = 0;
    double kv_util = 0.0;
    Bytes kv_reserved = 0;
    Bytes kv_budget = 0;
    for (const Slot &slot : slots_) {
        const ContinuousBatcher &batcher = slot.engine().batcher();
        waiting += batcher.waitingCount();
        running += batcher.runningCount();
        kv_reserved += batcher.kvReservedBytes();
        kv_budget += batcher.kvBudgetBytes();
        if (batcher.kvEnabled())
            kv_util = std::max(kv_util, batcher.kvUtilization());
    }
    std::int64_t held = 0;
    for (const std::vector<Request> &h : pending_.held)
        held += static_cast<std::int64_t>(h.size());
    // Counters come from the simulator's authoritative totals via
    // set(), so engine rebuilds (replica spin-up, split) never lose
    // counts.
    reg->counter("serve.offered").set(offered_);
    reg->counter("serve.admissions").set(admissions_);
    reg->counter("serve.completed").set(metrics_.completed());
    reg->counter("serve.slo_met").set(metrics_.sloMet());
    reg->counter("serve.decoded_tokens").set(metrics_.decodedTokens());
    reg->counter("serve.good_tokens").set(metrics_.goodTokens());
    reg->counter("serve.preemptions").set(metrics_.totalPreemptions());
    reg->counter("serve.steps")
        .set(static_cast<std::int64_t>(steps_.size()));
    reg->counter("serve.migrated").set(migrated_);
    reg->counter("serve.kv_transfer_bytes").set(kvTransferBytes_);
    reg->counter("planner.retunes")
        .set(static_cast<std::int64_t>(retuneWall_.size()));
    reg->gauge("serve.active_replicas").set(activeReplicas());
    reg->gauge("serve.queue_depth").set(waiting);
    reg->gauge("serve.running").set(running);
    // Requests parked between pools: contexts in flight to the decode
    // pool, and sequences held while a split re-partitions. Together
    // with queue_depth/running these close the request-conservation
    // identity the difftest probe layer checks:
    //   offered == completed + queue_depth + running + migrating + held
    reg->gauge("serve.migrating")
        .set(static_cast<double>(migrations_.size()));
    reg->gauge("serve.held").set(static_cast<double>(held));
    reg->gauge("serve.kv_utilization").set(kv_util);
    reg->gauge("serve.kv_reserved_bytes")
        .set(static_cast<double>(kv_reserved));
    reg->gauge("serve.kv_budget_bytes")
        .set(static_cast<double>(kv_budget));
    if (config_.faults.enabled()) {
        // Fault-plan series exist only on faulted runs, so the
        // fault-free metric stream (and the golden gate pinning it)
        // stays byte-for-byte. `serve.failed` and `serve.retrying`
        // extend the conservation identity above:
        //   offered == completed + queue_depth + running + migrating
        //              + held + retrying + failed
        reg->counter("serve.faults").set(avail_.faultsInjected);
        reg->counter("serve.repairs").set(avail_.repairs);
        reg->counter("serve.retries").set(avail_.requestsRetried);
        reg->counter("serve.failed").set(avail_.requestsFailed);
        reg->counter("serve.transfer_aborts").set(avail_.transfersAborted);
        reg->gauge("serve.retrying")
            .set(static_cast<double>(retryQueue_.size()));
        reg->gauge("serve.dead_replicas").set(deadReplicas());
    }
    reg->gauge("serve.device_seconds").set(deviceSecondsSoFar());
    // The simulated clock the gauges were read at. Snapshots crossed
    // by a long event jump are stamped with their boundary time, which
    // can trail this clock — bounds like device_seconds <= N * t must
    // be checked against sim_now, not the stamp.
    reg->gauge("serve.sim_now").set(now_);
}

void
ServingSimulator::maybeSnapshot()
{
    if (config_.metricsRegistry == nullptr ||
        config_.snapshotInterval <= 0.0)
        return;
    // Snapshots are stamped with the boundary they represent; a long
    // event jump can cross several boundaries, each recorded with the
    // state as of the first event at-or-after it.
    while (now_ >= nextSnapshot_) {
        updateRegistryGauges();
        config_.metricsRegistry->recordSnapshot(nextSnapshot_);
        nextSnapshot_ += config_.snapshotInterval;
    }
}

void
ServingSimulator::applyReconfig()
{
    // Promote engines whose model shards have landed.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &slot = slots_[i];
        if (slot.engine().state() != EngineState::Loading ||
            slot.freeAt > now_)
            continue;
        slot.engine().setReady();
        if (slot.faultDownSince >= 0.0) {
            // The slot is serving again: close its MTTR clock, whether
            // a scripted repair or the autoscaler rebuilt it.
            const Seconds mttr = now_ - slot.faultDownSince;
            mttrSum_ += mttr;
            avail_.mttrMax = std::max(avail_.mttrMax, mttr);
            ++avail_.repairs;
            LAER_TRACE_SPAN(config_.trace, faultTrack(), "outage",
                            "fault", slot.faultDownSince, mttr,
                            {TraceArg{"pool", static_cast<int>(i)},
                             TraceArg{"mttr_s", mttr}});
            slot.faultDownSince = -1.0;
            updateDegraded();
        }
    }

    // Complete due drains. A Draining engine whose slot is free at
    // now_ has no step in flight: its live requests take the recompute
    // disposition and re-home.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &slot = slots_[i];
        if (slot.engine().state() != EngineState::Draining ||
            slot.freeAt > now_)
            continue;
        accruePower(now_);
        std::vector<Request> evicted = slot.engine().drain();
        if (config_.trace != nullptr && slot.inc.drainStart >= 0.0)
            config_.trace->span(
                poolTrack(i), "drain", "ctrl", slot.inc.drainStart,
                now_ - slot.inc.drainStart,
                {TraceArg{"evicted",
                          static_cast<int>(evicted.size())}});
        slot.inc.drainStart = -1.0;
        if (pending_.split) {
            for (const Request &r : evicted)
                if (LAER_REQ_SAMPLED(config_.reqTrace, r.id))
                    LAER_REQ_EVENT(config_.reqTrace,
                                   onRehome(r.id, now_, -1));
            pending_.held[i] = std::move(evicted);
        } else {
            for (const Request &r : evicted) {
                // Under faults the survivors may all be dead too: the
                // eviction then takes the retry path.
                const int live = leastLoadedLive();
                if (live < 0) {
                    scheduleRetry(r, now_);
                    continue;
                }
                const std::size_t target =
                    static_cast<std::size_t>(live);
                slots_[target].engine().enqueue(r);
                if (LAER_REQ_SAMPLED(config_.reqTrace, r.id))
                    LAER_REQ_EVENT(config_.reqTrace,
                                   onRehome(r.id, now_,
                                            static_cast<int>(target)));
            }
            pending_.rehomed += static_cast<int>(evicted.size());
        }
    }

    if (!pending_.active)
        return;

    if (pending_.split) {
        if (slots_[0].engine().state() != EngineState::Stopped ||
            slots_[1].engine().state() != EngineState::Stopped)
            return;
        // Both pools drained: re-partition, rebuild each engine on its
        // new slice behind the reshard delay, and re-home the held
        // requests pool-to-pool (prefill work stays prefill work).
        const int n = cluster_.numDevices();
        const std::vector<DevicePoolSlice> slices = partitionCluster(
            cluster_, {pending_.target, n - pending_.target},
            {"prefill", "decode"});
        Seconds delay = 0.0;
        for (std::size_t i = 0; i < 2; ++i) {
            delay = std::max(delay, rebuildEngine(i, slices[i]));
            for (const Request &r : pending_.held[i]) {
                slots_[i].engine().enqueue(r);
                if (LAER_REQ_SAMPLED(config_.reqTrace, r.id))
                    LAER_REQ_EVENT(config_.reqTrace,
                                   onRehome(r.id, now_,
                                            static_cast<int>(i)));
            }
            pending_.rehomed +=
                static_cast<int>(pending_.held[i].size());
        }
        ScalingEvent event;
        event.requested = pending_.requestedAt;
        event.applied = now_ + delay;
        event.action = "split";
        event.before = pending_.before;
        event.after = pending_.target;
        event.loadDelay = delay;
        event.rehomed = pending_.rehomed;
        recordScaling(event);
        pending_ = PendingReconfig{};
    } else {
        for (const Slot &slot : slots_)
            if (slot.engine().state() == EngineState::Draining)
                return;
        ScalingEvent event;
        event.requested = pending_.requestedAt;
        event.applied = now_;
        event.action = "replicas";
        event.before = pending_.before;
        event.after = pending_.target;
        event.rehomed = pending_.rehomed;
        recordScaling(event);
        pending_ = PendingReconfig{};
    }
}

const Request *
ServingSimulator::peekArrival()
{
    if (offeringClosed_)
        return nullptr;
    if (!lookaheadValid_) {
        lookahead_ = arrivals_.next();
        lookaheadValid_ = true;
    }
    if (lookahead_.arrival >= config_.horizon) {
        // The stream stops offering at the horizon; the run then
        // drains whatever is in flight.
        offeringClosed_ = true;
        lookaheadValid_ = false;
        return nullptr;
    }
    return &lookahead_;
}

Request
ServingSimulator::admitArrival(std::size_t target)
{
    ++offered_;
    LAER_TRACE_INSTANT(config_.trace, poolTrack(target), "admit",
                       "serve", lookahead_.arrival,
                       {TraceArg{"id", lookahead_.id},
                        TraceArg{"prefill", lookahead_.prefillTokens},
                        TraceArg{"decode", lookahead_.decodeTokens},
                        TraceArg{"class", lookahead_.sloClass}});
    if (LAER_REQ_SAMPLED(config_.reqTrace, lookahead_.id))
        LAER_REQ_EVENT(config_.reqTrace,
                       onAdmit(lookahead_.id, lookahead_.sloClass,
                               lookahead_.arrival, lookahead_.arrival,
                               static_cast<int>(target)));
    lookaheadValid_ = false;
    return lookahead_;
}

void
ServingSimulator::pumpArrivals()
{
    const bool disagg = config_.policy == ServingPolicy::Disaggregated;
    for (const Request *next = peekArrival();
         next != nullptr && next->arrival <= now_; next = peekArrival()) {
        // Arrivals enter the prefill pool, or the least-loaded
        // accepting replica. With no accepting target (a prefill pool
        // mid-reconfiguration, a total outage) the front door buffers
        // the due arrival until one exists: its queueing delay lands
        // in TTFT as usual, and the revival it waits on has its own
        // wake.
        const int target =
            disagg ? (slots_[0].engine().accepting() ? 0 : -1)
                   : leastLoadedLive();
        if (target < 0)
            break;
        const auto i = static_cast<std::size_t>(target);
        Request request = admitArrival(i);
        if (disagg) {
            // The prefill pool runs the request only up to its first
            // token; the requested decode length rides along as its
            // decode target and is restored when the context migrates
            // to the decode pool.
            LAER_CHECK(request.decodeTokens <=
                           std::numeric_limits<std::int32_t>::max(),
                       "request " << request.id << " asks for "
                                  << request.decodeTokens
                                  << " decode tokens; a prefill copy "
                                     "parks at most 2^31 - 1");
            request.decodeTarget =
                static_cast<std::int32_t>(request.decodeTokens);
            request.decodeTokens = 1;
        }
        slots_[i].engine().enqueue(request);
    }
}

void
ServingSimulator::recordCompletion(const Request &done)
{
    metrics_.record(done);
    if (config_.metricsRegistry != nullptr) {
        config_.metricsRegistry->histogram("serve.ttft_s")
            .observe(done.ttft());
        if (done.decodeTokens >= 2)
            config_.metricsRegistry->histogram("serve.tpot_s")
                .observe(done.tpot());
    }
    retireSampledRequest(done);
}

void
ServingSimulator::captureStepShares(const BatchPlan &plan,
                                    const ServingStepResult &result,
                                    int pool_index,
                                    std::vector<ReqStepShare> &out) const
{
    const ReqTraceRecorder *rt = config_.reqTrace;
    if (rt == nullptr)
        return;
    for (const BatchEntry &entry : plan.entries) {
        if (!LAER_REQ_SAMPLED(rt, entry.requestId))
            continue;
        ReqStepShare share;
        share.requestId = entry.requestId;
        share.pool = pool_index;
        share.start = result.start;
        share.duration = result.duration;
        share.retunePause = result.migration;
        share.swapOverhead = result.swapTime;
        if (entry.prefillTokens > 0)
            share.computeAs = entry.restoring
                                  ? AttrComponent::PreemptRecovery
                                  : AttrComponent::PrefillCompute;
        else
            share.computeAs = AttrComponent::DecodeResidency;
        share.firstToken = entry.prefillTokens > 0 && entry.emitsToken;
        out.push_back(share);
    }
}

void
ServingSimulator::replayStepTrace(
    const std::vector<PreemptionRecord> &preempted,
    Seconds preempt_time, const std::vector<ReqStepShare> &shares)
{
    ReqTraceRecorder *rt = config_.reqTrace;
    if (rt == nullptr)
        return;
    const bool swap =
        config_.batcher.preemptionMode == PreemptionMode::Swap;
    for (const PreemptionRecord &p : preempted)
        if (LAER_REQ_SAMPLED(rt, p.requestId))
            LAER_REQ_EVENT(rt,
                           onPreempt(p.requestId, preempt_time, swap));
    for (const ReqStepShare &share : shares)
        LAER_REQ_EVENT(rt, onStep(share));
}

void
ServingSimulator::retireSampledRequest(const Request &done)
{
    ReqTraceRecorder *rt = config_.reqTrace;
    if (!LAER_REQ_SAMPLED(rt, done.id))
        return;
    ReqRetireInfo info;
    info.id = done.id;
    info.firstTokenTime = done.firstTokenTime;
    info.finishTime = done.finishTime;
    info.decodeTokens = done.decodeTokens;
    info.preemptions = done.preemptions;
    info.sloTtft = config_.sloTtft;
    ReqTraceRecorder::RetireContext ctx;
    ctx.trace = config_.trace;
    ctx.trackPrefix = obsPrefix();
    std::vector<int> pool_tracks;
    if (config_.trace != nullptr) {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            pool_tracks.push_back(poolTrack(i));
        ctx.poolTracks = &pool_tracks;
    }
    const RetiredAttribution attr = rt->retire(info, ctx);
    metrics_.recordAttribution(done.sloClass, attr.e2e);
}

void
ServingSimulator::harvestFinished(int pool_index,
                                  std::vector<Request> finished)
{
    const bool disagg = config_.policy == ServingPolicy::Disaggregated;
    for (Request &r : finished) {
        if (!disagg || pool_index == 1) {
            recordCompletion(r);
            continue;
        }
        // Prefill pool: the "finished" request is the prefill-only
        // copy — its prefill completed and the first token is out.
        if (r.decodeTarget <= 1) {
            // Single-token request: nothing left to decode, and no KV
            // to move.
            recordCompletion(r);
            continue;
        }
        if (linkDown_) {
            // The boundary link is down: the handover aborts before
            // touching the wire and the context takes the retry path
            // (its KV was released at the pool boundary, so the retry
            // recomputes the prefill).
            // killed_at is the prefill finish: the harvest runs at
            // the wake that launched the finishing chunk, so now_
            // still sits at the chunk start — inside the step span
            // already attributed as compute.
            const Seconds finished_at = r.finishTime;
            abortTransfer(std::move(r), finished_at);
            continue;
        }
        // Hand the context over: its KV crosses the inter-pool links.
        const Bytes bytes =
            r.contextLength() * kvBytesPerToken(config_.model);
        Seconds wire =
            kvTransferTime(cluster_, slots_[0].engine().slice(),
                           slots_[1].engine().slice(), bytes);
        if (linkFactor_ != 1.0)
            wire *= linkFactor_; // degraded link: stretched wire time
        LAER_TRACE_SPAN(config_.trace, kvTrack(), "kv_transfer",
                        "serve", r.finishTime, wire,
                        {TraceArg{"id", r.id}, TraceArg{"bytes", bytes},
                         TraceArg{"context", r.contextLength()}});
        if (LAER_REQ_SAMPLED(config_.reqTrace, r.id))
            LAER_REQ_EVENT(config_.reqTrace,
                           onKvTransfer(r.id, r.finishTime, wire));
        PendingMigration m;
        m.readyAt = r.finishTime + wire;
        r.decodeTokens = r.decodeTarget;
        r.decodeTarget = 0;
        r.finishTime = -1.0;
        m.request = r;
        // Keep the queue ordered by arrival at the decode pool:
        // per-context wire times differ, so a short context finishing
        // later can still land first.
        insertByReadyAt(migrations_, std::move(m));
        kvTransferBytes_ += bytes;
        kvTransferSeconds_ += wire;
        ++migrated_;
    }
}

void
ServingSimulator::pumpMigrations()
{
    if (config_.policy != ServingPolicy::Disaggregated)
        return;
    ServingEngine &decode = slots_[1].engine();
    while (!migrations_.empty() && migrations_.front().readyAt <= now_) {
        const PendingMigration &m = migrations_.front();
        if (!decode.accepting()) {
            if (reviveExpected())
                break; // a revival is coming: the context waits
            // Nothing will ever serve this context again: fail it now
            // rather than hang the drain (the pumpRetries rule).
            failRequest(m.request);
            migrations_.pop_front();
            continue;
        }
        if (!decode.batcher().canEverHold(m.request)) {
            // A fault-shrunk decode pool can never hold this context:
            // fail it, as resizePoolKv() failed the pool's own.
            failRequest(m.request);
            migrations_.pop_front();
            continue;
        }
        if (!decode.batcher().canAdmitContext(
                m.request.contextLength()))
            break; // decode pool full: the context waits at the door
        transferStallSeconds_ += now_ - m.readyAt;
        if (LAER_REQ_SAMPLED(config_.reqTrace, m.request.id))
            LAER_REQ_EVENT(config_.reqTrace,
                           onTransferStall(m.request.id, m.readyAt,
                                           now_));
        decode.enqueue(m.request);
        migrations_.pop_front();
    }
    // Back-pressure: a transferred context stuck at the decode pool's
    // door closes prefill admission until the decode pool drains. A
    // draining prefill pool keeps its admission shut regardless.
    const bool blocked =
        !migrations_.empty() && migrations_.front().readyAt <= now_;
    if (slots_[0].engine().accepting())
        slots_[0].engine().batcher().setAdmissionPaused(blocked);
}

// ---- fault injection (src/fault/) ------------------------------------
// No mode switch guards the hooks below: an empty plan leaves them
// inert. No event is ever due, no kill is deferred, no MTTR clock runs,
// the boundary link stays up at factor 1, every straggler factor stays
// 1 and the retry queue stays empty, so a fault-free run stays
// byte-for-byte with its history (the golden gates pin that). The
// per-engine fault state lives in each Slot. expandFaultPlan() checked
// every engine target against the slots when the simulator was built,
// so no hook here clamps one. Every applied event takes one record
// path in applyFaultEvent(), and every counter lands in the live
// avail_ record that buildReport() copies whole.

int
ServingSimulator::faultTrack()
{
    return config_.trace->track(obsPrefix() + "faults");
}

int
ServingSimulator::deadReplicas() const
{
    int dead = 0;
    for (const Slot &slot : slots_)
        if (slot.faultDownSince >= 0.0 &&
            slot.engine().state() == EngineState::Stopped)
            ++dead;
    return dead;
}

bool
ServingSimulator::faultActive() const
{
    if (linkDown_ || linkFactor_ != 1.0)
        return true;
    for (const Slot &slot : slots_)
        if (slot.faultDownSince >= 0.0 ||
            slot.inc.stragglerFactor != 1.0 || slot.inc.deadDevices > 0)
            return true;
    return false;
}

void
ServingSimulator::updateDegraded()
{
    // Degraded time is the union of all fault conditions: the window
    // opens at the first active fault and closes when the last one
    // clears (a repaired replica counts degraded until Active again).
    const bool degraded = faultActive();
    if (degraded && degradedSince_ < 0.0) {
        degradedSince_ = now_;
        goodTokensAtDegradeStart_ = metrics_.goodTokens();
    } else if (!degraded && degradedSince_ >= 0.0) {
        avail_.degradedSeconds += now_ - degradedSince_;
        degradedGoodTokens_ +=
            metrics_.goodTokens() - goodTokensAtDegradeStart_;
        degradedSince_ = -1.0;
    }
}

void
ServingSimulator::applyFaults()
{
    while (nextFault_ < faultPlan_.size() &&
           faultPlan_[nextFault_].time <= now_)
        applyFaultEvent(faultPlan_[nextFault_++]);
    // Deferred fail-stops land at the victim's step boundary: the
    // in-flight step finishes (its results are real work), THEN the
    // engine dies. stepOnce() runs this before runDueEngines(), so a
    // due kill always lands before the victim could start another
    // step.
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].inc.pendingKill && slots_[i].freeAt <= now_)
            applyKill(i);
}

void
ServingSimulator::applyFaultEvent(const FaultEvent &event)
{
    // expandFaultPlan() checked every engine target; the link kinds
    // ignore theirs and record 0.
    const std::size_t target = static_cast<std::size_t>(event.target);
    const bool disagg =
        config_.policy == ServingPolicy::Disaggregated;
    FaultEvent record{now_, event.kind, event.target, event.magnitude};
    const char *instant = nullptr; // faults-track instant, if any
    std::vector<TraceArg> args{TraceArg{"pool", event.target}};
    // Each case decides whether the event applies, flips the fault
    // state it owns and says what to record. No-op events (killing a
    // corpse, healing a healthy link, ...) are dropped without
    // counting: the timeline records what was APPLIED, and idempotence
    // keeps seeded storms well-defined.
    switch (event.kind) {
    case FaultKind::ReplicaFail: {
        Slot &slot = slots_[target];
        const EngineState state = slot.engine().state();
        if (state == EngineState::Stopped || slot.inc.pendingKill)
            return;
        slot.faultDownSince = now_;
        slot.inc.pendingKill = true;
        if (state == EngineState::Loading ||
            state == EngineState::Draining)
            slot.freeAt = now_; // no step in flight: die now
        instant = "replica_fail";
        break;
    }
    case FaultKind::ReplicaRepair:
        // Only a fault-killed, already-dead slot rebuilds. A repair
        // scheduled inside the victim's final step (the kill still
        // deferred) is lost — a later repair or the autoscaler
        // rebuilds the slot instead. The rebuild shows on the control
        // track.
        if (slots_[target].engine().state() != EngineState::Stopped ||
            slots_[target].faultDownSince < 0.0)
            return;
        break;
    case FaultKind::LinkDown:
        if (!disagg || linkDown_)
            return;
        record = {now_, event.kind, 0, 1.0};
        linkDown_ = true;
        instant = "link_down";
        args = {TraceArg{"in_flight",
                         static_cast<int>(migrations_.size())}};
        break;
    case FaultKind::LinkUp:
        if (!disagg || (!linkDown_ && linkFactor_ == 1.0))
            return;
        record = {now_, event.kind, 0, 1.0};
        linkDown_ = false;
        linkFactor_ = 1.0;
        instant = "link_up";
        args = {TraceArg{"factor", 1.0}};
        break;
    case FaultKind::LinkDegrade:
        if (!disagg || event.magnitude <= 0.0 || linkDown_ ||
            linkFactor_ == event.magnitude)
            return;
        record.target = 0;
        linkFactor_ = event.magnitude;
        instant = "link_degrade";
        args = {TraceArg{"factor", event.magnitude}};
        break;
    case FaultKind::StragglerStart:
        if (slots_[target].engine().state() == EngineState::Stopped ||
            event.magnitude <= 0.0 ||
            slots_[target].inc.stragglerFactor == event.magnitude)
            return;
        slots_[target].inc.stragglerFactor = event.magnitude;
        instant = "straggler";
        args.push_back(TraceArg{"factor", event.magnitude});
        break;
    case FaultKind::StragglerEnd:
        if (slots_[target].inc.stragglerFactor == 1.0)
            return;
        record.magnitude = 1.0;
        slots_[target].inc.stragglerFactor = 1.0;
        instant = "straggler_end";
        break;
    case FaultKind::DeviceFail: {
        Slot &slot = slots_[target];
        if (slot.engine().state() == EngineState::Stopped)
            return;
        const int total = slot.engine().slice().numDevices();
        const int dead =
            std::min(total - 1,
                     slot.inc.deadDevices +
                         std::max(1, static_cast<int>(event.magnitude)));
        if (dead == slot.inc.deadDevices)
            return; // the slice keeps at least one survivor
        record.magnitude = static_cast<double>(dead);
        slot.inc.deadDevices = dead;
        instant = "device_fail";
        args.push_back(TraceArg{"dead", dead});
        break;
    }
    case FaultKind::DeviceRepair:
        if (slots_[target].inc.deadDevices == 0)
            return;
        record.magnitude = 0.0;
        slots_[target].inc.deadDevices = 0;
        instant = "device_repair";
        break;
    }

    // The one record path. Recoveries (ReplicaRepair, LinkUp,
    // StragglerEnd, DeviceRepair) reach the timeline but do not count
    // as injected faults.
    avail_.timeline.push_back(record);
    if (event.kind != FaultKind::ReplicaRepair &&
        event.kind != FaultKind::LinkUp &&
        event.kind != FaultKind::StragglerEnd &&
        event.kind != FaultKind::DeviceRepair)
        ++avail_.faultsInjected;
    if (instant != nullptr)
        LAER_TRACE_INSTANT(config_.trace, faultTrack(), instant, "fault",
                           now_, std::move(args));

    // Effects that emit events of their own follow the instant.
    if (event.kind == FaultKind::ReplicaFail &&
        slots_[target].freeAt <= now_) {
        applyKill(target);
    } else if (event.kind == FaultKind::ReplicaRepair) {
        applyRepair(target);
    } else if (event.kind == FaultKind::LinkDown) {
        // Transfers die on the wire: abort-and-retry each one.
        std::deque<PendingMigration> inflight;
        inflight.swap(migrations_);
        for (PendingMigration &m : inflight) {
            // The full wire span was attributed at harvest, so the
            // retry dead time starts at the wire's would-be end (the
            // backoff usually expires earlier; the wait clamps to 0).
            abortTransfer(std::move(m.request), m.readyAt);
        }
    } else if (event.kind == FaultKind::DeviceFail ||
               event.kind == FaultKind::DeviceRepair) {
        resizePoolKv(target);
    }
    updateDegraded();
}

void
ServingSimulator::resizePoolKv(std::size_t i)
{
    // Graceful degradation: the pool's KV budget shrinks to the
    // survivors' share, admission shrinks with it, and requests whose
    // full context can no longer EVER fit are failed rather than
    // wedged (byte-accounting runs only; slot-mode pools degrade
    // through the replica/straggler paths instead).
    Slot &slot = slots_[i];
    const int total = slot.engine().slice().numDevices();
    const Bytes full = poolKvFor(total).budget;
    if (full == 0 || slot.engine().state() == EngineState::Stopped)
        return;
    const Bytes budget =
        full * static_cast<Bytes>(total - slot.inc.deadDevices) /
        static_cast<Bytes>(total);
    std::vector<Request> unservable =
        slot.engine().resizeKvBudget(budget);
    for (const Request &r : unservable)
        failRequest(r);
}

void
ServingSimulator::applyKill(std::size_t i)
{
    Slot &slot = slots_[i];
    slot.inc.pendingKill = false;
    // The dying engine's completed work is real and was already
    // routed when its last step was applied; only the live queue is
    // lost. A drain the kill interrupts never completes.
    slot.inc.drainStart = -1.0;
    accruePower(now_);
    std::vector<Request> evicted = slot.engine().drain();
    LAER_TRACE_INSTANT(config_.trace, faultTrack(), "replica_dead",
                       "fault", now_,
                       {TraceArg{"pool", static_cast<int>(i)},
                        TraceArg{"evicted",
                                 static_cast<int>(evicted.size())}});
    // drain() already gave every eviction the KV-loss recompute
    // disposition (restoring = decodeDone > 0, prefill progress
    // cleared); the retry queue re-admits them after backoff.
    for (Request &r : evicted)
        scheduleRetry(std::move(r), now_);
}

void
ServingSimulator::applyRepair(std::size_t i)
{
    accruePower(now_);
    const Seconds delay = rebuildEngine(i, slots_[i].engine().slice());
    ScalingEvent event;
    event.requested = now_;
    event.applied = now_ + delay;
    event.action = "repair";
    event.before = activeReplicas();
    event.after = event.before + 1;
    event.loadDelay = delay;
    recordScaling(event);
}

void
ServingSimulator::abortTransfer(Request request, Seconds killed_at)
{
    // A dead boundary link cut this context's handover. Its KV was
    // released at the pool boundary, so the retry re-runs the prefill
    // (recompute disposition) back in the prefill pool and re-earns
    // the handover; the decode target is re-parked on the request
    // until then.
    ++avail_.transfersAborted;
    LAER_TRACE_INSTANT(config_.trace, faultTrack(), "transfer_abort",
                       "fault", now_,
                       {TraceArg{"id", request.id},
                        TraceArg{"context",
                                 request.contextLength()}});
    request.decodeTarget = static_cast<std::int32_t>(std::max<TokenCount>(
        {request.decodeTokens, request.decodeTarget, 2}));
    request.decodeTokens = 1;
    request.restoring = request.decodeDone > 0;
    request.prefillDone = 0;
    request.finishTime = -1.0;
    scheduleRetry(std::move(request), killed_at);
}

void
ServingSimulator::scheduleRetry(Request request, Seconds killed_at)
{
    ++request.retries;
    if (request.retries > config_.faults.retryBudget) {
        failRequest(request);
        return;
    }
    ++avail_.requestsRetried;
    // Capped exponential backoff: attempt k waits
    // min(cap, base * 2^(k-1)).
    Seconds backoff = config_.faults.backoffBase;
    for (int k = 1;
         k < request.retries && backoff < config_.faults.backoffCap;
         ++k)
        backoff *= 2.0;
    backoff = std::min(backoff, config_.faults.backoffCap);
    LAER_TRACE_INSTANT(config_.trace, faultTrack(), "retry", "fault",
                       now_,
                       {TraceArg{"id", request.id},
                        TraceArg{"attempt", request.retries},
                        TraceArg{"backoff_s", backoff}});
    PendingRetry retry;
    retry.killedAt = killed_at;
    retry.readyAt = now_ + backoff;
    retry.request = std::move(request);
    insertByReadyAt(retryQueue_, std::move(retry));
}

void
ServingSimulator::failRequest(const Request &request)
{
    // Failed, not hung: the request leaves the system explicitly and
    // the conservation identity counts it
    // (offered == completed + in-flight + retrying + failed).
    ++avail_.requestsFailed;
    if (request.sloClass >= 0 &&
        static_cast<std::size_t>(request.sloClass) <
            avail_.failedByClass.size())
        ++avail_.failedByClass[static_cast<std::size_t>(request.sloClass)];
    LAER_TRACE_INSTANT(config_.trace, faultTrack(), "request_failed",
                       "fault", now_,
                       {TraceArg{"id", request.id},
                        TraceArg{"class", request.sloClass},
                        TraceArg{"retries", request.retries}});
    if (LAER_REQ_SAMPLED(config_.reqTrace, request.id))
        LAER_REQ_EVENT(config_.reqTrace,
                       onFailed(request.id, now_));
}

int
ServingSimulator::pickRetryTarget(const Request &request) const
{
    if (config_.policy != ServingPolicy::Disaggregated)
        return leastLoadedLive();
    // Phase affinity: a context still owed its prefill goes back to
    // the prefill pool, a decode-resident one to the decode pool.
    // While the boundary link is down a prefill-side retry holds —
    // re-running its prefill would only reach the same dead boundary
    // and burn the retry budget; the LinkUp event is the revival it
    // waits on.
    const int pool = request.decodeTarget > 0 ? 0 : 1;
    if (pool == 0 && linkDown_)
        return -1;
    return slots_[pool].engine().accepting() ? pool : -1;
}

bool
ServingSimulator::reviveExpected() const
{
    // A pending reconfiguration is itself a revival: a split's rebuilt
    // pools accept again once both drains land.
    if (pending_.active)
        return true;
    for (const Slot &slot : slots_)
        if (slot.engine().state() == EngineState::Loading)
            return true;
    for (std::size_t e = nextFault_; e < faultPlan_.size(); ++e) {
        if (faultPlan_[e].kind == FaultKind::ReplicaRepair)
            return true;
        if (linkDown_ && faultPlan_[e].kind == FaultKind::LinkUp)
            return true;
    }
    return false;
}

void
ServingSimulator::pumpRetries()
{
    while (!retryQueue_.empty() &&
           retryQueue_.front().readyAt <= now_) {
        const int target =
            pickRetryTarget(retryQueue_.front().request);
        if (target < 0) {
            if (reviveExpected())
                break; // a revival is coming: hold the front
            // Nothing will ever serve this request again: fail it
            // now rather than hang the drain.
            PendingRetry retry = std::move(retryQueue_.front());
            retryQueue_.pop_front();
            failRequest(retry.request);
            continue;
        }
        PendingRetry retry = std::move(retryQueue_.front());
        retryQueue_.pop_front();
        ServingEngine &engine =
            slots_[static_cast<std::size_t>(target)].engine();
        if (!engine.batcher().canEverHold(retry.request)) {
            // The target shrank under a device fault while the retry
            // waited: it can never hold this context.
            failRequest(retry.request);
            continue;
        }
        if (LAER_REQ_SAMPLED(config_.reqTrace, retry.request.id))
            LAER_REQ_EVENT(config_.reqTrace,
                           onRetryWait(retry.request.id,
                                       retry.killedAt, now_));
        // Re-admission at class FRONT: the retry already waited out
        // its failure and must not queue behind the backlog again.
        engine.enqueueFront(retry.request);
    }
}

bool
ServingSimulator::runDueEngines()
{
    bool ran = false;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &slot = slots_[i];
        if (slot.engine().state() != EngineState::Active)
            continue; // loading, draining or parked
        if (slot.freeAt > now_ || !slot.engine().hasWork())
            continue;
        StepRecord rec = produceStep(i, now_);
        ran = ran || !rec.idle;
        applyStep(i, std::move(rec));
    }
    return ran;
}

ServingSimulator::StepRecord
ServingSimulator::produceStep(std::size_t i, Seconds t)
{
    const Slot &slot = slots_[i];
    ServingEngine &engine = slot.engine();
    StepRecord rec;
    rec.result.start = t;
    rec.result.pool = static_cast<int>(i);
    const std::int64_t admitted = engine.batcher().totalAdmissions();
    const BatchPlan plan = engine.planStep();
    // Planning is where KV preemption and admission happen; both are
    // accounted for even when the plan comes back empty.
    rec.preempted = engine.takePreempted();
    rec.admissions = engine.batcher().totalAdmissions() - admitted;
    if (plan.empty()) {
        // Admission paused by back-pressure with nothing running: the
        // pool waits for the decode side to drain.
        LAER_ASSERT(engine.batcher().admissionPaused(),
                    "engine idle while holding live requests");
        rec.idle = true;
        return rec;
    }

    const auto exec_start = std::chrono::steady_clock::now();
    ServingStepResult res = engine.executeStep(plan, t);
    if (config_.selfProfile)
        rec.execMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - exec_start)
                         .count();
    if (slot.inc.stragglerFactor != 1.0)
        // A transient straggler stretches the whole step on the
        // timeline; the token counts are untouched.
        res.duration *= slot.inc.stragglerFactor;
    res.pool = static_cast<int>(i);
    res.preemptions = static_cast<int>(rec.preempted.size());
    if (engine.batcher().kvEnabled())
        // Post-plan reservation peak of this step.
        res.kvUtilization = engine.batcher().kvUtilization();
    captureStepShares(plan, res, static_cast<int>(i), rec.shares);
    engine.commitStep(plan, t + res.duration);
    if (res.retuned)
        rec.retune = engine.lastRetune();
    rec.completions = engine.takeFinished();
    rec.result = res;
    return rec;
}

void
ServingSimulator::applyStep(std::size_t i, StepRecord rec)
{
    const ServingStepResult &res = rec.result;
    admissions_ += rec.admissions;
    for (const PreemptionRecord &p : rec.preempted) {
        metrics_.recordPreemption(p.sloClass);
        LAER_TRACE_INSTANT(config_.trace, poolTrack(i), "preempt",
                           "serve", res.start,
                           {TraceArg{"class", p.sloClass},
                            TraceArg{"id", p.requestId}});
    }
    Slot &slot = slots_[i];
    slot.stats.preemptions +=
        static_cast<std::int64_t>(rec.preempted.size());
    replayStepTrace(rec.preempted, res.start, rec.shares);
    if (rec.idle)
        return;

    slot.freeAt = res.start + res.duration;
    if (slot.engine().batcher().kvEnabled()) {
        metrics_.recordKvUtilization(res.kvUtilization);
        slot.stats.kvUtil.add(res.kvUtilization);
    }
    ++slot.stats.steps;
    profExecMs_ += rec.execMs;
    if (config_.trace != nullptr) {
        const char *kind = res.prefill > 0 && res.decode > 0
                               ? "mixed_step"
                           : res.prefill > 0 ? "prefill_step"
                                             : "decode_step";
        config_.trace->span(poolTrack(i), kind, "serve", res.start,
                            res.duration,
                            {TraceArg{"tokens", res.tokens},
                             TraceArg{"prefill", res.prefill},
                             TraceArg{"decode", res.decode},
                             TraceArg{"kv_util", res.kvUtilization},
                             TraceArg{"retuned", res.retuned}});
    }
    if (config_.metricsRegistry != nullptr)
        config_.metricsRegistry->histogram("serve.step_time_s")
            .observe(res.duration);
    if (res.retuned) {
        const RetuneWallSample &sample = rec.retune;
        retuneWall_.push_back(sample);
        // Solver wall time drawn on the simulated timeline: the span
        // starts at the retuning step and is wallMs long, so a budget
        // overrun is visible at a glance even though the solver runs
        // off the simulated clock.
        LAER_TRACE_SPAN(config_.trace, plannerTrack(i), "retune",
                        "planner", sample.simTime, sample.wallMs * 1e-3,
                        {TraceArg{"wall_ms", sample.wallMs},
                         TraceArg{"budget_ms", config_.tunerBudgetMs},
                         TraceArg{"over_budget", sample.overBudget}});
        LAER_METRIC_OBSERVE(config_.metricsRegistry,
                            "planner.retune_wall_ms", sample.wallMs);
        if (sample.overBudget)
            LAER_METRIC_COUNT(config_.metricsRegistry,
                              "planner.retune_over_budget", 1);
    }
    harvestFinished(static_cast<int>(i), std::move(rec.completions));

    if (config_.policy == ServingPolicy::Disaggregated &&
        config_.disagg.sharedLayout) {
        // The decode pool (leader) tunes from combined traffic; the
        // prefill pool adopts each fresh layout.
        if (i == 1 && res.retuned)
            slots_[0].engine().setLayouts(slots_[1].engine().layouts());
        if (i == 0)
            slots_[1].engine().addExternalRouting(
                slots_[0].engine().lastRouting());
    }
    steps_.push_back(res);
}

Seconds
ServingSimulator::nextEventTime() const
{
    // An engine wakes at its finish when it has work, when it is
    // Loading or Draining (the ready / idle moment is itself the event
    // the control plane waits on), or when a deferred fail-stop lands
    // there. Past times are not events: the pumps re-evaluate every
    // source each step, so a due-but-unserviceable source (an arrival
    // held at a closed door, a blocked retry front) never wedges the
    // clock; the revival it waits on has its own wake.
    Seconds t = kNever;
    for (const Slot &slot : slots_) {
        const EngineState state = slot.engine().state();
        const bool wakes = slot.engine().hasWork() ||
                           slot.inc.pendingKill ||
                           state == EngineState::Loading ||
                           state == EngineState::Draining;
        if (wakes && slot.freeAt > now_)
            t = std::min(t, slot.freeAt);
    }
    if (lookaheadValid_ && lookahead_.arrival > now_)
        t = std::min(t, lookahead_.arrival);
    if (!migrations_.empty() && migrations_.front().readyAt > now_)
        t = std::min(t, migrations_.front().readyAt);
    if (nextFault_ < faultPlan_.size() &&
        faultPlan_[nextFault_].time > now_)
        t = std::min(t, faultPlan_[nextFault_].time);
    if (!retryQueue_.empty() && retryQueue_.front().readyAt > now_)
        t = std::min(t, retryQueue_.front().readyAt);
    return t;
}

void
ServingSimulator::setBarrier(Seconds t)
{
    LAER_CHECK(t > now_, "barrier " << t << " is not in the future of "
                                    << now_);
    barrier_ = t;
}

bool
ServingSimulator::step()
{
    maybeSnapshot();
    if (!config_.selfProfile)
        return config_.desParallel ? stepWindow() : stepOnce();
    const auto step_start = std::chrono::steady_clock::now();
    const bool more = config_.desParallel ? stepWindow() : stepOnce();
    profStepMs_ += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - step_start)
                       .count();
    return more;
}

bool
ServingSimulator::stepOnce()
{
    applyFaults();
    applyReconfig();
    pumpArrivals();
    pumpRetries();
    pumpMigrations();
    if (runDueEngines())
        return true;
    const Seconds t = nextEventTime();
    if (t == kNever) {
        // Fully drained — nothing in any pool or in flight between
        // them.
        for (const Slot &slot : slots_) {
            LAER_ASSERT(!slot.engine().hasWork(),
                        "run ended while a pool holds live requests");
            LAER_ASSERT(!slot.inc.pendingKill,
                        "run ended with a fail-stop still deferred");
        }
        LAER_ASSERT(migrations_.empty(),
                    "run ended with contexts in flight");
        LAER_ASSERT(!pending_.active,
                    "run ended mid-reconfiguration");
        LAER_ASSERT(retryQueue_.empty(),
                    "run ended with retries parked");
        return false;
    }
    LAER_ASSERT(t > now_, "simulation failed to advance");
    now_ = t;
    return true;
}

// ---- windowed event core (ServingConfig::desParallel) ----------------
// Between barriers the engines are share-nothing partitions: requests
// never move engine-to-engine outside a reconfiguration, and arrivals
// are pre-binned before the fan-out. Each worker advances one engine's
// private state (batcher, KV pool, RNG stream — disjoint per engine)
// and buffers the records produceStep() returns; the merge hands them
// to applyStep() in the order a serial sweep would have produced. Any
// thread count therefore yields bit-identical results (difftest lane
// serial-vs-parallel-des).

bool
ServingSimulator::stepWindow()
{
    // Reconfigurations couple the engines (drain re-homing, pool
    // rebuilds, held queues), so the windowed core falls back to the
    // per-event serial path until the topology settles. The fallback
    // is itself deterministic, preserving thread-count equivalence.
    // Fault plans couple them the same way (retries hop engines, kills
    // re-home), so a faulted run stays on the serial core throughout.
    if (config_.faults.enabled() || reconfigPending())
        return stepOnce();

    // The window runs to the next control barrier or snapshot
    // boundary, whichever comes first. Both are time grids, not
    // events: the serial core's clock lands ON events, the
    // windowed core's clock walks the grid.
    Seconds window_end = barrier_;
    if (config_.metricsRegistry != nullptr &&
        config_.snapshotInterval > 0.0)
        window_end = std::min(window_end, nextSnapshot_);
    LAER_ASSERT(window_end > now_, "window end not in the future");

    std::vector<std::vector<Request>> bins =
        binWindowArrivals(window_end);

    bool busy = lookaheadValid_ || !migrations_.empty();
    for (std::size_t i = 0; i < slots_.size() && !busy; ++i)
        busy = slots_[i].engine().hasWork() ||
               slots_[i].engine().state() == EngineState::Loading ||
               !bins[i].empty();
    if (!busy) {
        LAER_ASSERT(offeringClosed_,
                    "windowed run idle with the offering open");
        LAER_ASSERT(!pending_.active, "run ended mid-reconfiguration");
        return false;
    }

    std::vector<WindowBuffer> buffers(slots_.size());
    const auto body = [&](int i) {
        runEngineWindow(static_cast<std::size_t>(i), window_end,
                        bins[static_cast<std::size_t>(i)],
                        buffers[static_cast<std::size_t>(i)]);
    };
    const auto fanout_start = std::chrono::steady_clock::now();
    if (threadPool_ != nullptr)
        threadPool_->parallelFor(static_cast<int>(slots_.size()),
                                 body);
    else
        for (int i = 0; i < static_cast<int>(slots_.size()); ++i)
            body(i);
    const auto fanout_end = std::chrono::steady_clock::now();
    const double fanout_ms =
        std::chrono::duration<double, std::milli>(fanout_end -
                                                  fanout_start)
            .count();
    mergeWindowBuffers(buffers);
    const double merge_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - fanout_end)
            .count();

    // Windowed-core self-profile (ROADMAP open item 1: measure the
    // fan-out before tuning it). Wall clock flows only INTO these
    // accumulators — never back into simulated state — so the
    // attached/unattached runs still price identically.
    ++descoreWindows_;
    descoreFanoutMs_ += fanout_ms;
    descoreMergeMs_ += merge_ms;
    std::int64_t window_steps = 0;
    for (const WindowBuffer &buf : buffers) {
        window_steps += static_cast<std::int64_t>(buf.steps.size());
        descoreWorkerBusyMs_ += buf.wallMs;
        descoreBarrierWaitMs_ += std::max(0.0, fanout_ms - buf.wallMs);
    }
    descoreSteps_ += window_steps;
    if (config_.trace != nullptr) {
        // Spans land on the simulated timeline (the window interval);
        // the wall-time measurements ride along as args, the retune
        // span idiom.
        Seconds span_end = window_end;
        if (span_end == kNever) {
            span_end = now_;
            for (const Slot &slot : slots_)
                span_end = std::max(span_end, slot.freeAt);
        }
        const Seconds dur = std::max(0.0, span_end - now_);
        config_.trace->span(
            config_.trace->track(obsPrefix() + "descore"), "window",
            "descore", now_, dur,
            {TraceArg{"steps", static_cast<int>(window_steps)},
             TraceArg{"fanout_ms", fanout_ms},
             TraceArg{"merge_ms", merge_ms}});
        for (std::size_t i = 0; i < buffers.size(); ++i) {
            if (buffers[i].steps.empty())
                continue;
            config_.trace->span(
                config_.trace->track(obsPrefix() +
                                     slots_[i].engine().slice().name +
                                     "/window"),
                "engine_window", "descore", now_, dur,
                {TraceArg{"steps",
                          static_cast<int>(buffers[i].steps.size())},
                 TraceArg{"busy_ms", buffers[i].wallMs},
                 TraceArg{"barrier_wait_ms",
                          std::max(0.0,
                                   fanout_ms - buffers[i].wallMs)}});
        }
    }

    if (window_end == kNever)
        // No barrier, no snapshot grid: the fan-out just ran the whole
        // run to the drain. finish() raises the clock to the last
        // engine's finish.
        return false;
    now_ = window_end;
    return true;
}

std::vector<std::vector<Request>>
ServingSimulator::binWindowArrivals(Seconds window_end)
{
    std::vector<std::vector<Request>> bins(slots_.size());
    // Dispatch against the window-start load picture plus this
    // window's own binned counts. The serial core reads live loads at
    // each arrival instant; freezing the picture at the window start
    // makes the choice independent of engine execution order — the
    // windowed core's one documented semantic deviation (docs/PERF.md).
    std::vector<int> load(slots_.size(), 0);
    for (std::size_t i = 0; i < slots_.size(); ++i)
        load[i] = slots_[i].engine().load();
    for (const Request *next = peekArrival();
         next != nullptr && next->arrival < window_end;
         next = peekArrival()) {
        const int target = leastLoadedLive(load);
        LAER_ASSERT(target >= 0, "no live replica to dispatch to");
        const auto i = static_cast<std::size_t>(target);
        bins[i].push_back(admitArrival(i));
        ++load[i];
    }
    return bins;
}

void
ServingSimulator::runEngineWindow(std::size_t i, Seconds window_end,
                                  const std::vector<Request> &arrivals,
                                  WindowBuffer &buf)
{
    ServingEngine &engine = slots_[i].engine();
    const auto wall_start = std::chrono::steady_clock::now();
    Seconds free_at = slots_[i].freeAt;
    // Earliest instant the engine can act; never before the window.
    Seconds clock = std::max(now_, free_at);
    std::size_t next = 0;
    const bool open = engine.accepting();
    LAER_ASSERT(open || arrivals.empty(),
                "arrivals binned to a parked engine");
    while (open) {
        while (next < arrivals.size() &&
               arrivals[next].arrival <= clock)
            engine.enqueue(arrivals[next++]);
        if (engine.state() == EngineState::Loading) {
            // The shard-landing moment is the engine's own event; it
            // promotes itself when that falls inside the window.
            if (free_at >= window_end)
                break;
            engine.setReady();
            continue; // clock >= free_at already
        }
        if (!engine.hasWork()) {
            if (next >= arrivals.size())
                break;
            clock = std::max(clock, arrivals[next].arrival);
            continue;
        }
        if (clock >= window_end)
            break;
        // Only back-pressure pauses admission, and back-pressure is
        // disaggregation-only — which the windowed core rejects — so
        // produceStep() never comes back idle here.
        buf.steps.push_back(produceStep(i, clock));
        const ServingStepResult &res = buf.steps.back().result;
        free_at = res.start + res.duration;
        clock = free_at;
    }
    // Arrivals the loop did not reach (engine loading past the window
    // end, or busy across it) still join the queue — the serial core
    // enqueues on arrival regardless of engine readiness.
    while (next < arrivals.size())
        engine.enqueue(arrivals[next++]);
    buf.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
}

void
ServingSimulator::mergeWindowBuffers(std::vector<WindowBuffer> &buffers)
{
    // Apply in (step start, engine index) order — exactly how a
    // serial sweep would have interleaved the engines (each engine's
    // step starts are strictly increasing, so a k-way front merge
    // suffices). The latency collector's streaming percentiles are
    // order-sensitive; this order is a pure function of the window
    // inputs, never of worker scheduling.
    std::vector<std::size_t> cursor(buffers.size(), 0);
    for (;;) {
        std::size_t b = buffers.size();
        Seconds best_start = 0.0;
        for (std::size_t i = 0; i < buffers.size(); ++i) {
            if (cursor[i] >= buffers[i].steps.size())
                continue;
            const Seconds start =
                buffers[i].steps[cursor[i]].result.start;
            if (b == buffers.size() || start < best_start) {
                b = i;
                best_start = start;
            }
        }
        if (b == buffers.size())
            break;
        applyStep(b, std::move(buffers[b].steps[cursor[b]++]));
    }
}

ServingReport
ServingSimulator::run()
{
    while (step()) {
    }
    return finish();
}

ServingReport
ServingSimulator::finish()
{
    // The clock stops at the last event *start*; the run ends when the
    // last engine drains. A still-Loading engine never served: its
    // ready time does not extend the run.
    for (const Slot &slot : slots_)
        if (slot.engine().state() != EngineState::Loading)
            now_ = std::max(now_, slot.freeAt);
    accruePower(now_);
    ServingReport report = buildReport();
    if (config_.metricsRegistry != nullptr) {
        MetricsRegistry &reg = *config_.metricsRegistry;
        updateRegistryGauges();
        if (config_.selfProfile) {
            reg.gauge("profile.retune_ms").set(report.profRetuneMs);
            reg.gauge("profile.step_pricing_ms")
                .set(report.profStepPricingMs);
            reg.gauge("profile.event_loop_ms").set(report.profEventLoopMs);
        }
        if (config_.desParallel) {
            // Windowed-core fan-out profile. profile.* is wall-clock
            // noise the difftest layer ignores by default, so these
            // are lane- and golden-safe.
            reg.gauge("profile.descore.windows")
                .set(static_cast<double>(descoreWindows_));
            reg.gauge("profile.descore.steps")
                .set(static_cast<double>(descoreSteps_));
            reg.gauge("profile.descore.fanout_ms")
                .set(descoreFanoutMs_);
            reg.gauge("profile.descore.worker_busy_ms")
                .set(descoreWorkerBusyMs_);
            reg.gauge("profile.descore.merge_ms").set(descoreMergeMs_);
            reg.gauge("profile.descore.barrier_wait_ms")
                .set(descoreBarrierWaitMs_);
        }
        // A final snapshot at end-of-run, even when interval snapshots
        // are off, so --metrics-out always captures the run's totals.
        reg.recordSnapshot(now_);
    }
    return report;
}

ServingReport
ServingSimulator::buildReport() const
{
    ServingReport report;
    report.policy = config_.policy;
    report.offered = offered_;
    report.completed = metrics_.completed();
    report.sloMet = metrics_.sloMet();
    report.steps = static_cast<int>(steps_.size());
    report.retunes = static_cast<int>(retuneWall_.size());
    report.elapsed = now_;
    report.ttftP50 = metrics_.ttftPercentile(50.0);
    report.ttftP90 = metrics_.ttftPercentile(90.0);
    report.ttftP99 = metrics_.ttftPercentile(99.0);
    report.tpotP50 = metrics_.tpotPercentile(50.0);
    report.tpotP99 = metrics_.tpotPercentile(99.0);
    report.throughputTps = metrics_.throughput(now_);
    report.goodputTps = metrics_.goodput(now_);

    Accumulator tokens, step_time, imbalance;
    for (const ServingStepResult &s : steps_) {
        tokens.add(static_cast<double>(s.tokens));
        step_time.add(s.duration);
        imbalance.add(s.maxRelTokens);
        report.migrationTotal += s.migration;
        report.swapOutBytes += s.swapOutBytes;
        report.swapInBytes += s.swapInBytes;
        report.swapSeconds += s.swapTime;
    }
    report.meanBatchTokens = tokens.mean();
    report.meanStepTime = step_time.mean();
    report.meanMaxRelTokens = imbalance.mean();

    for (const Slot &slot : slots_)
        report.kvBudgetBytes += slot.engine().batcher().kvBudgetBytes();
    report.preemptions = metrics_.totalPreemptions();
    for (int c = 0; c < config_.batcher.numSloClasses; ++c)
        report.preemptionsByClass.push_back(metrics_.preemptions(c));
    report.meanKvUtilization = metrics_.meanKvUtilization();
    report.peakKvUtilization = metrics_.peakKvUtilization();
    report.attributionByClass = metrics_.attributionByClass();

    for (const Slot &slot : slots_) {
        PoolReport pool;
        pool.name = slot.engine().slice().name;
        pool.devices = slot.engine().slice().numDevices();
        pool.kvBudgetBytes = slot.engine().batcher().kvBudgetBytes();
        pool.steps = slot.stats.steps;
        pool.preemptions = slot.stats.preemptions;
        pool.meanKvUtilization = slot.stats.kvUtil.mean();
        pool.peakKvUtilization = slot.stats.kvUtil.max();
        report.pools.push_back(pool);
    }
    // Planner wall-time accounting, one sample per retune in applied
    // step order (sample times are simulated; wall times are real).
    report.tunerBudgetMs = config_.tunerBudgetMs;
    report.retuneWall = retuneWall_;
    double retune_ms = 0.0;
    for (const RetuneWallSample &sample : retuneWall_) {
        retune_ms += sample.wallMs;
        report.retuneWallMaxMs =
            std::max(report.retuneWallMaxMs, sample.wallMs);
        if (sample.overBudget)
            ++report.retuneBudgetOverruns;
    }
    if (!retuneWall_.empty())
        report.retuneWallMeanMs =
            retune_ms / static_cast<double>(retuneWall_.size());

    report.migrated = migrated_;
    report.kvTransferBytes = kvTransferBytes_;
    report.kvTransferSeconds = kvTransferSeconds_;
    report.transferStallSeconds = transferStallSeconds_;
    report.deviceSeconds = deviceSecondsSoFar();
    report.scalingEvents = scalingEvents_;

    if (config_.selfProfile) {
        report.profRetuneMs = retune_ms;
        report.profStepPricingMs =
            std::max(0.0, profExecMs_ - retune_ms);
        report.profEventLoopMs =
            std::max(0.0, profStepMs_ - profExecMs_);
    }

    // Availability accounting (all zero on fault-free runs): the live
    // record, with its MTTR mean closed. A report built mid-run
    // (finish() after manual step()ping) closes the still-open
    // degraded window against now_ without mutating it.
    AvailabilityReport &avail = report.availability;
    avail = avail_;
    if (avail.repairs > 0)
        avail.mttrMean = mttrSum_ / static_cast<double>(avail.repairs);
    std::int64_t degraded_tokens = degradedGoodTokens_;
    if (degradedSince_ >= 0.0) {
        avail.degradedSeconds += now_ - degradedSince_;
        degraded_tokens +=
            metrics_.goodTokens() - goodTokensAtDegradeStart_;
    }
    if (avail.degradedSeconds > 0.0)
        avail.degradedGoodputTps =
            static_cast<double>(degraded_tokens) / avail.degradedSeconds;
    return report;
}

} // namespace laer
