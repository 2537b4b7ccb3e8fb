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
      // One worker pool shared by every engine (engines step one at a
      // time, so there is no contention). threads == 1 stays pool-free.
      threadPool_(ThreadPool::resolveThreads(config_.threads) > 1
                      ? std::make_unique<ThreadPool>(config_.threads)
                      : nullptr),
      arrivals_(config_.arrival),
      metrics_(config_.sloTtft, config_.metricsMode),
      slots_(buildSlots()), obs_(config_),
      faults_(config_.faults, static_cast<int>(slots_.size()),
              config_.horizon, config_.arrival.numSloClasses),
      barrier_(kNever)
{
}

ServingSimulator::~ServingSimulator() = default;

std::vector<EngineSlot>
ServingSimulator::buildSlots() const
{
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
    std::vector<EngineSlot> slots(slices.size());
    for (std::size_t i = 0; i < slices.size(); ++i)
        slots[i].inc.engine = std::make_unique<ServingEngine>(
            slices[i], engineConfigFor(slices[i], static_cast<int>(i)));
    // Replica slices beyond the initial count start parked: their
    // devices are dark until the control plane spins them up.
    if (config_.replicas.replicaDevices > 0)
        for (std::size_t i = config_.replicas.initialReplicas;
             i < slots.size(); ++i)
            slots[i].engine().drain();
    return slots;
}

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
    for (const EngineSlot &slot : slots_)
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
    return numEngines() - countSlots(slots_, EngineState::Stopped);
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
    return reconfig_.busy(slots_);
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
    EngineSlot &slot = slots_[i];
    LAER_ASSERT(slot.engine().state() == EngineState::Stopped &&
                    !slot.inc.pendingKill && slot.inc.drainStart < 0.0,
                "rebuild of slot " << i << " while its engine is live");
    // The fresh incarnation is built before the old one (which may own
    // `slice`) is released.
    slot.inc = EngineSlot::Incarnation{std::make_unique<ServingEngine>(
        slice, engineConfigFor(slice, static_cast<int>(i)),
        EngineState::Loading)};
    // Every device of the pool restores its own shard of the
    // inference-time model state (Sec. 3.1 residency: fully sharded
    // bf16 parameters + the unsharded working set) over its host link
    // in parallel, so the per-device bytes set the load delay.
    const Bytes per_device =
        inferenceModelState(config_.model,
                            slot.engine().slice().numDevices(),
                            config_.capacity)
            .total();
    const Seconds delay = static_cast<double>(per_device) / kHostLinkBw;
    slot.freeAt = now_ + delay;
    // Dropping the old stragglers and masked devices may close the
    // degraded window; a fault-killed slot stays degraded until its
    // Active promote in applyReconfig() closes its MTTR clock.
    faults_.updateDegraded(slots_, now_, metrics_.goodTokens());
    return delay;
}

void
ServingSimulator::beginEngineDrain(std::size_t i)
{
    EngineSlot &slot = slots_[i];
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
    target = std::min(std::max(target, 1), numEngines());
    const int live = activeReplicas();
    if (reconfigPending() || target == live)
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
        reconfig_.record({now_, now_ + delay, "replicas", live, target,
                          delay},
                         obs_);
        return true;
    }
    // Scale down: close admission on the highest live slots; the
    // drain itself completes in applyReconfig() at each victim's next
    // idle moment.
    reconfig_.begin({now_, 0.0, "replicas", live, target}, false);
    int to_drain = live - target;
    for (int i = numEngines() - 1; i >= 0 && to_drain > 0; --i) {
        if (!slots_[i].engine().accepting())
            continue;
        beginEngineDrain(static_cast<std::size_t>(i));
        --to_drain;
    }
    applyReconfig();
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
    // The floor covers both the expert-hosting constraint and — with
    // the KV model on — memory feasibility, so an accepted split can
    // never fail inside the post-drain engine rebuild.
    if (!reconfig_.splitFeasible(prefill_devices, slots_, cluster_,
                                 minPoolDevices()))
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
    for (const PendingRetry &r : faults_.retries())
        max_ctx = std::max(max_ctx, r.request.fullContext());
    for (const EngineSlot &slot : slots_)
        max_ctx = std::max(max_ctx,
                           slot.engine().batcher().maxLiveFullContext());
    for (const PendingMigration &m : migrations_)
        max_ctx = std::max(max_ctx, m.request.fullContext());
    if (max_ctx > 0) {
        for (const int pool :
             {prefill_devices, cluster_.numDevices() - prefill_devices}) {
            // The new pool's KV cache, asked as a batcher would ask it.
            const PoolKv kv = poolKvFor(pool);
            if (kv.budget > 0 &&
                KvCachePool(kv.budget, kv.bytesPerToken, kv.blockTokens)
                        .bytesFor(max_ctx) > kv.budget)
                return false;
        }
    }

    reconfig_.begin({now_, 0.0, "split",
                     slots_[0].engine().slice().numDevices(),
                     prefill_devices},
                    true);
    for (std::size_t i = 0; i < 2; ++i)
        beginEngineDrain(i);
    applyReconfig();
    return true;
}

void
ServingSimulator::applyReconfig()
{
    // Promote engines whose model shards have landed.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        EngineSlot &slot = slots_[i];
        if (slot.engine().state() != EngineState::Loading ||
            slot.freeAt > now_)
            continue;
        slot.engine().setReady();
        if (slot.faultDownSince >= 0.0) {
            // The slot is serving again: close its MTTR clock, whether
            // a scripted repair or the autoscaler rebuilt it.
            faults_.closeOutage(slot, i, now_, obs_);
            faults_.updateDegraded(slots_, now_, metrics_.goodTokens());
        }
    }

    // Complete due drains. A Draining engine whose slot is free at
    // now_ has no step in flight: its live requests take the recompute
    // disposition and re-home.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        EngineSlot &slot = slots_[i];
        if (slot.engine().state() != EngineState::Draining ||
            slot.freeAt > now_)
            continue;
        accruePower(now_);
        std::vector<Request> evicted = slot.engine().drain();
        if (obs_.trace() != nullptr && slot.inc.drainStart >= 0.0)
            obs_.trace()->span(
                obs_.poolTrack(slots_, i), "drain", "ctrl",
                slot.inc.drainStart, now_ - slot.inc.drainStart,
                {TraceArg{"evicted", static_cast<int>(evicted.size())}});
        slot.inc.drainStart = -1.0;
        if (reconfig_.split()) {
            for (const Request &r : evicted)
                if (ReqTraceRecorder *rt = obs_.sampled(r.id))
                    rt->onRehome(r.id, now_, -1);
            reconfig_.held(i) = std::move(evicted);
            continue;
        }
        for (const Request &r : evicted) {
            // Under faults the survivors may all be dead too: the
            // eviction then takes the retry path.
            const int live = leastLoadedLive();
            if (live < 0) {
                faults_.scheduleRetry(r, now_, now_, obs_);
                continue;
            }
            slots_[static_cast<std::size_t>(live)].engine().enqueue(r);
            if (ReqTraceRecorder *rt = obs_.sampled(r.id))
                rt->onRehome(r.id, now_, live);
        }
        reconfig_.addRehomed(static_cast<int>(evicted.size()));
    }

    if (!reconfig_.active())
        return;
    if (!reconfig_.split()) {
        if (countSlots(slots_, EngineState::Draining) == 0)
            reconfig_.complete(now_, 0.0, obs_);
        return;
    }
    if (countSlots(slots_, EngineState::Stopped) < 2)
        return;
    // Both pools drained: re-partition, rebuild each engine on its new
    // slice behind the reshard delay, and re-home the held requests
    // pool-to-pool (prefill work stays prefill work).
    const int n = cluster_.numDevices();
    const int prefill = reconfig_.splitTarget();
    const std::vector<DevicePoolSlice> slices = partitionCluster(
        cluster_, {prefill, n - prefill}, {"prefill", "decode"});
    Seconds delay = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
        delay = std::max(delay, rebuildEngine(i, slices[i]));
        for (const Request &r : reconfig_.held(i)) {
            slots_[i].engine().enqueue(r);
            if (ReqTraceRecorder *rt = obs_.sampled(r.id))
                rt->onRehome(r.id, now_, static_cast<int>(i));
        }
        reconfig_.addRehomed(static_cast<int>(reconfig_.held(i).size()));
    }
    reconfig_.complete(now_ + delay, delay, obs_);
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
        offeringClosed_ = true;
        lookaheadValid_ = false;
        return nullptr;
    }
    return &lookahead_;
}

Request
ServingSimulator::admitArrival(std::size_t target)
{
    ++totals_.offered;
    const Request &r = lookahead_;
    LAER_TRACE_INSTANT(obs_.trace(), obs_.poolTrack(slots_, target),
                       "admit", "serve", r.arrival,
                       {TraceArg{"id", r.id},
                        TraceArg{"prefill", r.prefillTokens},
                        TraceArg{"decode", r.decodeTokens},
                        TraceArg{"class", r.sloClass}});
    if (ReqTraceRecorder *rt = obs_.sampled(r.id))
        rt->onAdmit(r.id, r.sloClass, r.arrival, r.arrival,
                    static_cast<int>(target));
    lookaheadValid_ = false;
    return r;
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
            // One door rule for arrivals and retries: a context the
            // decode pool can never hold fails here, before a prefill
            // and a KV transfer are spent on it.
            if (passDoor(0, request) == Door::Failed)
                continue;
        }
        slots_[i].engine().enqueue(request);
    }
}

void
ServingSimulator::harvestFinished(int pool_index,
                                  std::vector<Request> finished)
{
    const bool disagg = config_.policy == ServingPolicy::Disaggregated;
    for (Request &r : finished) {
        // In the prefill pool the "finished" request is the
        // prefill-only copy: its prefill completed and the first token
        // is out. A single-token request has nothing left to decode and
        // no KV to move.
        if (!disagg || pool_index == 1 || r.decodeTarget <= 1) {
            metrics_.record(r);
            obs_.complete(slots_, r, config_.sloTtft, metrics_);
            continue;
        }
        if (faults_.linkDown()) {
            // The boundary link is down: the handover aborts before
            // touching the wire and the context takes the retry path
            // (its KV was released at the pool boundary, so the retry
            // recomputes the prefill).
            // killed_at is the prefill finish: the harvest runs at
            // the wake that launched the finishing chunk, so now_
            // still sits at the chunk start — inside the step span
            // already attributed as compute.
            const Seconds finished_at = r.finishTime;
            faults_.abortTransfer(std::move(r), finished_at, now_, obs_);
            continue;
        }
        // Hand the context over: its KV crosses the inter-pool links.
        const Bytes bytes =
            r.contextLength() * kvBytesPerToken(config_.model);
        Seconds wire =
            kvTransferTime(cluster_, slots_[0].engine().slice(),
                           slots_[1].engine().slice(), bytes);
        if (faults_.linkFactor() != 1.0)
            wire *= faults_.linkFactor(); // degraded: stretched wire
        LAER_TRACE_SPAN(obs_.trace(), obs_.kvTrack(), "kv_transfer",
                        "serve", r.finishTime, wire,
                        {TraceArg{"id", r.id}, TraceArg{"bytes", bytes},
                         TraceArg{"context", r.contextLength()}});
        if (ReqTraceRecorder *rt = obs_.sampled(r.id))
            rt->onKvTransfer(r.id, r.finishTime, wire);
        const Seconds ready_at = r.finishTime + wire;
        r.decodeTokens = r.decodeTarget;
        r.decodeTarget = 0;
        r.finishTime = -1.0;
        // Keep the queue ordered by arrival at the decode pool:
        // per-context wire times differ, so a short context finishing
        // later can still land first.
        insertByReadyAt(migrations_, PendingMigration{r, ready_at});
        totals_.kvTransferBytes += bytes;
        totals_.kvTransferSeconds += wire;
        ++totals_.migrated;
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
        const Door door = passDoor(1, m.request);
        if (door == Door::Wait ||
            (door == Door::Enter &&
             !decode.batcher().canAdmitContext(m.request.contextLength())))
            break; // decode pool full or down: the context waits
        if (door == Door::Enter) {
            totals_.transferStallSeconds += now_ - m.readyAt;
            if (ReqTraceRecorder *rt = obs_.sampled(m.request.id))
                rt->onTransferStall(m.request.id, m.readyAt, now_);
            decode.enqueue(m.request);
        }
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

// ---- fault effects (src/fault/) ----------------------------------------
// FaultRecovery (serve/fault_recovery.hh) decides each event and keeps
// the fault state; the effects below drain or rebuild engines and abort
// transfers, so they stay with the slot lifecycle. An empty plan leaves
// them inert.

void
ServingSimulator::applyFaults()
{
    const bool disagg = config_.policy == ServingPolicy::Disaggregated;
    while (const FaultEvent *event = faults_.nextDue(now_)) {
        if (!faults_.apply(*event, slots_, disagg,
                           static_cast<int>(migrations_.size()), now_,
                           obs_))
            continue;
        // Effects that emit events of their own follow the instant.
        const std::size_t target = static_cast<std::size_t>(event->target);
        if (event->kind == FaultKind::ReplicaFail &&
            slots_[target].freeAt <= now_) {
            applyKill(target);
        } else if (event->kind == FaultKind::ReplicaRepair) {
            // Rebuild the fault-killed slot behind its model-load
            // delay; autoscaler rebuilds take the requestReplicas()
            // path and close the same MTTR clock.
            accruePower(now_);
            const Seconds delay =
                rebuildEngine(target, slots_[target].engine().slice());
            const int live = activeReplicas();
            reconfig_.record(
                {now_, now_ + delay, "repair", live, live + 1, delay},
                obs_);
        } else if (event->kind == FaultKind::LinkDown) {
            // Transfers die on the wire: abort-and-retry each one.
            std::deque<PendingMigration> inflight;
            inflight.swap(migrations_);
            for (PendingMigration &m : inflight) {
                // The full wire span was attributed at harvest, so the
                // retry dead time starts at the wire's would-be end
                // (the backoff usually expires earlier; the wait
                // clamps to 0).
                faults_.abortTransfer(std::move(m.request), m.readyAt,
                                      now_, obs_);
            }
        }
        faults_.updateDegraded(slots_, now_, metrics_.goodTokens());
    }
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
ServingSimulator::applyKill(std::size_t i)
{
    EngineSlot &slot = slots_[i];
    slot.inc.pendingKill = false;
    // The dying engine's completed work is real and was already
    // routed when its last step was applied; only the live queue is
    // lost. A drain the kill interrupts never completes.
    slot.inc.drainStart = -1.0;
    accruePower(now_);
    std::vector<Request> evicted = slot.engine().drain();
    LAER_TRACE_INSTANT(obs_.trace(), obs_.faultTrack(), "replica_dead",
                       "fault", now_,
                       {TraceArg{"pool", static_cast<int>(i)},
                        TraceArg{"evicted",
                                 static_cast<int>(evicted.size())}});
    // drain() already gave every eviction the KV-loss recompute
    // disposition (restoring = decodeDone > 0, prefill progress
    // cleared); the retry queue re-admits them after backoff.
    for (Request &r : evicted)
        faults_.scheduleRetry(std::move(r), now_, now_, obs_);
}

ServingSimulator::Door
ServingSimulator::passDoor(int target, const Request &request)
{
    if (target < 0 ||
        !slots_[static_cast<std::size_t>(target)].engine().accepting()) {
        // A pending reconfiguration is a revival too: a split's
        // rebuilt pools accept again once both drains land.
        if (reconfig_.active() ||
            countSlots(slots_, EngineState::Loading) > 0 ||
            faults_.revivalPlanned())
            return Door::Wait;
    } else if (slots_[static_cast<std::size_t>(target)]
                   .engine()
                   .batcher()
                   .canEverHold(request) &&
               (target != 0 ||
                config_.policy != ServingPolicy::Disaggregated ||
                decodeDoorAdmits(slots_[1].engine(), request))) {
        return Door::Enter;
    }
    faults_.fail(request, now_, obs_);
    return Door::Failed;
}

void
ServingSimulator::pumpRetries()
{
    const bool disagg = config_.policy == ServingPolicy::Disaggregated;
    while (faults_.retrying() > 0 &&
           faults_.retries().front().readyAt <= now_) {
        const Request &front = faults_.retries().front().request;
        // Disaggregated retries keep their phase: a context still owed
        // its prefill goes back to the prefill pool, a decode-resident
        // one to the decode pool. While the boundary link is down a
        // prefill-side retry holds (re-running its prefill would only
        // reach the same dead boundary and burn the retry budget); the
        // LinkUp event is the revival it waits on.
        const int pool = front.decodeTarget > 0 ? 0 : 1;
        const int target =
            !disagg ? leastLoadedLive()
            : pool == 0 && faults_.linkDown() ? -1
                                              : pool;
        const Door door = passDoor(target, front);
        if (door == Door::Wait)
            break; // a revival is coming: hold the front
        const PendingRetry retry = faults_.popRetry();
        if (door == Door::Failed)
            continue;
        if (ReqTraceRecorder *rt = obs_.sampled(retry.request.id))
            rt->onRetryWait(retry.request.id, retry.killedAt, now_);
        // Re-admission at class FRONT: the retry already waited out
        // its failure and must not queue behind the backlog again.
        slots_[static_cast<std::size_t>(target)].engine().enqueueFront(
            retry.request);
    }
}

bool
ServingSimulator::runDueEngines()
{
    bool ran = false;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const EngineSlot &slot = slots_[i];
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

StepRecord
ServingSimulator::produceStep(std::size_t i, Seconds t)
{
    const EngineSlot &slot = slots_[i];
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
    obs_.captureStepShares(plan, res, static_cast<int>(i), rec.shares);
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
    totals_.admissions += rec.admissions;
    for (const PreemptionRecord &p : rec.preempted)
        metrics_.recordPreemption(p.sloClass);
    EngineSlot &slot = slots_[i];
    slot.stats.preemptions +=
        static_cast<std::int64_t>(rec.preempted.size());
    obs_.step(slots_, i, rec, config_.tunerBudgetMs);
    if (rec.idle)
        return;

    slot.freeAt = res.start + res.duration;
    if (slot.engine().batcher().kvEnabled()) {
        metrics_.recordKvUtilization(res.kvUtilization);
        slot.stats.kvUtil.add(res.kvUtilization);
    }
    ++slot.stats.steps;
    profExecMs_ += rec.execMs;
    if (res.retuned)
        totals_.retuneWall.push_back(rec.retune);
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
    totals_.steps.push_back(res);
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
    for (const EngineSlot &slot : slots_) {
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
    return std::min(t, faults_.nextWake(now_));
}

void
ServingSimulator::setBarrier(Seconds t)
{
    LAER_CHECK(t > now_, "barrier " << t << " is not in the future of "
                                    << now_);
    barrier_ = t;
}

void
ServingSimulator::updateGauges()
{
    obs_.updateGauges(slots_, metrics_, totals_, migrations_.size(),
                      reconfig_.heldCount(),
                      config_.faults.enabled() ? &faults_ : nullptr,
                      deviceSecondsSoFar(), now_);
}

bool
ServingSimulator::step()
{
    obs_.maybeSnapshot(now_, [this] { updateGauges(); });
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
        for (const EngineSlot &slot : slots_) {
            LAER_ASSERT(!slot.engine().hasWork(),
                        "run ended while a pool holds live requests");
            LAER_ASSERT(!slot.inc.pendingKill,
                        "run ended with a fail-stop still deferred");
        }
        LAER_ASSERT(migrations_.empty(),
                    "run ended with contexts in flight");
        LAER_ASSERT(!reconfig_.active(), "run ended mid-reconfiguration");
        LAER_ASSERT(faults_.retrying() == 0,
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
    const Seconds window_end = std::min(barrier_, obs_.snapshotGrid());
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
        LAER_ASSERT(!reconfig_.active(), "run ended mid-reconfiguration");
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
    // Windowed-core self-profile: measure the fan-out before tuning
    // it.
    obs_.window(slots_, now_, window_end, buffers, fanout_ms, merge_ms);

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
    // serial sweep would have interleaved the engines: each engine's
    // step starts are strictly increasing, so a stable sort of the
    // buffers taken in engine order yields it. The latency collector's
    // streaming percentiles are order-sensitive; this order is a pure
    // function of the window inputs, never of worker scheduling.
    std::vector<std::pair<std::size_t, StepRecord *>> order;
    for (std::size_t i = 0; i < buffers.size(); ++i)
        for (StepRecord &rec : buffers[i].steps)
            order.emplace_back(i, &rec);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto &a, const auto &b) {
                         return a.second->result.start <
                                b.second->result.start;
                     });
    for (const auto &[i, rec] : order)
        applyStep(i, std::move(*rec));
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
    for (const EngineSlot &slot : slots_)
        if (slot.engine().state() != EngineState::Loading)
            now_ = std::max(now_, slot.freeAt);
    accruePower(now_);
    ServingReport report = buildReport();
    updateGauges();
    obs_.finish(report, now_);
    return report;
}

ServingReport
ServingSimulator::buildReport() const
{
    ServingReport report;
    report.policy = config_.policy;
    report.offered = totals_.offered;
    report.completed = metrics_.completed();
    report.sloMet = metrics_.sloMet();
    report.steps = static_cast<int>(totals_.steps.size());
    report.retunes = static_cast<int>(totals_.retuneWall.size());
    report.elapsed = now_;
    report.ttftP50 = metrics_.ttftPercentile(50.0);
    report.ttftP90 = metrics_.ttftPercentile(90.0);
    report.ttftP99 = metrics_.ttftPercentile(99.0);
    report.tpotP50 = metrics_.tpotPercentile(50.0);
    report.tpotP99 = metrics_.tpotPercentile(99.0);
    report.throughputTps = metrics_.throughput(now_);
    report.goodputTps = metrics_.goodput(now_);

    Accumulator tokens, step_time, imbalance;
    for (const ServingStepResult &s : totals_.steps) {
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

    report.preemptions = metrics_.totalPreemptions();
    for (int c = 0; c < config_.batcher.numSloClasses; ++c)
        report.preemptionsByClass.push_back(metrics_.preemptions(c));
    report.meanKvUtilization = metrics_.meanKvUtilization();
    report.peakKvUtilization = metrics_.peakKvUtilization();
    report.attributionByClass = metrics_.attributionByClass();

    for (const EngineSlot &slot : slots_) {
        PoolReport pool;
        pool.name = slot.engine().slice().name;
        pool.devices = slot.engine().slice().numDevices();
        pool.kvBudgetBytes = slot.engine().batcher().kvBudgetBytes();
        pool.steps = slot.stats.steps;
        pool.preemptions = slot.stats.preemptions;
        pool.meanKvUtilization = slot.stats.kvUtil.mean();
        pool.peakKvUtilization = slot.stats.kvUtil.max();
        report.kvBudgetBytes += pool.kvBudgetBytes;
        report.pools.push_back(pool);
    }
    // Planner wall-time accounting, one sample per retune in applied
    // step order (sample times are simulated; wall times are real).
    report.tunerBudgetMs = config_.tunerBudgetMs;
    report.retuneWall = totals_.retuneWall;
    double retune_ms = 0.0;
    for (const RetuneWallSample &sample : totals_.retuneWall) {
        retune_ms += sample.wallMs;
        report.retuneWallMaxMs =
            std::max(report.retuneWallMaxMs, sample.wallMs);
        if (sample.overBudget)
            ++report.retuneBudgetOverruns;
    }
    if (!totals_.retuneWall.empty())
        report.retuneWallMeanMs =
            retune_ms / static_cast<double>(totals_.retuneWall.size());

    report.migrated = totals_.migrated;
    report.kvTransferBytes = totals_.kvTransferBytes;
    report.kvTransferSeconds = totals_.kvTransferSeconds;
    report.transferStallSeconds = totals_.transferStallSeconds;
    report.deviceSeconds = deviceSecondsSoFar();
    report.scalingEvents = reconfig_.log();

    if (config_.selfProfile) {
        report.profRetuneMs = retune_ms;
        report.profStepPricingMs =
            std::max(0.0, profExecMs_ - retune_ms);
        report.profEventLoopMs =
            std::max(0.0, profStepMs_ - profExecMs_);
    }

    // Availability accounting (all zero on fault-free runs).
    report.availability = faults_.report(now_, metrics_.goodTokens());
    return report;
}

} // namespace laer
