/**
 * @file
 * Seeded, deterministic fault injection for the serving simulator.
 *
 * Production fleets fail: devices fail-stop, NICs flap, hosts
 * straggle. This module gives the simulator a reproducible notion of
 * failure so the differential tester and the attribution machinery
 * become a recovery-correctness oracle. A `FaultConfig` names a fault
 * plan two ways, freely combined:
 *
 *  - scripted events: an explicit `FaultEvent` list (time, kind,
 *    target, magnitude), e.g. "kill replica 1 at t=1.5 s, repair it
 *    at t=2.5 s";
 *  - seeded MTBF draws: exponential inter-failure times at `mtbf`
 *    expanding into fail-stop replica faults, each paired with a
 *    scripted repair `mttr` seconds later. The expansion is a pure
 *    function of (seed, engine count, horizon), so a chaos campaign
 *    is replayed from its seed alone.
 *
 * expandFaultPlan() resolves both into one time-sorted event list; its
 * next event is one of the simulator's wake sources, so each fault
 * lands exactly on its own time. The fault kinds:
 *
 *  - ReplicaFail / ReplicaRepair: fail-stop of one engine slice and
 *    its rebuild (spin-up priced over the host link, like any scale
 *    decision). In-flight requests lose their KV and re-queue at
 *    class front with capped exponential backoff and a retry budget;
 *    budget exhaustion counts the request failed, never hung.
 *  - LinkDown / LinkUp / LinkDegrade: the disaggregated prefill ->
 *    decode boundary link dies, heals, or runs at `magnitude`x wire
 *    time. KV transfers in flight across a dead link abort and retry
 *    after repair.
 *  - StragglerStart / StragglerEnd: transient compute slowdown —
 *    engine `target`'s step durations scale by `magnitude` until the
 *    straggler clears.
 *  - DeviceFail / DeviceRepair: `magnitude` devices of engine
 *    `target`'s slice fail; the KV pool shrinks to the survivors'
 *    share (admission shrinks — graceful degradation, not an abort).
 *
 * Fault-free runs stay byte-for-byte: an empty plan expands to no
 * events, so every fault hook in the simulator is inert (no mode
 * switch guards them; the per-engine fault state lives in the
 * simulator's slot records), and the golden gates pin it.
 * Plan files (`--fault-plan`) use a line-oriented text format; see
 * parseFaultPlanFile() and docs/ROBUSTNESS.md.
 */

#ifndef LAER_FAULT_FAULT_HH
#define LAER_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hh"

namespace laer
{

/** What kind of failure (or recovery) an event injects. */
enum class FaultKind
{
    ReplicaFail,    //!< fail-stop of engine `target`
    ReplicaRepair,  //!< rebuild engine `target` (Loading spin-up)
    LinkDown,       //!< disaggregated boundary link dies
    LinkUp,         //!< boundary link heals (factor resets to 1)
    LinkDegrade,    //!< boundary link wire time scales by `magnitude`
    StragglerStart, //!< engine `target` slows by `magnitude`x
    StragglerEnd,   //!< engine `target` returns to full speed
    DeviceFail,     //!< `magnitude` devices of engine `target` die
    DeviceRepair,   //!< engine `target` regains its dead devices
};

/** Stable lower-case name ("replica-fail", ...) for plans and logs. */
const char *faultKindName(FaultKind kind);

/** One scheduled fault or repair. */
struct FaultEvent
{
    Seconds time = 0.0;  //!< injection time on the simulation clock
    FaultKind kind = FaultKind::ReplicaFail;
    int target = 0;      //!< engine index (ignored by link events)
    /** Kind-specific magnitude: slowdown factor (stragglers, >= 1),
     * wire-time factor (LinkDegrade, >= 1), or failed-device count
     * (DeviceFail, >= 1). */
    double magnitude = 1.0;
};

/** Fault plan plus the recovery-policy knobs (ServingConfig::faults). */
struct FaultConfig
{
    /** Scripted events; need not be sorted. */
    std::vector<FaultEvent> events;

    /** Mean time between seeded fail-stop replica faults; 0 disables
     * the stochastic layer. */
    Seconds mtbf = 0.0;

    /** Repair delay paired with each seeded fault (must be > 0 when
     * mtbf > 0). */
    Seconds mttr = 0.5;

    /** Seed of the MTBF expansion (independent of the serving seed). */
    std::uint64_t seed = 0;

    /** First retry backoff; attempt k waits min(cap, base * 2^(k-1)). */
    Seconds backoffBase = 0.05;

    /** Backoff ceiling. */
    Seconds backoffCap = 1.0;

    /** Retries granted per request before it is counted failed. */
    int retryBudget = 3;

    /** True when any fault source is configured. The simulator's hooks
     * need no such guard (an empty plan leaves them inert); only what
     * a reader observes asks it: the fault metric series, the
     * telemetry bus and the autoscalers' repair path. */
    bool enabled() const { return !events.empty() || mtbf > 0.0; }
};

/**
 * Resolve a FaultConfig into one deterministic, time-sorted event
 * list: scripted events plus the seeded MTBF expansion over
 * [0, horizon) targeting engines [0, num_engines). Events beyond the
 * horizon are kept (a repair may land after the last arrival; the
 * simulator never applies an event at or after its last step's end
 * once no work is left). Ties sort by
 * (time, kind, target) so the walk order is reproducible.
 *
 * @throws FatalError naming the event when a scripted event's time is
 *         not finite and >= 0, or when an engine-targeted event (every
 *         kind but the link kinds, which ignore their target) targets
 *         an engine outside [0, num_engines); also when mtbf > 0 comes
 *         with mttr <= 0 or no engines.
 */
std::vector<FaultEvent> expandFaultPlan(const FaultConfig &config,
                                        int num_engines,
                                        Seconds horizon);

/**
 * Parse a fault-plan text file (`--fault-plan=F`). Line-oriented;
 * `#` starts a comment. Directives:
 *
 *   mtbf SECONDS            seeded fail-stop layer
 *   mttr SECONDS            repair delay of seeded faults
 *   seed N                  MTBF expansion seed
 *   retry-budget N          retries before a request counts failed
 *   backoff BASE CAP        capped exponential backoff knobs
 *   at TIME KIND TARGET [MAGNITUDE]
 *                           scripted event; KIND is a faultKindName()
 *
 * Targets are checked against the run's engine count later, by
 * expandFaultPlan() when the simulator is built.
 *
 * @throws FatalError naming the line on any malformed input: an
 *         unknown directive or kind, a missing or non-numeric
 *         argument (the optional MAGNITUDE included), or a trailing
 *         token after a directive's arguments.
 */
FaultConfig parseFaultPlanFile(const std::string &path);

} // namespace laer

#endif // LAER_FAULT_FAULT_HH
