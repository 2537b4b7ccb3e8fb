#include "obs/req_trace.hh"

#include <cstdio>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>
#include <sstream>

#include "core/error.hh"
#include "obs/trace.hh"

namespace laer
{

namespace
{

/** Events retained per live request before the timeline truncates
 * (attribution accumulators are unaffected by truncation). */
constexpr int kMaxTimelineEvents = 96;

/** splitmix64 finaliser: a cheap, well-mixed 64-bit hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Round-trip-exact JSON double (17 significant digits). */
std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Negative-residual tolerance: queue_wait below this is
 * over-attribution (a component double-counted), not FP noise. */
double
residualTolerance(double measured)
{
    return 1e-9 + 1e-9 * std::abs(measured);
}

void
writeComponentsJson(std::ostream &os, const AttrBreakdown &b)
{
    os << "{";
    for (int i = 0; i < kNumAttrComponents; ++i) {
        if (i > 0)
            os << ",";
        os << "\"" << attrComponentName(static_cast<AttrComponent>(i))
           << "\":" << jsonDouble(b.components[i]);
    }
    os << ",\"measured_s\":" << jsonDouble(b.measured)
       << ",\"exact\":" << (b.exact ? "true" : "false") << "}";
}

void
writeRecordJson(std::ostream &os, const SloRecord &r)
{
    os << "{\"id\":" << r.id << ",\"class\":" << r.sloClass
       << ",\"arrival_s\":" << jsonDouble(r.arrival)
       << ",\"ttft_s\":" << jsonDouble(r.ttft)
       << ",\"tpot_s\":" << jsonDouble(r.tpot)
       << ",\"e2e_s\":" << jsonDouble(r.e2e)
       << ",\"preemptions\":" << r.preemptions << ",\"slo_miss\":"
       << (r.sloMiss ? "true" : "false") << ",\"ttft_components_s\":";
    writeComponentsJson(os, r.ttftBk);
    os << ",\"e2e_components_s\":";
    writeComponentsJson(os, r.e2eBk);
    os << "}";
}

} // namespace

ReqTraceRecorder::ReqTraceRecorder(ReqTraceConfig config)
    : config_(config)
{
    LAER_CHECK(config_.topK > 0, "topK must be positive");
}

bool
ReqTraceRecorder::wants(int request_id) const
{
    if (config_.sampleEvery <= 1)
        return true;
    const std::uint64_t h =
        mix64(config_.seed ^ static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(request_id)));
    return h % static_cast<std::uint64_t>(config_.sampleEvery) == 0;
}

ReqTraceRecorder::LiveReq *
ReqTraceRecorder::find(int id)
{
    const auto it = live_.find(id);
    return it == live_.end() ? nullptr : &it->second;
}

void
ReqTraceRecorder::pushEvent(LiveReq &req, const TimelineEvent &event)
{
    if (static_cast<int>(req.events.size()) >= kMaxTimelineEvents) {
        ++req.droppedEvents;
        return;
    }
    req.events.push_back(event);
}

void
ReqTraceRecorder::noteViolation(const std::string &message)
{
    ++violationCount_;
    if (violations_.size() < 32)
        violations_.push_back(message);
}

void
ReqTraceRecorder::onAdmit(int id, int slo_class, Seconds arrival,
                          Seconds admit_time, int pool)
{
    LiveReq &req = live_[id];
    req.sloClass = slo_class;
    req.arrival = arrival;
    TimelineEvent e;
    e.time = admit_time;
    e.pool = pool;
    e.name = "admit";
    pushEvent(req, e);
}

void
ReqTraceRecorder::onStep(const ReqStepShare &share)
{
    LiveReq *req = find(share.requestId);
    LAER_CHECK(req != nullptr,
               "step share for unknown request " << share.requestId);
    const double compute = std::max(
        0.0, share.duration - share.retunePause - share.swapOverhead);
    const bool pre = !req->firstTokenSeen;
    if (share.retunePause > 0.0)
        req->attr.add(AttrComponent::RetunePause, share.retunePause,
                      pre);
    if (share.swapOverhead > 0.0)
        req->attr.add(AttrComponent::PreemptRecovery,
                      share.swapOverhead, pre);
    req->attr.add(share.computeAs, compute, pre);
    if (share.firstToken)
        req->firstTokenSeen = true;

    // Coalesce contiguous same-kind residency on the same engine
    // (consecutive decode steps chain exactly: the next step starts
    // at the previous freeAt), keeping timelines bounded.
    if (!req->events.empty()) {
        TimelineEvent &last = req->events.back();
        if (last.segment && last.pool == share.pool &&
            last.component == share.computeAs &&
            last.time + last.duration == share.start) {
            last.duration = share.start + share.duration - last.time;
            return;
        }
    }
    TimelineEvent e;
    e.time = share.start;
    e.duration = share.duration;
    e.pool = share.pool;
    e.component = share.computeAs;
    e.segment = true;
    pushEvent(*req, e);
}

void
ReqTraceRecorder::onPreempt(int id, Seconds time, bool swap)
{
    LiveReq *req = find(id);
    LAER_CHECK(req != nullptr, "preempt for unknown request " << id);
    ++req->preemptions;
    TimelineEvent e;
    e.time = time;
    e.name = swap ? "preempt_swap" : "preempt_recompute";
    pushEvent(*req, e);
}

void
ReqTraceRecorder::onKvTransfer(int id, Seconds start, Seconds wire)
{
    LiveReq *req = find(id);
    LAER_CHECK(req != nullptr,
               "kv transfer for unknown request " << id);
    req->attr.add(AttrComponent::KvTransfer, wire,
                  !req->firstTokenSeen);
    TimelineEvent e;
    e.time = start;
    e.duration = wire;
    e.component = AttrComponent::KvTransfer;
    e.segment = true;
    pushEvent(*req, e);
}

void
ReqTraceRecorder::onTransferStall(int id, Seconds ready_at,
                                  Seconds admitted_at)
{
    LiveReq *req = find(id);
    LAER_CHECK(req != nullptr,
               "transfer stall for unknown request " << id);
    const double stall = std::max(0.0, admitted_at - ready_at);
    if (stall > 0.0) {
        req->attr.add(AttrComponent::TransferStall, stall,
                      !req->firstTokenSeen);
        TimelineEvent seg;
        seg.time = ready_at;
        seg.duration = stall;
        seg.component = AttrComponent::TransferStall;
        seg.segment = true;
        pushEvent(*req, seg);
    }
    TimelineEvent e;
    e.time = admitted_at;
    e.name = "migrate_in";
    pushEvent(*req, e);
}

void
ReqTraceRecorder::onRehome(int id, Seconds time, int pool)
{
    LiveReq *req = find(id);
    LAER_CHECK(req != nullptr, "rehome for unknown request " << id);
    TimelineEvent e;
    e.time = time;
    e.pool = pool;
    e.name = pool < 0 ? "held" : "rehomed";
    pushEvent(*req, e);
}

void
ReqTraceRecorder::onRetryWait(int id, Seconds killed_at,
                              Seconds requeued_at)
{
    LiveReq *req = find(id);
    LAER_CHECK(req != nullptr, "retry for unknown request " << id);
    ++retries_;
    const double wait = std::max(0.0, requeued_at - killed_at);
    req->attr.add(AttrComponent::RetryRecovery, wait,
                  !req->firstTokenSeen);
    if (wait > 0.0) {
        TimelineEvent seg;
        seg.time = killed_at;
        seg.duration = wait;
        seg.component = AttrComponent::RetryRecovery;
        seg.segment = true;
        pushEvent(*req, seg);
    }
    TimelineEvent e;
    e.time = requeued_at;
    e.name = "retry";
    pushEvent(*req, e);
}

void
ReqTraceRecorder::onFailed(int id, Seconds time)
{
    LiveReq *req = find(id);
    LAER_CHECK(req != nullptr, "failure for unknown request " << id);
    (void)time;
    ++failedCount_;
    live_.erase(id);
}

void
ReqTraceRecorder::foldTopK(std::vector<SloRecord> &heap,
                           const SloRecord &rec, bool by_tpot)
{
    // "a is worse than b": larger value; ties break toward the lower
    // id so campaigns stay deterministic.
    const auto worse = [by_tpot](const SloRecord &a,
                                 const SloRecord &b) {
        const double va = by_tpot ? a.tpot : a.ttft;
        const double vb = by_tpot ? b.tpot : b.ttft;
        if (va != vb)
            return va > vb;
        return a.id < b.id;
    };
    heap.push_back(rec);
    if (static_cast<int>(heap.size()) > config_.topK) {
        auto least = heap.begin();
        for (auto it = heap.begin() + 1; it != heap.end(); ++it)
            if (worse(*least, *it))
                least = it;
        heap.erase(least);
    }
}

RetiredAttribution
ReqTraceRecorder::retire(const ReqRetireInfo &info,
                         const RetireContext &ctx)
{
    LiveReq *req = find(info.id);
    LAER_CHECK(req != nullptr,
               "retire for unknown request " << info.id);
    LAER_CHECK(info.firstTokenTime >= req->arrival &&
                   info.finishTime >= info.firstTokenTime,
               "retired request " << info.id
                                  << " has an inverted timeline");

    const double ttft_measured = info.firstTokenTime - req->arrival;
    const double e2e_measured = info.finishTime - req->arrival;

    RetiredAttribution out;
    out.ttft = req->attr.finalize(ttft_measured, true);
    out.e2e = req->attr.finalize(e2e_measured, false);

    for (const AttrBreakdown *b : {&out.ttft, &out.e2e}) {
        const double queue_wait =
            (*b)[AttrComponent::QueueWait];
        if (!b->exact)
            noteViolation("request " + std::to_string(info.id) +
                          ": components do not re-sum to measured "
                          "latency: " +
                          formatBreakdown(*b));
        else if (queue_wait < -residualTolerance(b->measured))
            noteViolation("request " + std::to_string(info.id) +
                          ": over-attributed (negative queue wait): " +
                          formatBreakdown(*b));
        assert(b->exact && "attribution components must re-sum to the "
                           "measured latency bit-exactly");
        assert(queue_wait >= -residualTolerance(b->measured) &&
               "attribution over-counted (negative queue wait)");
    }

    SloRecord rec;
    rec.id = info.id;
    rec.sloClass = req->sloClass;
    rec.preemptions = std::max(req->preemptions, info.preemptions);
    rec.arrival = req->arrival;
    rec.ttft = ttft_measured;
    rec.tpot = info.decodeTokens >= 2
                   ? (info.finishTime - info.firstTokenTime) /
                         static_cast<double>(info.decodeTokens - 1)
                   : 0.0;
    rec.e2e = e2e_measured;
    rec.sloMiss = info.sloTtft > 0.0 && ttft_measured > info.sloTtft;
    rec.ttftBk = out.ttft;
    rec.e2eBk = out.e2e;

    foldTopK(byTtft_, rec, /*by_tpot=*/false);
    if (info.decodeTokens >= 2)
        foldTopK(byTpot_, rec, /*by_tpot=*/true);

    if (ctx.trace != nullptr)
        emitTrace(info.id, *req, rec, ctx);

    live_.erase(info.id);
    ++sampledRetired_;
    return out;
}

void
ReqTraceRecorder::emitTrace(int id, const LiveReq &req,
                            const SloRecord &rec,
                            const RetireContext &ctx) const
{
    TraceRecorder &trace = *ctx.trace;
    const int track =
        trace.track(ctx.trackPrefix + "req/" + std::to_string(id));

    trace.span(track, "request", "req", rec.arrival, rec.e2e,
               {TraceArg{"class", rec.sloClass},
                TraceArg{"ttft_s", rec.ttft},
                TraceArg{"tpot_s", rec.tpot},
                TraceArg{"preemptions", rec.preemptions},
                TraceArg{"slo_miss", rec.sloMiss},
                TraceArg{"queue_wait_s",
                         rec.e2eBk[AttrComponent::QueueWait]}});

    for (const TimelineEvent &e : req.events) {
        if (e.segment)
            trace.span(track, attrComponentName(e.component), "req",
                       e.time, e.duration,
                       {TraceArg{"pool", e.pool}});
        else
            trace.instant(track, e.name, "req", e.time,
                          e.pool >= 0
                              ? std::vector<TraceArg>{TraceArg{
                                    "pool", e.pool}}
                              : std::vector<TraceArg>{});
    }

    // Flow events tie the request's residency across engine tracks:
    // "s" at the first step slice, "t" at every pool change, "f" back
    // on the request track. Binding is by enclosing slice, so each
    // event lands at the start timestamp of a slice we emitted.
    const auto pool_track = [&ctx, track](int pool) {
        if (ctx.poolTracks != nullptr && pool >= 0 &&
            pool < static_cast<int>(ctx.poolTracks->size()))
            return (*ctx.poolTracks)[pool];
        return track;
    };
    // Flow identity is the (category, name, id) triple and request
    // ids restart every run, so the name carries the run's label —
    // otherwise a multi-run trace chains arrows across runs.
    const std::string flow_name = ctx.trackPrefix + "req";
    const std::int64_t flow_id = id;
    int last_pool = -2;
    bool started = false;
    Seconds last_segment_start = rec.arrival;
    for (const TimelineEvent &e : req.events) {
        if (!e.segment || e.pool < 0)
            continue;
        last_segment_start = e.time;
        if (!started) {
            trace.flow(pool_track(e.pool), 's', flow_name, "req",
                       e.time, flow_id);
            started = true;
        } else if (e.pool != last_pool) {
            trace.flow(pool_track(e.pool), 't', flow_name, "req",
                       e.time, flow_id);
        }
        last_pool = e.pool;
    }
    if (started)
        trace.flow(track, 'f', flow_name, "req", last_segment_start,
                   flow_id);
}

namespace
{

bool
recordWorse(const SloRecord &a, const SloRecord &b, bool by_tpot)
{
    const double va = by_tpot ? a.tpot : a.ttft;
    const double vb = by_tpot ? b.tpot : b.ttft;
    if (va != vb)
        return va > vb;
    return a.id < b.id;
}

} // namespace

std::vector<SloRecord>
ReqTraceRecorder::worstTtft() const
{
    std::vector<SloRecord> out = byTtft_;
    std::sort(out.begin(), out.end(),
              [](const SloRecord &a, const SloRecord &b) {
                  return recordWorse(a, b, false);
              });
    return out;
}

std::vector<SloRecord>
ReqTraceRecorder::worstTpot() const
{
    std::vector<SloRecord> out = byTpot_;
    std::sort(out.begin(), out.end(),
              [](const SloRecord &a, const SloRecord &b) {
                  return recordWorse(a, b, true);
              });
    return out;
}

void
ReqTraceRecorder::writeSloJson(std::ostream &os,
                               const std::string &label) const
{
    os << "{";
    if (!label.empty())
        os << "\"run\":\"" << jsonEscape(label) << "\",";
    os << "\"sample_every\":" << config_.sampleEvery
       << ",\"seed\":" << config_.seed << ",\"top_k\":" << config_.topK
       << ",\"sampled_retired\":" << sampledRetired_
       << ",\"retries\":" << retries_
       << ",\"failed\":" << failedCount_
       << ",\"live\":" << live_.size()
       << ",\"violation_count\":" << violationCount_
       << ",\"violations\":[";
    for (std::size_t i = 0; i < violations_.size(); ++i) {
        if (i > 0)
            os << ",";
        os << "\"" << jsonEscape(violations_[i]) << "\"";
    }
    os << "],\"worst_ttft\":[";
    const std::vector<SloRecord> ttft = worstTtft();
    for (std::size_t i = 0; i < ttft.size(); ++i) {
        if (i > 0)
            os << ",";
        writeRecordJson(os, ttft[i]);
    }
    os << "],\"worst_tpot\":[";
    const std::vector<SloRecord> tpot = worstTpot();
    for (std::size_t i = 0; i < tpot.size(); ++i) {
        if (i > 0)
            os << ",";
        writeRecordJson(os, tpot[i]);
    }
    os << "]}";
}

} // namespace laer
