/**
 * @file
 * Instrumentation guard macros for the observability layer.
 *
 * Every emission site in serve/ctrl/planner goes through these macros
 * with a possibly-null TraceRecorder* / MetricsRegistry*. When the
 * pointer is null (the default — no `--trace-out`/`--metrics-out`)
 * the macro costs one branch on a pointer that is almost always in a
 * register, and the argument expressions are not evaluated. Recording
 * never feeds back into simulation state: observability is strictly
 * write-only, which is what keeps default bench outputs byte-for-byte
 * identical.
 *
 * Usage:
 *
 *     LAER_TRACE_SPAN(cfg.trace, trackId, "decode_step", "serve",
 *                     start, dur, {TraceArg{"tokens", n}});
 *     LAER_METRIC_COUNT(cfg.metricsRegistry, "serve.admitted", 1);
 *     LAER_METRIC_OBSERVE(reg, "planner.retune_wall_ms", wallMs);
 */

#ifndef LAER_OBS_OBS_HH
#define LAER_OBS_OBS_HH

#include "obs/metrics.hh"
#include "obs/req_trace.hh"
#include "obs/trace.hh"

/** Record a span when `rec` is attached; arguments as
 * TraceRecorder::span(). */
#define LAER_TRACE_SPAN(rec, ...)                                     \
    do {                                                              \
        if (rec)                                                      \
            (rec)->span(__VA_ARGS__);                                 \
    } while (0)

/** Record an instant event when `rec` is attached. */
#define LAER_TRACE_INSTANT(rec, ...)                                  \
    do {                                                              \
        if (rec)                                                      \
            (rec)->instant(__VA_ARGS__);                              \
    } while (0)

/** Bump counter `name` by `delta` when `reg` is attached. */
#define LAER_METRIC_COUNT(reg, name, delta)                           \
    do {                                                              \
        if (reg)                                                      \
            (reg)->counter(name).add(delta);                          \
    } while (0)

/** Set gauge `name` when `reg` is attached. */
#define LAER_METRIC_GAUGE(reg, name, value)                           \
    do {                                                              \
        if (reg)                                                      \
            (reg)->gauge(name).set(value);                            \
    } while (0)

/** Fold `value` into histogram `name` when `reg` is attached. */
#define LAER_METRIC_OBSERVE(reg, name, value)                         \
    do {                                                              \
        if (reg)                                                      \
            (reg)->histogram(name).observe(value);                    \
    } while (0)

/** True when a ReqTraceRecorder is attached and samples `id`. */
#define LAER_REQ_SAMPLED(rt, id) ((rt) != nullptr && (rt)->wants(id))

/** Invoke a ReqTraceRecorder member (`call` is e.g.
 * `onPreempt(id, now, swap)`) when `rt` is attached. Callers that
 * need the sampling test too go through LAER_REQ_SAMPLED first. */
#define LAER_REQ_EVENT(rt, call)                                      \
    do {                                                              \
        if (rt)                                                       \
            (rt)->call;                                               \
    } while (0)

#endif // LAER_OBS_OBS_HH
