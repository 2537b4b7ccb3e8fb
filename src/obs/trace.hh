/**
 * @file
 * TraceRecorder — the flight recorder's timeline half.
 *
 * Records spans and instant events on named tracks in simulated time
 * and writes them as Chrome trace-event JSON, the format
 * `ui.perfetto.dev` and `chrome://tracing` load directly. A serving
 * run attaches one recorder (ServingConfig::trace); the simulator
 * then emits one track per pool ("prefill", "decode", "replica0",
 * ...) carrying step and drain spans, a per-pool planner track for
 * retune spans, a "kv_transfer" track for inter-pool context moves
 * and a "control" track for scaling decisions. When no recorder is
 * attached the instrumentation macros (obs/obs.hh) skip every call,
 * so the hot path pays exactly one pointer test.
 *
 * Mapping onto the trace-event schema (docs/OBSERVABILITY.md):
 *
 *  - a track is a (pid = 0, tid = track id) pair named through a
 *    `ph:"M"` thread_name metadata event;
 *  - span()    -> `ph:"X"` complete events, ts/dur in microseconds of
 *    SIMULATED time (1 sim second = 1e6 trace us);
 *  - instant() -> `ph:"i"` thread-scoped instant events;
 *  - flow()    -> `ph:"s"/"t"/"f"` flow events that draw arrows
 *    between slices on different tracks (binding is by enclosing
 *    slice; "t"/"f" carry `bp:"e"`). The per-request lifecycle
 *    recorder (obs/req_trace.hh) uses one flow per sampled request,
 *    flow id = request id, to follow it across engine tracks.
 *
 * Events may be recorded out of time order (e.g. a KV-transfer span
 * starts at a prefill finish that predates the current clock);
 * write() stable-sorts by timestamp so every track is monotone in the
 * file, which scripts/check_trace.py verifies.
 */

#ifndef LAER_OBS_TRACE_HH
#define LAER_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.hh"

namespace laer
{

/** Escape `s` for the inside of a JSON string literal: quotes,
 * backslashes and every control character. The one escaper of the
 * obs and difftest writers, so no label can split a JSONL line. */
std::string jsonEscape(const std::string &s);

/** Encode `v` as a JSON number with 12 significant digits; NaN and
 * infinities have no JSON spelling, so they degrade to 0. The one
 * number encoder of the trace and metrics writers. */
std::string jsonNumber(double v);

/** One key plus an already-JSON-encoded value for a span/instant
 * `args` object. The constructors encode (and escape) eagerly so the
 * recorder stores plain strings. */
struct TraceArg
{
    TraceArg(const char *key, std::int64_t value);
    TraceArg(const char *key, int value);
    TraceArg(const char *key, double value);
    TraceArg(const char *key, const char *value);
    TraceArg(const char *key, const std::string &value);
    TraceArg(const char *key, bool value);

    std::string key;
    std::string json; //!< encoded value, ready to splice into args
};

/** Collects trace events and serialises them as trace-event JSON. */
class TraceRecorder
{
  public:
    /**
     * Get or create the track named `name`.
     * @return a stable track id for span()/instant().
     */
    int track(const std::string &name);

    /**
     * Record a complete (`ph:"X"`) span.
     * @param track_id  From track().
     * @param name      Event name shown on the slice.
     * @param category  Trace-event `cat` (e.g. "serve", "planner").
     * @param start     Simulated start time.
     * @param duration  Simulated duration; clamped to >= 0.
     * @param args      Optional key/value annotations.
     */
    void span(int track_id, const std::string &name,
              const std::string &category, Seconds start,
              Seconds duration, std::vector<TraceArg> args = {});

    /** Record a thread-scoped instant (`ph:"i"`) event. */
    void instant(int track_id, const std::string &name,
                 const std::string &category, Seconds time,
                 std::vector<TraceArg> args = {});

    /**
     * Record a flow event.
     * @param phase    's' (start), 't' (step) or 'f' (finish); all
     *                 events of one flow must share name, category
     *                 and flow_id.
     * @param flow_id  Ties the arrow chain together (e.g. request
     *                 id).
     */
    void flow(int track_id, char phase, const std::string &name,
              const std::string &category, Seconds time,
              std::int64_t flow_id);

    /** Events recorded so far (spans + instants + flow events). */
    std::size_t eventCount() const { return events_.size(); }

    /**
     * Write the full trace as JSON: thread_name metadata first, then
     * every event stable-sorted by timestamp (per-track monotone).
     */
    void write(std::ostream &os) const;

    /**
     * write() to `path`; throws FatalError when the file cannot be
     * created or the stream fails.
     */
    void writeFile(const std::string &path) const;

  private:
    struct Event
    {
        int track = 0;
        bool span = false;  //!< "X" when true, "i"/flow otherwise
        char flow = 0;      //!< 0, or 's'/'t'/'f' for flow events
        double tsUs = 0.0;  //!< simulated microseconds
        double durUs = 0.0; //!< spans only
        std::int64_t flowId = 0; //!< flow events only
        std::string name;
        std::string category;
        std::string argsJson; //!< "" or a full {...} object
    };

    std::vector<std::string> names_; //!< track id -> display name
    std::unordered_map<std::string, int> ids_;
    std::vector<Event> events_;
};

} // namespace laer

#endif // LAER_OBS_TRACE_HH
