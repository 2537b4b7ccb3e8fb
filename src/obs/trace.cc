#include "obs/trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/error.hh"

namespace laer
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    std::ostringstream oss;
    oss.precision(12);
    oss << v;
    return oss.str();
}

TraceArg::TraceArg(const char *k, std::int64_t value)
    : key(k), json(std::to_string(value))
{
}

TraceArg::TraceArg(const char *k, int value)
    : key(k), json(std::to_string(value))
{
}

TraceArg::TraceArg(const char *k, double value)
    : key(k), json(jsonNumber(value))
{
}

TraceArg::TraceArg(const char *k, const char *value)
    : key(k), json("\"" + jsonEscape(value) + "\"")
{
}

TraceArg::TraceArg(const char *k, const std::string &value)
    : key(k), json("\"" + jsonEscape(value) + "\"")
{
}

TraceArg::TraceArg(const char *k, bool value)
    : key(k), json(value ? "true" : "false")
{
}

int
TraceRecorder::track(const std::string &name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const int id = static_cast<int>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

namespace
{

std::string
encodeArgs(const std::vector<TraceArg> &args)
{
    if (args.empty())
        return "";
    std::string out = "{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "\"" + jsonEscape(args[i].key) + "\":" + args[i].json;
    }
    out += "}";
    return out;
}

} // namespace

void
TraceRecorder::span(int track_id, const std::string &name,
                    const std::string &category, Seconds start,
                    Seconds duration, std::vector<TraceArg> args)
{
    LAER_CHECK(track_id >= 0 &&
                   track_id < static_cast<int>(names_.size()),
               "span on unknown track " << track_id);
    Event e;
    e.track = track_id;
    e.span = true;
    e.tsUs = start * 1e6;
    e.durUs = std::max(0.0, duration * 1e6);
    e.name = name;
    e.category = category;
    e.argsJson = encodeArgs(args);
    events_.push_back(std::move(e));
}

void
TraceRecorder::instant(int track_id, const std::string &name,
                       const std::string &category, Seconds time,
                       std::vector<TraceArg> args)
{
    LAER_CHECK(track_id >= 0 &&
                   track_id < static_cast<int>(names_.size()),
               "instant on unknown track " << track_id);
    Event e;
    e.track = track_id;
    e.tsUs = time * 1e6;
    e.name = name;
    e.category = category;
    e.argsJson = encodeArgs(args);
    events_.push_back(std::move(e));
}

void
TraceRecorder::flow(int track_id, char phase, const std::string &name,
                    const std::string &category, Seconds time,
                    std::int64_t flow_id)
{
    LAER_CHECK(track_id >= 0 &&
                   track_id < static_cast<int>(names_.size()),
               "flow on unknown track " << track_id);
    LAER_CHECK(phase == 's' || phase == 't' || phase == 'f',
               "flow phase must be 's', 't' or 'f'");
    Event e;
    e.track = track_id;
    e.flow = phase;
    e.tsUs = time * 1e6;
    e.flowId = flow_id;
    e.name = name;
    e.category = category;
    events_.push_back(std::move(e));
}

void
TraceRecorder::write(std::ostream &os) const
{
    // Sort indices, not events: write() is const and may be called
    // mid-run for a snapshot without disturbing recording order.
    std::vector<std::size_t> order(events_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return events_[a].tsUs < events_[b].tsUs;
                     });

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    const auto comma = [&first, &os]() {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (std::size_t t = 0; t < names_.size(); ++t) {
        comma();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << t << ",\"args\":{\"name\":\""
           << jsonEscape(names_[t]) << "\"}}";
        comma();
        os << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << t << ",\"args\":{\"sort_index\":" << t
           << "}}";
    }
    for (const std::size_t i : order) {
        const Event &e = events_[i];
        comma();
        const char ph = e.flow != 0 ? e.flow : (e.span ? 'X' : 'i');
        os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
           << jsonEscape(e.category) << "\",\"ph\":\"" << ph
           << "\",\"ts\":" << jsonNumber(e.tsUs);
        if (e.span)
            os << ",\"dur\":" << jsonNumber(e.durUs);
        else if (e.flow != 0) {
            os << ",\"id\":" << e.flowId;
            if (e.flow != 's')
                os << ",\"bp\":\"e\""; // bind to enclosing slice
        } else
            os << ",\"s\":\"t\""; // thread-scoped instant
        os << ",\"pid\":0,\"tid\":" << e.track;
        if (!e.argsJson.empty())
            os << ",\"args\":" << e.argsJson;
        os << "}";
    }
    os << "\n]}\n";
}

void
TraceRecorder::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    LAER_CHECK(os.good(), "cannot write trace file " << path);
    write(os);
    os.flush();
    LAER_CHECK(os.good(), "write to trace file " << path << " failed");
}

} // namespace laer
