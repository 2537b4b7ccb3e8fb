#include "serve/obs_sinks.hh"

#include <iostream>

#include "core/error.hh"

namespace laer
{

namespace
{

/** Open and truncate `path` when its flag was given. */
void
openSink(std::ofstream &out, const char *flag, const std::string &path)
{
    if (path.empty())
        return;
    out.open(path);
    LAER_CHECK(out.good(), "cannot write --" << flag << " file " << path);
}

/** Flush `out` and fail loudly when any write to it failed. */
void
checkWritten(std::ofstream &out, const std::string &path)
{
    out.flush();
    LAER_CHECK(out.good(), "write to " << path << " failed");
}

} // namespace

std::vector<std::string>
ObsSinks::flags(std::vector<std::string> own, bool slo_report)
{
    own.insert(own.end(), {"trace-out", "metrics-out"});
    if (slo_report)
        own.push_back("slo-report-out");
    return own;
}

std::string
ObsSinks::help(bool slo_report)
{
    std::string text =
        "  --trace-out=FILE       write one Chrome/Perfetto trace of "
        "every run\n"
        "  --metrics-out=FILE     append every run's JSONL counter "
        "snapshots\n";
    if (slo_report)
        text += "  --slo-report-out=FILE  write one SLO-miss attribution "
                "report per run (JSON array)\n";
    return text;
}

ObsSinks::ObsSinks(const CliArgs &args)
    : tracePath_(args.get("trace-out")),
      metricsPath_(args.get("metrics-out")),
      sloPath_(args.get("slo-report-out"))
{
    openSink(traceOut_, "trace-out", tracePath_);
    openSink(metricsOut_, "metrics-out", metricsPath_);
    openSink(sloOut_, "slo-report-out", sloPath_);
    if (!tracePath_.empty())
        trace_ = std::make_unique<TraceRecorder>();
}

void
ObsSinks::attach(ServingConfig &cfg, MetricsRegistry &registry,
                 const std::string &label)
{
    if (trace_) {
        cfg.trace = trace_.get();
        cfg.obsLabel = label;
    }
    if (!metricsPath_.empty() && cfg.metricsRegistry == nullptr) {
        cfg.metricsRegistry = &registry;
        cfg.snapshotInterval = 1.0;
    }
    if (!sloPath_.empty()) {
        ReqTraceConfig every_request;
        every_request.sampleEvery = 1;
        sloRun_ = std::make_unique<ReqTraceRecorder>(every_request);
        cfg.reqTrace = sloRun_.get();
    }
}

void
ObsSinks::end(const MetricsRegistry &registry, const std::string &label)
{
    if (!metricsPath_.empty()) {
        registry.writeJsonl(metricsOut_, label);
        checkWritten(metricsOut_, metricsPath_);
    }
    if (sloRun_) {
        if (sloCount_++ > 0)
            sloRuns_ << ",\n";
        sloRun_->writeSloJson(sloRuns_, label);
        sloRun_.reset();
    }
}

void
ObsSinks::write()
{
    if (trace_) {
        trace_->write(traceOut_);
        checkWritten(traceOut_, tracePath_);
        std::cout << "wrote " << tracePath_ << "\n";
    }
    if (!sloPath_.empty()) {
        sloOut_ << "[\n" << sloRuns_.str() << "\n]\n";
        checkWritten(sloOut_, sloPath_);
        std::cout << "wrote " << sloPath_ << "\n";
    }
}

} // namespace laer
