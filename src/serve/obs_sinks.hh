/**
 * @file
 * The observability flags of the serving binaries, in one place.
 *
 * `--trace-out=FILE` records every run into one Chrome/Perfetto
 * trace, `--metrics-out=FILE` appends each run's counter snapshots as
 * JSON Lines, and `--slo-report-out=FILE` writes one SLO-miss
 * attribution report per run as a JSON array (docs/OBSERVABILITY.md).
 * ObsSinks is the only code that reads those flags. It opens every
 * requested path at construction, so a bad path fails before the
 * first simulated step, not after the whole sweep:
 *
 *   const CliArgs args(argc, argv, ObsSinks::flags({"csv", "help"}));
 *   ObsSinks sinks(args);
 *   ...per run: sinks.attach(cfg, registry, label); run;
 *               sinks.end(registry, label);
 *   ...at exit: sinks.write();
 *
 * Every sink is write-only, so attaching them changes no simulated
 * number; with no flag given, attach() and end() do nothing.
 */

#ifndef LAER_SERVE_OBS_SINKS_HH
#define LAER_SERVE_OBS_SINKS_HH

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "obs/metrics.hh"
#include "obs/req_trace.hh"
#include "obs/trace.hh"
#include "serve/serving_sim.hh"

namespace laer
{

/** Trace, metrics and SLO-report sinks shared by a binary's runs. */
class ObsSinks
{
  public:
    /**
     * A binary's CliArgs flag list: `own` plus `trace-out` and
     * `metrics-out`, and `slo-report-out` when `slo_report` is set.
     */
    static std::vector<std::string>
    flags(std::vector<std::string> own, bool slo_report = true);

    /** `--help` lines for the flags that flags() adds. */
    static std::string help(bool slo_report = true);

    /**
     * Open and truncate every requested output file.
     * @param args  Parsed command line; absent flags leave their sink
     *              off.
     * @throws FatalError when a requested file cannot be opened.
     */
    explicit ObsSinks(const CliArgs &args);

    /**
     * Attach the sinks to one run.
     * - trace: the shared recorder, with `label` prefixing the run's
     *   tracks;
     * - metrics: `registry` with a 1 s snapshot interval, unless the
     *   caller already attached a registry of its own;
     * - SLO report: a fresh recorder sampling every request, so the
     *   report's violation count and worst-K are exact.
     * @param cfg       The run's configuration.
     * @param registry  Registry to attach; must outlive the run.
     * @param label     Run key, e.g. "13b/LAER@10GiB".
     */
    void attach(ServingConfig &cfg, MetricsRegistry &registry,
                const std::string &label);

    /**
     * Finish one run: append `registry`'s snapshots keyed by `label`
     * and fold the run's SLO-miss report under `label`.
     */
    void end(const MetricsRegistry &registry, const std::string &label);

    /** Write the trace and the SLO report array, printing
     * "wrote FILE" for each. */
    void write();

  private:
    std::string tracePath_, metricsPath_, sloPath_;
    std::ofstream traceOut_, metricsOut_, sloOut_;
    std::unique_ptr<TraceRecorder> trace_;
    std::unique_ptr<ReqTraceRecorder> sloRun_; //!< between attach/end
    std::ostringstream sloRuns_; //!< finished runs' reports, comma-joined
    int sloCount_ = 0;
};

} // namespace laer

#endif // LAER_SERVE_OBS_SINKS_HH
