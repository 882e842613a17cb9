// Telemetry renderer: per-shard attempt timelines, metrics summaries and
// the engine perf trend, from the sidecar files the other tools emit.
//
//   dring_metrics --events run.jsonl.events.jsonl [--times]
//   dring_metrics --metrics run.jsonl.metrics.json
//   dring_metrics --bench BENCH_engine.json
//   any of the above with --format md|csv|json
//
// `--events` renders the orchestrator attempt timeline grouped by shard:
// every dispatch, worker exit, kill, retry (with its backoff delay),
// give-up and speculation event, in emission order.  Timestamps are
// omitted unless --times, so for a fixed fault schedule the default
// rendering is byte-stable — CI pins the timeline of the fault-injected
// gate run.  `--metrics` summarizes a metrics snapshot (counters, gauges,
// histogram means, derived rates such as the probe-memo hit rate).
// `--bench` folds the committed BENCH_engine.json into a trend table
// (including the rebaseline `history` eras).  --format json re-emits the
// parsed document canonically (sorted keys); --format csv renders one
// flat plot-ready table through the shared render_cells renderer.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace dring;

util::FlagTable flag_table() {
  util::FlagTable flags("dring_metrics",
                        "render telemetry sidecars: per-shard attempt "
                        "timelines, metrics summaries, perf trends");
  flags.synopsis("dring_metrics --events FILE.events.jsonl [--times]"
                 " [--format md|csv|json]")
      .synopsis("dring_metrics --metrics FILE.metrics.json"
                " [--format md|csv|json]")
      .synopsis("dring_metrics --bench BENCH_engine.json"
                " [--format md|csv|json]")
      .flag("events", "FILE", "event log to render as a per-shard timeline")
      .flag("times", "", "include wall-clock stamps and span durations "
                         "(timing varies run to run; off by default so the "
                         "timeline is byte-stable)")
      .flag("metrics", "FILE", "metrics snapshot to summarize")
      .flag("bench", "FILE", "perf snapshot (BENCH_engine.json) to render "
                             "as a trend table")
      .flag("format", "F", "md (default), csv or json");
  core::add_log_flags(flags);
  flags.flag("help", "", "print this help")
      .note("sidecars: dring_campaign/dring_orchestrate --telemetry write "
            "<out>.events.jsonl and <out>.metrics.json next to the store");
  return flags;
}

util::Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return util::Json::parse(buffer.str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const util::FlagTable flags = flag_table();
  if (cli.get_bool("help", false)) {
    std::cout << flags.help_text();
    return 0;
  }
  if (const auto error = flags.unknown_flags(cli)) {
    std::cerr << *error << "\n";
    return 2;
  }
  core::set_log_level(core::log_level_from_cli(cli));

  core::ReportFormat format;
  try {
    format = core::report_format_from_string(cli.get("format", "md"));
  } catch (const std::exception& e) {
    std::cerr << "dring_metrics: " << e.what() << "\n";
    return 2;
  }
  const int selected = (cli.has("events") ? 1 : 0) +
                       (cli.has("metrics") ? 1 : 0) +
                       (cli.has("bench") ? 1 : 0);
  if (selected != 1) {
    std::cerr << "dring_metrics: pass exactly one of --events, --metrics, "
                 "--bench\n"
              << flags.help_text();
    return 2;
  }

  try {
    if (cli.has("events")) {
      const std::vector<core::TelemetryEvent> events =
          core::read_events_file(cli.get("events", ""));
      core::log_line(core::LogLevel::kDebug,
                     "loaded " + std::to_string(events.size()) + " events");
      if (format == core::ReportFormat::Json) {
        util::Json::Array out;
        for (const auto& event : events)
          out.push_back(core::to_json(event));
        std::cout << util::Json(std::move(out)).dump() << "\n";
      } else {
        std::cout << core::render_timeline(events,
                                           cli.get_bool("times", false),
                                           format);
      }
    } else if (cli.has("metrics")) {
      const util::Json metrics = read_json_file(cli.get("metrics", ""));
      if (format == core::ReportFormat::Json)
        std::cout << metrics.dump() << "\n";
      else
        std::cout << core::render_metrics_summary(metrics, format);
    } else {
      const util::Json bench = read_json_file(cli.get("bench", ""));
      if (format == core::ReportFormat::Json)
        std::cout << bench.dump() << "\n";
      else
        std::cout << core::render_bench_trend(bench, format);
    }
  } catch (const std::exception& e) {
    std::cerr << "dring_metrics: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
