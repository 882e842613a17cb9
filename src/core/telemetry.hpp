// Telemetry: a process-global metrics registry, a structured JSONL event
// log, and leveled stderr logging on one monotonic clock.
//
// The repo's runtime visibility used to be ad-hoc stderr lines that died
// with the process — when a shard retried three times or a straggler got
// speculated, nothing durable recorded why.  This layer makes those
// quantities first-class, with one hard contract:
//
//   TELEMETRY NEVER TOUCHES CANONICAL BYTES.  Metrics and events go to
//   *sibling* files (`<base>.metrics.json`, `<base>.events.jsonl`) next to
//   the result store, so every store, committed report and golden digest
//   is byte-identical whether telemetry is on or off (CI-gated).
//
// Telemetry is disabled by default and costs one relaxed atomic load per
// instrumentation site until a CLI enables it (`--telemetry`).  Events are
// spans (begin/end pairs labelled with a shared id) and points, each
// stamped with a sequence number and microseconds on the process-wide
// monotonic clock:
//
//   {"kind":"point","labels":{"attempt":"1","shard":"2"},
//    "name":"orchestrate.dispatch","seq":7,"t_us":1234}
//
// The per-shard label-ordered event stream is deterministic for a fixed
// fault schedule; only the timestamps vary, which is why the timeline
// renderer (render_timeline) omits them unless asked — its output is a
// byte-stable record of what happened to every shard attempt.
#pragma once

#include <atomic>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace dring::core {

// --- leveled logging ---------------------------------------------------------

/// Stderr verbosity shared by the FlagTable CLIs (--quiet / --verbose).
enum class LogLevel {
  kQuiet = 0,  ///< errors only
  kInfo = 1,   ///< default: progress notes, replace warnings
  kDebug = 2,  ///< verbose: per-decision narration
};

void set_log_level(LogLevel level);
LogLevel log_level();
bool log_enabled(LogLevel level);

/// `--quiet` wins over `--verbose`; neither = kInfo.
LogLevel log_level_from_cli(const util::Cli& cli);

/// Declare the shared `--quiet`/`--verbose` pair on a tool's FlagTable —
/// every FlagTable CLI presents the same two spellings.
util::FlagTable& add_log_flags(util::FlagTable& flags);

/// Print "[+  12.345s] message" to stderr when `level` is enabled.  The
/// stamp is the telemetry clock (telemetry_now_us), so interleaved worker
/// and supervisor logs line up with the event timestamps.
void log_line(LogLevel level, const std::string& message);

/// Microseconds on the process-wide monotonic clock (0 at first use).
/// Event timestamps and log stamps both come from here.
long long telemetry_now_us();

/// The shared time-histogram ladder: 64us doubling through ~0.5h.  One
/// fixed layout for every duration histogram, so snapshots from different
/// layers (and different runs) line up bucket for bucket.
const std::vector<long long>& telemetry_time_bounds();

/// The shared round-count ladder: 1 doubling through ~8M rounds (the
/// default StopPolicy max), for histograms over simulated rounds rather
/// than wall time (e.g. batch lane lifetimes).
const std::vector<long long>& telemetry_round_bounds();

// --- event log + metrics sink ------------------------------------------------

/// One parsed event-log line.
struct TelemetryEvent {
  long long seq = 0;   ///< process-wide emission order
  long long t_us = 0;  ///< telemetry_now_us() at emission
  std::string name;    ///< dotted, layer-prefixed: "orchestrate.dispatch"
  std::string kind;    ///< "point" | "begin" | "end"
  std::map<std::string, std::string> labels;
};

util::Json to_json(const TelemetryEvent& event);
TelemetryEvent telemetry_event_from_json(const util::Json& j);

class Telemetry {
 public:
  /// True once enable() ran; every instrumentation site gates on this.
  bool enabled() const;

  /// Arm telemetry with sidecar base `base`: truncates and opens
  /// `<base>.events.jsonl` for the event stream and arranges for
  /// write_metrics() to land in `<base>.metrics.json`.  Throws
  /// std::runtime_error when the event file cannot be opened.
  void enable(const std::string& base);

  /// Flush + close the event stream, write the metrics sidecar, drop all
  /// metrics, and return to the disabled state (tests, and end-of-main).
  void shutdown();

  util::MetricsRegistry& metrics() { return metrics_; }

  /// Emit a point event (no-op when disabled).
  void event(const std::string& name,
             std::map<std::string, std::string> labels = {});

  /// RAII span: begin event at construction, end event (same name and
  /// labels, plus duration_us) at destruction.  Inert when telemetry was
  /// disabled at construction.
  class Span {
   public:
    Span(Telemetry& telemetry, std::string name,
         std::map<std::string, std::string> labels);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Telemetry* telemetry_;  ///< nullptr when inert
    std::string name_;
    std::map<std::string, std::string> labels_;
    long long t0_us_ = 0;
  };
  Span span(const std::string& name,
            std::map<std::string, std::string> labels = {});

  /// Write `<base>.metrics.json` (canonical dump + newline) from the
  /// current registry state.  Safe to call repeatedly; no-op when
  /// disabled.
  void write_metrics();

  std::string events_path() const;
  std::string metrics_path() const;

 private:
  void emit(const std::string& kind, const std::string& name,
            const std::map<std::string, std::string>& labels);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  ///< guards the event stream + seq
  std::string base_;
  std::ofstream events_;
  long long seq_ = 0;
  util::MetricsRegistry metrics_;
};

/// The process-global instance (one per worker process; the orchestrator
/// and each dring_campaign worker own separate sidecars).
Telemetry& telemetry();

// --- rendering (dring_metrics) -----------------------------------------------

/// Read every event line of `<path>`; throws std::runtime_error when the
/// file cannot be opened and std::invalid_argument (with a line number) on
/// malformed lines.
std::vector<TelemetryEvent> read_events_file(const std::string& path);

/// Render the per-shard attempt timeline of an orchestrator event stream
/// ("orchestrate.*" events).  Events group by their "shard" label
/// (shard-less events land in a leading "run" section/series) and keep
/// emission order within the group.  Timestamps and durations are omitted
/// unless `with_times` — without them the output is byte-stable for a
/// fixed fault schedule, so CI can pin it.  Markdown renders grouped
/// sections; Csv renders one flat (shard, kind, name, labels) table
/// through the shared render_cells renderer.  (Json callers re-emit the
/// parsed events instead.)
std::string render_timeline(const std::vector<TelemetryEvent>& events,
                            bool with_times = false,
                            ReportFormat format = ReportFormat::Markdown);

/// Render a metrics snapshot (the `<base>.metrics.json` document):
/// counters, gauges, histograms, and derived rates (probe-memo hit rate,
/// resume-cache hit rate) when their inputs are present.  Markdown is the
/// sectioned summary; Csv is one flat (kind, name, value, count, sum)
/// table.
std::string render_metrics_summary(const util::Json& metrics,
                                   ReportFormat format =
                                       ReportFormat::Markdown);

/// Render the BENCH_engine.json perf trajectory (baseline vs current vs
/// speedup, plus the rebaseline `history` eras when present).  Markdown is
/// the trend table (+ a history section); Csv is one flat
/// (benchmark, era, real_time_ns, items_per_second, speedup) table.
std::string render_bench_trend(const util::Json& bench,
                               ReportFormat format = ReportFormat::Markdown);

}  // namespace dring::core
