// Tests for the telemetry subsystem: histogram bucket-boundary math, the
// metrics registry's canonical snapshots and their JSON round-trip, the
// structured event log (points, spans, file round-trip), the sidecar
// contract (store bytes identical with telemetry on or off), the timeline
// and summary renderers, and the shared log-level plumbing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/campaign.hpp"
#include "core/telemetry.hpp"
#include "util/metrics.hpp"

namespace dring::core {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- util::Histogram ---------------------------------------------------------

TEST(Histogram, BucketBoundaryMathIsUpperInclusive) {
  const util::Histogram h({10, 100, 1000});
  // Buckets are Prometheus-style "le": value <= bound lands at the bound.
  EXPECT_EQ(h.bucket_index(-5), 0u);
  EXPECT_EQ(h.bucket_index(0), 0u);
  EXPECT_EQ(h.bucket_index(9), 0u);
  EXPECT_EQ(h.bucket_index(10), 0u);   // exactly on a bound: that bucket
  EXPECT_EQ(h.bucket_index(11), 1u);
  EXPECT_EQ(h.bucket_index(100), 1u);
  EXPECT_EQ(h.bucket_index(101), 2u);
  EXPECT_EQ(h.bucket_index(1000), 2u);
  EXPECT_EQ(h.bucket_index(1001), 3u);  // overflow bucket
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(util::Histogram({}), std::invalid_argument);
  EXPECT_THROW(util::Histogram({1, 1}), std::invalid_argument);
  EXPECT_THROW(util::Histogram({10, 5}), std::invalid_argument);
}

TEST(Histogram, ObserveFillsCountsAndSum) {
  util::Histogram h({10, 100});
  h.observe(3);
  h.observe(10);
  h.observe(11);
  h.observe(5000);
  const util::Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(snap.counts[0], 2);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum, 3 + 10 + 11 + 5000);
}

TEST(Histogram, ExponentialBoundsDoubleFromStart) {
  const std::vector<long long> bounds =
      util::Histogram::exponential_bounds(64, 5);
  EXPECT_EQ(bounds, (std::vector<long long>{64, 128, 256, 512, 1024}));
  EXPECT_THROW(util::Histogram::exponential_bounds(0, 3),
               std::invalid_argument);
  // The ladder saturates instead of overflowing long long.
  const std::vector<long long> big =
      util::Histogram::exponential_bounds(1, 80);
  EXPECT_LT(big.size(), 80u);
  EXPECT_GT(big.back(), 1LL << 61);
}

// --- util::MetricsRegistry ---------------------------------------------------

TEST(MetricsRegistry, SnapshotIsCanonicalAndRoundTrips) {
  util::MetricsRegistry registry;
  registry.counter("b.count").add(3);
  registry.counter("a.count").add(1);
  registry.gauge("rate").set(0.5);
  registry.histogram("lat_us", {10, 100}).observe(7);

  const util::Json snap = registry.snapshot_json();
  const std::string dump = snap.dump();
  // Parse(dump) -> dump is the identity: the sidecar survives tooling
  // round trips byte for byte.
  EXPECT_EQ(util::Json::parse(dump).dump(), dump);
  // Keys sort, so a.count precedes b.count regardless of creation order.
  EXPECT_LT(dump.find("a.count"), dump.find("b.count"));
  EXPECT_EQ(snap.at("counters").at("b.count").as_int(), 3);
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("rate").as_double(), 0.5);
  const util::Json& h = snap.at("histograms").at("lat_us");
  EXPECT_EQ(h.at("count").as_int(), 1);
  EXPECT_EQ(h.at("sum").as_int(), 7);
  const util::Json::Array& buckets = h.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].at("le").as_int(), 10);
  EXPECT_EQ(buckets[0].at("count").as_int(), 1);
  EXPECT_EQ(buckets[2].at("le").as_string(), "inf");

  // Same observations in a fresh registry -> same bytes.
  util::MetricsRegistry again;
  again.histogram("lat_us", {10, 100}).observe(7);
  again.gauge("rate").set(0.5);
  again.counter("a.count").add(1);
  again.counter("b.count").add(3);
  EXPECT_EQ(again.snapshot_json().dump(), dump);
}

TEST(MetricsRegistry, EmptySectionsRenderAsObjects) {
  util::MetricsRegistry registry;
  EXPECT_EQ(registry.snapshot_json().dump(),
            R"({"counters":{},"gauges":{},"histograms":{}})");
}

TEST(MetricsRegistry, NameTypeConflictsThrow) {
  util::MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x", {1}), std::invalid_argument);
  // Same name + same type is get-or-create, not an error.
  registry.counter("x").add(2);
  EXPECT_EQ(registry.counter("x").value(), 2);
}

// --- event log ---------------------------------------------------------------

TEST(TelemetryEvents, EventJsonRoundTrips) {
  TelemetryEvent event;
  event.seq = 7;
  event.t_us = 1234;
  event.name = "orchestrate.dispatch";
  event.kind = "point";
  event.labels = {{"attempt", "1"}, {"shard", "2"}};
  const util::Json j = to_json(event);
  EXPECT_EQ(j.dump(),
            R"({"kind":"point","labels":{"attempt":"1","shard":"2"},)"
            R"("name":"orchestrate.dispatch","seq":7,"t_us":1234})");
  const TelemetryEvent back = telemetry_event_from_json(j);
  EXPECT_EQ(back.seq, event.seq);
  EXPECT_EQ(back.labels, event.labels);
}

TEST(TelemetryEvents, WritesPointsAndSpansToSidecar) {
  const std::string base = testing::TempDir() + "telemetry_events";
  telemetry().enable(base);
  ASSERT_TRUE(telemetry().enabled());
  EXPECT_EQ(telemetry().events_path(), base + ".events.jsonl");
  EXPECT_EQ(telemetry().metrics_path(), base + ".metrics.json");
  telemetry().event("test.point", {{"k", "v"}});
  {
    Telemetry::Span span = telemetry().span("test.span", {{"id", "1"}});
    telemetry().event("test.inner");
  }
  telemetry().metrics().counter("test.counter").add(5);
  telemetry().shutdown();
  EXPECT_FALSE(telemetry().enabled());

  const std::vector<TelemetryEvent> events =
      read_events_file(base + ".events.jsonl");
  ASSERT_EQ(events.size(), 4u);
  // seq is the emission order, dense from 0.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, static_cast<long long>(i));
  EXPECT_EQ(events[0].name, "test.point");
  EXPECT_EQ(events[0].kind, "point");
  EXPECT_EQ(events[1].name, "test.span");
  EXPECT_EQ(events[1].kind, "begin");
  EXPECT_EQ(events[2].name, "test.inner");
  EXPECT_EQ(events[3].name, "test.span");
  EXPECT_EQ(events[3].kind, "end");
  EXPECT_EQ(events[3].labels.at("id"), "1");
  EXPECT_EQ(events[3].labels.count("duration_us"), 1u);
  // Timestamps never regress within the file.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].t_us, events[i].t_us);

  // shutdown() wrote the metrics sidecar.
  const util::Json metrics =
      util::Json::parse(file_bytes(base + ".metrics.json"));
  EXPECT_EQ(metrics.at("counters").at("test.counter").as_int(), 5);
}

TEST(TelemetryEvents, DisabledTelemetryIsInert) {
  ASSERT_FALSE(telemetry().enabled());
  telemetry().event("dropped");
  { Telemetry::Span span = telemetry().span("also.dropped"); }
  EXPECT_EQ(telemetry().events_path(), "");
}

TEST(TelemetryEvents, ReadRejectsMalformedLines) {
  const std::string path = testing::TempDir() + "bad_events.jsonl";
  std::ofstream(path) << "{\"seq\":0}\nnot json\n";
  EXPECT_THROW(read_events_file(path), std::invalid_argument);
  EXPECT_THROW(read_events_file(testing::TempDir() + "missing_events.jsonl"),
               std::runtime_error);
}

// --- sidecar contract --------------------------------------------------------

TEST(TelemetrySidecars, StoreBytesIdenticalWithTelemetryOnOrOff) {
  CampaignSpec campaign;
  campaign.name = "telemetry_bytes";
  campaign.algorithms = {"KnownNNoChirality"};
  campaign.sizes = {5, 6};
  campaign.seeds_per_cell = 2;
  campaign.salt = 3;
  campaign.max_rounds = 3000;

  const std::string off_path = testing::TempDir() + "telemetry_off.jsonl";
  const std::string on_path = testing::TempDir() + "telemetry_on.jsonl";
  CampaignOptions options;
  options.threads = 1;

  options.out_path = off_path;
  run_campaign(campaign, options);

  telemetry().enable(on_path);
  options.out_path = on_path;
  run_campaign(campaign, options);
  telemetry().shutdown();

  // The whole contract: sidecars appear, canonical bytes do not move.
  EXPECT_EQ(file_bytes(on_path), file_bytes(off_path));
  EXPECT_TRUE(std::filesystem::exists(on_path + ".events.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(on_path + ".metrics.json"));

  const util::Json metrics =
      util::Json::parse(file_bytes(on_path + ".metrics.json"));
  // Four cells, but the null adversary ignores the seed: each size's two
  // seeds share one run, so the sweep executes two tasks.
  EXPECT_EQ(metrics.at("counters").at("campaign.cells_executed").as_int(), 4);
  EXPECT_EQ(metrics.at("counters").at("campaign.cells_copied").as_int(), 2);
  EXPECT_GT(metrics.at("counters").at("engine.rounds").as_int(), 0);
  EXPECT_GT(metrics.at("counters").at("engine.snapshots").as_int(), 0);
  EXPECT_EQ(metrics.at("counters").at("sweep.tasks").as_int(), 2);
  EXPECT_EQ(
      metrics.at("histograms").at("sweep.task_us").at("count").as_int(), 2);
}

// --- renderers ---------------------------------------------------------------

std::vector<TelemetryEvent> fixture_events() {
  std::vector<TelemetryEvent> events;
  const auto add = [&](const std::string& name,
                       std::map<std::string, std::string> labels) {
    TelemetryEvent event;
    event.seq = static_cast<long long>(events.size());
    event.t_us = 1000 * event.seq;
    event.name = name;
    event.kind = "point";
    event.labels = std::move(labels);
    events.push_back(std::move(event));
  };
  add("orchestrate.dispatch", {{"shard", "1"}, {"attempt", "1"}});
  add("orchestrate.dispatch", {{"shard", "0"}, {"attempt", "1"}});
  add("orchestrate.worker_exit",
      {{"shard", "0"}, {"attempt", "1"}, {"code", "70"}});
  add("orchestrate.retry",
      {{"shard", "0"}, {"next_attempt", "2"}, {"delay_ms", "50"}});
  add("orchestrate.shard_complete", {{"shard", "1"}, {"attempt", "1"}});
  add("orchestrate.merge", {{"rows", "8"}});
  return events;
}

TEST(RenderTimeline, GroupsByShardAndOmitsTimesByDefault) {
  const std::string md = render_timeline(fixture_events());
  // Shard-less events lead in a "run" section; shards sort numerically.
  EXPECT_LT(md.find("## run"), md.find("## shard 0"));
  EXPECT_LT(md.find("## shard 0"), md.find("## shard 1"));
  EXPECT_NE(md.find("- orchestrate.merge rows=8"), std::string::npos);
  EXPECT_NE(md.find("- orchestrate.worker_exit attempt=1 code=70"),
            std::string::npos);
  EXPECT_NE(md.find("- orchestrate.retry delay_ms=50 next_attempt=2"),
            std::string::npos);
  // No wall-clock anywhere: identical event sequences render to
  // identical bytes.
  EXPECT_EQ(md.find("[+"), std::string::npos);
  EXPECT_EQ(md, render_timeline(fixture_events()));
}

TEST(RenderTimeline, WithTimesIncludesStamps) {
  const std::string md =
      render_timeline(fixture_events(), /*with_times=*/true);
  EXPECT_NE(md.find("[+0.00"), std::string::npos);
}

TEST(RenderMetricsSummary, IncludesDerivedRates) {
  util::MetricsRegistry registry;
  registry.counter("engine.probe_calls").add(8);
  registry.counter("engine.probe_hits").add(6);
  registry.counter("campaign.cells_executed").add(3);
  registry.counter("campaign.resume_hits").add(1);
  const std::string md = render_metrics_summary(registry.snapshot_json());
  EXPECT_NE(md.find("| engine.probe_calls | 8 |"), std::string::npos);
  EXPECT_NE(md.find("| engine probe-memo hit rate | 75% |"),
            std::string::npos);
  EXPECT_NE(md.find("| campaign resume-cache hit rate | 25% |"),
            std::string::npos);
}

TEST(RenderMetricsSummary, BatchRowsRenderWhenInstrumented) {
  util::MetricsRegistry registry;
  registry.gauge("sweep.batch.lane_utilization").set(0.875);
  util::Histogram& lifetimes =
      registry.histogram("sweep.batch.retire_rounds", telemetry_round_bounds());
  lifetimes.observe(10);
  lifetimes.observe(30);
  registry.counter("sweep.batch.scalar_tasks").add(2);
  const std::string md = render_metrics_summary(registry.snapshot_json());
  EXPECT_NE(md.find("| sweep batch lane utilization | 87.5% |"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("| sweep batch mean lane lifetime | 20 rounds |"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("| sweep.batch.scalar_tasks | 2 |"), std::string::npos);
  // Byte-stable: same metric state renders to the same bytes.
  EXPECT_EQ(md, render_metrics_summary(registry.snapshot_json()));
}

TEST(RenderMetricsSummary, QueryRowsRenderWhenInstrumented) {
  util::MetricsRegistry registry;
  registry.counter("query.cache.hits").add(9);
  registry.counter("query.cache.misses").add(3);
  util::Histogram& latency =
      registry.histogram("query.latency_us", telemetry_time_bounds());
  latency.observe(10);
  latency.observe(30);
  const std::string md = render_metrics_summary(registry.snapshot_json());
  EXPECT_NE(md.find("| query cache hit rate | 75% |"), std::string::npos)
      << md;
  EXPECT_NE(md.find("| query mean latency | 20 us |"), std::string::npos)
      << md;
  // Byte-stable: same metric state renders to the same bytes.
  EXPECT_EQ(md, render_metrics_summary(registry.snapshot_json()));
}

TEST(RenderMetricsSummary, QueryRowsAbsentWithoutQueryMetrics) {
  util::MetricsRegistry registry;
  registry.counter("sweep.tasks").add(4);
  const std::string md = render_metrics_summary(registry.snapshot_json());
  EXPECT_EQ(md.find("query cache hit rate"), std::string::npos);
  EXPECT_EQ(md.find("query mean latency"), std::string::npos);
}

TEST(RenderMetricsSummary, BatchRowsAbsentWithoutBatchMetrics) {
  util::MetricsRegistry registry;
  registry.counter("sweep.tasks").add(4);
  const std::string md = render_metrics_summary(registry.snapshot_json());
  EXPECT_EQ(md.find("sweep batch lane utilization"), std::string::npos);
  EXPECT_EQ(md.find("sweep batch mean lane lifetime"), std::string::npos);
}

TEST(TelemetryRoundBounds, DoublingLadderFromOne) {
  const std::vector<long long>& bounds = telemetry_round_bounds();
  ASSERT_EQ(bounds.size(), 24u);
  EXPECT_EQ(bounds.front(), 1);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_EQ(bounds[i], 2 * bounds[i - 1]);
  // Same object every call: histogram layouts stay consistent.
  EXPECT_EQ(&bounds, &telemetry_round_bounds());
}

TEST(RenderBenchTrend, TabulatesBaselineCurrentSpeedup) {
  const util::Json bench = util::Json::parse(
      R"({"baseline":{"BM_X/64":{"real_time_ns":100.0}},)"
      R"("current":{"BM_X/64":{"real_time_ns":25.0}},)"
      R"("speedup_vs_baseline":{"BM_X/64":4.0}})");
  const std::string md = render_bench_trend(bench);
  EXPECT_NE(md.find("| BM_X/64 | 100 | 25 | 4x |"), std::string::npos);
}

// --- csv renderer parity -----------------------------------------------------

TEST(RenderTimeline, CsvIsOneFlatTableWithSameOrdering) {
  const std::string csv =
      render_timeline(fixture_events(), /*with_times=*/false,
                      ReportFormat::Csv);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "shard,kind,name,labels");
  // Same grouping as the markdown sections: the shard-less merge event
  // leads as "run", shards follow numerically, seq order within.
  EXPECT_LT(csv.find("run,point,orchestrate.merge,rows=8"),
            csv.find("0,point,orchestrate.dispatch,attempt=1"));
  EXPECT_LT(csv.find("0,point,orchestrate.retry,delay_ms=50 next_attempt=2"),
            csv.find("1,point,orchestrate.dispatch,attempt=1"));
  // No timestamps without --times: byte-stable like the markdown form.
  EXPECT_EQ(csv.find("t_us"), std::string::npos);
  EXPECT_EQ(csv, render_timeline(fixture_events(), false,
                                 ReportFormat::Csv));
}

TEST(RenderMetricsSummary, CsvCarriesEveryKindIncludingDerived) {
  util::MetricsRegistry registry;
  registry.counter("engine.probe_calls").add(8);
  registry.counter("engine.probe_hits").add(6);
  const std::string csv =
      render_metrics_summary(registry.snapshot_json(), ReportFormat::Csv);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "kind,name,value,count,sum");
  EXPECT_NE(csv.find("counter,engine.probe_calls,8,-,-"),
            std::string::npos);
  // The derived rate needs quoting in csv (its name embeds spaces but no
  // comma, so it stays bare under RFC-4180).
  EXPECT_NE(csv.find("derived,engine probe-memo hit rate,75%,-,-"),
            std::string::npos)
      << csv;
}

TEST(RenderBenchTrend, HistoryErasRenderInBothFormats) {
  const util::Json bench = util::Json::parse(
      R"({"baseline":{"BM_X/64":{"real_time_ns":100.0}},)"
      R"("current":{"BM_X/64":{"real_time_ns":25.0}},)"
      R"("speedup_vs_baseline":{"BM_X/64":4.0},)"
      R"("history":[{"engine":"dring-1.2.0","date":"2026-03-01",)"
      R"("marks":{"BM_X/64":{"real_time_ns":50.0,)"
      R"("items_per_second":2.0}}}]})");
  const std::string md = render_bench_trend(bench);
  EXPECT_NE(md.find("## rebaseline history"), std::string::npos);
  EXPECT_NE(md.find("| dring-1.2.0 (2026-03-01) | BM_X/64 | 50 | 2 |"),
            std::string::npos)
      << md;
  const std::string csv = render_bench_trend(bench, ReportFormat::Csv);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "benchmark,era,real_time_ns,items_per_second,speedup");
  EXPECT_NE(csv.find("BM_X/64,baseline,100,0,-"), std::string::npos) << csv;
  EXPECT_NE(csv.find("BM_X/64,current,25,0,4"), std::string::npos);
  EXPECT_NE(csv.find("BM_X/64,history:dring-1.2.0@2026-03-01,50,2,-"),
            std::string::npos);
  // Without a history member the md page keeps its original shape.
  const util::Json no_history = util::Json::parse(
      R"({"current":{"BM_X/64":{"real_time_ns":25.0}}})");
  EXPECT_EQ(render_bench_trend(no_history).find("rebaseline history"),
            std::string::npos);
}

// --- log levels --------------------------------------------------------------

TEST(LogLevels, CliMappingAndPrecedence) {
  const auto level_of = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "tool");
    const util::Cli cli(static_cast<int>(argv.size()), argv.data());
    return log_level_from_cli(cli);
  };
  EXPECT_EQ(level_of({}), LogLevel::kInfo);
  EXPECT_EQ(level_of({"--verbose"}), LogLevel::kDebug);
  EXPECT_EQ(level_of({"--quiet"}), LogLevel::kQuiet);
  // --quiet wins when both are given.
  EXPECT_EQ(level_of({"--quiet", "--verbose"}), LogLevel::kQuiet);

  const LogLevel before = log_level();
  set_log_level(LogLevel::kQuiet);
  EXPECT_TRUE(log_enabled(LogLevel::kQuiet));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  set_log_level(LogLevel::kDebug);
  EXPECT_TRUE(log_enabled(LogLevel::kInfo));
  set_log_level(before);
}

}  // namespace
}  // namespace dring::core
