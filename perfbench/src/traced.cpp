// The traced run (--trace 1): every per-layer metric.
//
// The pipeline calls the layers one by one, in order, each inside a span:
//   1. campaign_spec_from_json, expand, fingerprint, to_task
//   2. run_scenarios at 4 threads, at 1 thread, and at batch_width 32
//   3. sort_canonical, a row_line loop, write_result_store
//   4. read_result_store_file, then Json::parse over the raw lines
//   5. aggregate_rows, render_aggregate_report
//   6. ResultCache construction, then handle_query_line for each request
// The same pipeline also runs with the tracer off, before and after (the
// untraced equivalent behind trace.overhead_share).  Outputs of the traced
// pass are checked like the timed run's; spans go to <work-dir>/spans.json
// and the traced table to stderr.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>

#include "bench.hpp"
#include "core/telemetry.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace bench {

using namespace dring;

namespace {

struct PassOutput {
  std::vector<core::CampaignRow> rows_1t, rows_batch;  ///< spec order
  std::string report;
  std::vector<Request> requests;
  std::vector<std::string> replies;
  std::vector<Metric> metrics;  ///< traced pass only
};

/// Gaps between consecutive completion stamps, in microseconds.
std::vector<double> gaps_us(double start, const std::vector<double>& stamps) {
  std::vector<double> gaps;
  gaps.reserve(stamps.size());
  for (const double t : stamps) {
    gaps.push_back((t - start) * 1e6);
    start = t;
  }
  return gaps;
}

PassOutput pipeline(const Grid& grid, const std::string& store,
                    int n_requests, std::uint64_t mix_seed, Tracer& tr) {
  using Scope = Tracer::Scope;
  const bool traced = tr.enabled();
  PassOutput out;
  std::size_t cells = 0, parse_bytes = 0, points = 0;
  double sweep_cpu = 0, start_1t = 0;
  std::vector<double> done_4t, done_1t;
  std::vector<double> latency_us[3];  // by RequestKind
  core::ResultCache::Stats before, after;
  {
    Scope root(tr, "pipeline");

    core::CampaignSpec campaign;
    {
      Scope s(tr, "spec.parse");
      campaign = load_campaign(grid, grid.salt);
    }
    std::vector<core::ScenarioSpec> specs;
    {
      Scope s(tr, "spec.expand");
      specs = core::expand(campaign);
    }
    cells = specs.size();
    std::vector<std::uint64_t> fps(cells);
    {
      Scope s(tr, "spec.fingerprint");
      for (std::size_t i = 0; i < cells; ++i)
        fps[i] = core::fingerprint(specs[i]);
    }
    {
      Scope s(tr, "spec.to_task");
      std::vector<core::ScenarioTask> tasks;
      tasks.reserve(cells);
      for (const core::ScenarioSpec& spec : specs)
        tasks.push_back(core::to_task(spec));
    }

    // Completion stamps ride the sweep's serialized on_task_done hook.
    std::function<void(std::size_t, std::size_t)> stamp_4t, stamp_1t;
    if (traced) {
      done_4t.reserve(cells);
      done_1t.reserve(cells);
      stamp_4t = [&](std::size_t, std::size_t) { done_4t.push_back(now_s()); };
      stamp_1t = [&](std::size_t, std::size_t) { done_1t.push_back(now_s()); };
    }
    std::vector<core::CampaignRow> rows;
    {
      Scope s(tr, "sweep.threads4");
      const double c0 = cpu_s();
      rows = core::run_scenarios(specs, kThreads, stamp_4t);
      sweep_cpu = cpu_s() - c0;
    }
    {
      Scope s(tr, "sweep.threads1");
      start_1t = now_s();
      out.rows_1t = core::run_scenarios(specs, 1, stamp_1t);
    }
    {
      Scope s(tr, "sweep.batch32");
      out.rows_batch = core::run_scenarios(specs, kThreads, {}, 32);
    }

    {
      Scope s(tr, "store.sort");
      core::sort_canonical(rows);
    }
    {
      Scope s(tr, "store.serialize");
      for (const core::CampaignRow& row : rows)
        static_cast<void>(core::row_line(row));
    }
    {
      Scope s(tr, "store.write");
      core::write_result_store(store, std::move(rows));
    }
    core::ResultStore loaded;
    {
      Scope s(tr, "store.read");
      loaded = core::read_result_store_file(store);
    }
    std::vector<std::string> lines;
    {
      Scope s(tr, "store.read_raw");
      std::ifstream in(store);
      for (std::string line; std::getline(in, line);)
        lines.push_back(std::move(line));
    }
    {
      Scope s(tr, "json.parse");
      for (const std::string& line : lines) {
        static_cast<void>(util::Json::parse(line));
        parse_bytes += line.size();
      }
    }

    const std::vector<std::string> keys = {"algorithm", "n"};
    std::vector<core::GroupRow> groups;
    {
      Scope s(tr, "analysis.aggregate");
      groups = core::aggregate_rows(loaded.rows, keys,
                                    core::Metric::ExploredRound);
    }
    {
      Scope s(tr, "analysis.render");
      out.report = core::render_aggregate_report(
          groups, keys, core::Metric::ExploredRound,
          core::ReportFormat::Markdown);
    }

    std::optional<core::ResultCache> cache;
    {
      Scope s(tr, "query.cache_build");
      cache.emplace(std::move(loaded));
    }
    {
      Scope s(tr, "bench.requests");
      std::sort(fps.begin(), fps.end());
      RequestMix mix(fps, mix_seed);
      out.requests.reserve(static_cast<std::size_t>(n_requests));
      for (int i = 0; i < n_requests; ++i) out.requests.push_back(mix.next());
      out.replies.resize(out.requests.size());
    }
    before = cache->stats();
    {
      Scope s(tr, "query.serve");
      for (std::size_t i = 0; i < out.requests.size(); ++i) {
        const double t0 = traced ? now_s() : 0;
        out.replies[i] =
            core::handle_query_line(*cache, out.requests[i].line).dump();
        if (traced)
          latency_us[static_cast<int>(out.requests[i].kind)].push_back(
              (now_s() - t0) * 1e6);
      }
    }
    after = cache->stats();
    {
      Scope s(tr, "query.request_parse");
      for (const Request& r : out.requests)
        static_cast<void>(util::Json::parse(r.line));
    }
    {
      Scope s(tr, "query.find");
      for (const Request& r : out.requests) {
        if (r.kind != RequestKind::Point) continue;
        static_cast<void>(cache->find(r.fp));
        ++points;
      }
    }
  }
  if (!traced) return out;

  const auto sec = [&](const char* name) { return tr.seconds(name); };
  const auto rows = static_cast<double>(cells);
  long long rounds = 0;
  for (const core::CampaignRow& row : out.rows_1t) rounds += row.outcome.rounds;
  const std::size_t at95 =
      static_cast<std::size_t>(std::ceil(0.95 * rows)) - 1;
  const double lookups = static_cast<double>(after.hits - before.hits) +
                         static_cast<double>(after.misses - before.misses);
  const std::vector<double> task_gaps = gaps_us(start_1t, done_1t);
  out.metrics = {
      {"spec.expand_ms", sec("spec.expand") * 1e3, "ms"},
      {"spec.fingerprint_ns_per_cell", sec("spec.fingerprint") / rows * 1e9,
       "ns"},
      {"spec.to_task_ms", sec("spec.to_task") * 1e3, "ms"},
      {"sweep.wall_ms", sec("sweep.threads4") * 1e3, "ms"},
      {"sweep.cpu_ms", sweep_cpu * 1e3, "ms"},
      {"sweep.rounds", static_cast<double>(rounds), "count"},
      {"engine.rounds_per_cpu_s", static_cast<double>(rounds) / sweep_cpu,
       "1/s"},
      {"sweep.scaling_4v1", sec("sweep.threads1") / sec("sweep.threads4"),
       "ratio"},
      {"sweep.task_us.p50", percentile(task_gaps, 0.50), "us"},
      {"sweep.task_us.p99", percentile(task_gaps, 0.99), "us"},
      {"sweep.tail_ms", (done_4t.back() - done_4t[at95]) * 1e3, "ms"},
      {"sweep.batch32_speedup", sec("sweep.threads4") / sec("sweep.batch32"),
       "ratio"},
      {"store.sort_ms", sec("store.sort") * 1e3, "ms"},
      {"store.serialize_us_per_row", sec("store.serialize") / rows * 1e6,
       "us"},
      {"store.write_ms", sec("store.write") * 1e3, "ms"},
      {"store.sync_ms",
       (sec("store.write") - sec("store.sort") - sec("store.serialize")) * 1e3,
       "ms"},
      {"store.read_us_per_row", sec("store.read") / rows * 1e6, "us"},
      {"store.bytes", static_cast<double>(read_file(store).size()), "B"},
      {"json.parse_mb_per_s",
       static_cast<double>(parse_bytes) / sec("json.parse") / 1e6, "MB/s"},
      {"json.parse_share_of_read", sec("json.parse") / sec("store.read"),
       "fraction"},
      {"analysis.aggregate_ms", sec("analysis.aggregate") * 1e3, "ms"},
      {"analysis.render_ms", sec("analysis.render") * 1e3, "ms"},
      {"query.cache_build_ms", sec("query.cache_build") * 1e3, "ms"},
      {"query.request_parse_us",
       sec("query.request_parse") /
           static_cast<double>(out.requests.size()) * 1e6,
       "us"},
      {"query.find_ns", sec("query.find") / static_cast<double>(points) * 1e9,
       "ns"},
      {"query.point_us.p50", median(latency_us[0]), "us"},
      {"query.aggregate_us.p50", median(latency_us[1]), "us"},
      {"query.frontier_us.p50", median(latency_us[2]), "us"},
      {"query.hit_ratio",
       static_cast<double>(after.hits - before.hits) / lookups, "fraction"},
  };
  return out;
}

/// Store bytes a row set would be written as, digested like a store file.
std::uint64_t rows_digest(std::vector<core::CampaignRow> rows) {
  core::sort_canonical(rows);
  std::uint64_t h = fnv1a("");
  for (const core::CampaignRow& row : rows)
    h = fnv1a(core::row_line(row) + "\n", h);
  return h;
}

}  // namespace

Result run_traced(const Workload& w, const Options& o) {
  Tally tally;
  const Grid grid = make_grid(w, o);
  const References refs = load_references(o.bench_dir);
  const std::string store = o.work_dir + "/store.jsonl";
  const int n_requests = o.scale == "tiny" ? 300 : 5000;
  const double capacity = host_parallel_capacity();

  std::uint64_t expected = check_reference_store(w, grid, o, refs, tally);

  // Untraced, traced, untraced: the traced pass is compared with the mean
  // of its two untraced neighbours, so warm-up and drift cancel.
  const auto untraced_pass = [&] {
    Tracer off(false);
    const double t0 = now_s();
    const PassOutput pass = pipeline(grid, store, n_requests, o.seed, off);
    return now_s() - t0;
  };
  double untraced_wall = untraced_pass();
  Tracer tr(true);
  PassOutput pass = pipeline(grid, store, n_requests, o.seed, tr);
  const double traced_wall = tr.spans().front().seconds();
  untraced_wall = 0.5 * (untraced_wall + untraced_pass());

  // Checks: the 1-thread rows are the thread-invariance oracle for any
  // salt; the batched rows and the 4-thread store must match them.
  const long long cells = static_cast<long long>(pass.rows_1t.size());
  if (grid.salt != grid.reference_salt) expected = rows_digest(pass.rows_1t);
  tally.add(cells, rows_digest(pass.rows_1t) == expected);
  tally.add(cells, rows_digest(pass.rows_batch) == expected);
  tally.add(cells, store_matches(o, store, expected));
  try {
    const std::string report = reference_report(o, store);
    tally.add(1, !report.empty() && report == pass.report);
    const ResponseOracle oracle(read_file(store),
                                core::read_result_store_file(store).rows);
    for (std::size_t i = 0; i < pass.requests.size(); ++i)
      tally.add(1, oracle.check(pass.requests[i], pass.replies[i]));
  } catch (const std::exception& e) {
    note(std::string("check failed: ") + e.what());
    tally.add(1 + static_cast<long long>(pass.requests.size()), false);
  }
  if (!tr.well_nested()) {
    note("spans are not well nested");
    tally.add(1, false);
  }

  // telemetry.overhead_share: run_campaign with the sidecar telemetry on
  // vs off, alternating, best of two each.
  double on = 1e300, off = 1e300;
  const std::string telemetry_store = o.work_dir + "/telemetry.jsonl";
  for (int i = 0; i < 2; ++i) {
    off = std::min(
        off, timed_campaign(grid, grid.salt, telemetry_store, kThreads).wall);
    core::telemetry().enable(o.work_dir + "/telemetry");
    on = std::min(
        on, timed_campaign(grid, grid.salt, telemetry_store, kThreads).wall);
    core::telemetry().shutdown();
  }

  tr.write(o.work_dir + "/spans.json");
  std::cerr << tr.table();

  Result result;
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.metrics = std::move(pass.metrics);
  result.metrics.push_back(
      {"telemetry.overhead_share", on / off - 1, "fraction"});
  result.metrics.push_back(
      {"trace.unattributed_share", tr.self_seconds(0) / traced_wall,
       "fraction"});
  result.metrics.push_back(
      {"trace.overhead_share", traced_wall / untraced_wall - 1, "fraction"});
  result.metrics.push_back({"host.parallel_capacity", capacity, "cores"});
  return result;
}

}  // namespace bench
