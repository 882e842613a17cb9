// The timed run (--trace 0): every end-to-end metric, tracing off.
//
// Four phases, interleaved for --seconds with each getting its share of
// the time (and a minimum sample count), each reported as a median:
//   campaign  read spec file -> run_campaign at 4 threads, store fsynced
//   report    load_result_stores + aggregate_rows + render_aggregate_report
//   setup     spec parse + expand + one fingerprint pass, or (serve_mix)
//             the cold ResultCache::load of the store
//   query     one closed-loop client sending the seeded request mix
//             through handle_query_line
// Every output is checked (untimed): store digests against the recorded
// reference and the 1-thread store, report bytes against dring_report,
// every reply against the batch analysis path and the store's raw lines.
//
// Every time is reported at the reference host speed.  Before every step
// the run times calibration_s and parallel_calibration_s; a slowdown is a
// run's median calibration over its reference.  Single-threaded times
// (report, setup, query) and campaign_cpu_s are divided by the 1-thread
// slowdown, campaign_s by the geometric mean of the 1-thread and 4-thread
// slowdowns: a campaign is single-threaded stages plus a 4-thread sweep.
// Raw medians swing by up to 45% between processes on a shared host and
// the calibrations swing with them.  Raw values go to stderr.
#include <cmath>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "util/json.hpp"

namespace bench {

using namespace dring;

namespace {

/// ResultCache::load on the heap (the cache is neither copyable nor
/// movable; the prvalue initializes the new object directly).
std::unique_ptr<core::ResultCache> load_cache(const std::string& store) {
  return std::unique_ptr<core::ResultCache>(
      new core::ResultCache(core::ResultCache::load({store})));
}

}  // namespace

Result run_timed(const Workload& w, const Options& o) {
  Tally tally;
  const Grid grid = make_grid(w, o);
  const References refs = load_references(o.bench_dir);
  const std::string store = o.work_dir + "/store.jsonl";
  const std::string oracle_store = o.work_dir + "/oracle.jsonl";
  note(w.name + ": host.parallel_capacity " +
       std::to_string(host_parallel_capacity()) + " cores");

  const std::size_t cells =
      core::expand(load_campaign(grid, grid.salt)).size();

  // Set-up checks: the reference salt's store against the recorded digest,
  // then the run's salt at 1 thread as the thread-invariance oracle.
  std::uint64_t expected = check_reference_store(w, grid, o, refs, tally);
  if (grid.salt != grid.reference_salt) {
    timed_campaign(grid, grid.salt, oracle_store, 1);
    expected = store_row_digest(read_file(oracle_store));
  }

  std::vector<double> campaign_wall, campaign_cpu, report_s, setup_s,
      latency_us, calibration, parallel_calibration;
  const auto campaign_step = [&] {
    try {
      const CampaignRun r = timed_campaign(grid, grid.salt, store, kThreads);
      campaign_wall.push_back(r.wall);
      campaign_cpu.push_back(r.cpu);
      tally.add(static_cast<long long>(cells),
                store_matches(o, store, expected));
    } catch (const std::exception& e) {
      note(std::string("campaign failed: ") + e.what());
      tally.add(static_cast<long long>(cells), false);
    }
  };
  // The first campaign writes the store every other phase reads.
  campaign_step();

  const std::string expected_report = reference_report(o, store);
  if (expected_report.empty()) note("dring_report produced no report");
  const auto report_step = [&] {
    try {
      const double t0 = now_s();
      const std::string report = render_report(store);
      report_s.push_back(now_s() - t0);
      tally.add(1, !expected_report.empty() && report == expected_report);
    } catch (const std::exception& e) {
      note(std::string("report failed: ") + e.what());
      tally.add(1, false);
    }
  };

  const auto setup_step = [&] {
    std::unique_ptr<core::ResultCache> cold;
    const double t0 = now_s();
    if (w.fixed_store) {
      cold = load_cache(store);
    } else {
      for (const core::ScenarioSpec& spec :
           core::expand(load_campaign(grid, grid.salt)))
        static_cast<void>(core::fingerprint(spec));
    }
    setup_s.push_back(now_s() - t0);
  };

  // The serving cache is loaded once; the query phase never sees a reload.
  const std::unique_ptr<core::ResultCache> cache = load_cache(store);
  const ResponseOracle oracle(read_file(store), cache->rows());
  if (w.fixed_store) {
    // The store is the reference store: its reply stream for the
    // reference request seed has a recorded digest.
    RequestMix mix(oracle.stored_fingerprints(), refs.stream_seed);
    const int n = refs.stream_requests.at(o.scale);
    std::uint64_t digest = fnv1a("");
    bool ok = true;
    for (int i = 0; i < n; ++i) {
      const Request r = mix.next();
      const std::string reply = core::handle_query_line(*cache, r.line).dump();
      ok = oracle.check(r, reply) && ok;
      digest = fnv1a(reply + "\n", digest);
    }
    if (digest != refs.streams.at(o.scale))
      note("reply stream digest " + core::hex_u64(digest) + " != reference " +
           core::hex_u64(refs.streams.at(o.scale)));
    tally.add(n, ok && digest == refs.streams.at(o.scale));
  }

  // Closed loop, one client: each request is sent when the previous reply
  // is back.  A step is one chunk of requests; they are generated before
  // and checked after the chunk, outside the loop's wall time.
  RequestMix mix(oracle.stored_fingerprints(), o.seed);
  constexpr std::size_t kChunk = 256;
  std::vector<Request> chunk(kChunk);
  std::vector<std::string> replies(kChunk);
  double loop_wall = 0;
  const auto query_step = [&] {
    for (Request& r : chunk) r = mix.next();
    if (latency_us.capacity() < latency_us.size() + kChunk)
      latency_us.reserve(2 * (latency_us.size() + kChunk));
    const double c0 = now_s();
    for (std::size_t i = 0; i < kChunk; ++i) {
      const double t0 = now_s();
      replies[i] = core::handle_query_line(*cache, chunk[i].line).dump();
      latency_us.push_back((now_s() - t0) * 1e6);
    }
    loop_wall += now_s() - c0;
    for (std::size_t i = 0; i < kChunk; ++i)
      tally.add(1, oracle.check(chunk[i], replies[i]));
  };

  // Interleave the phases for --seconds, so a burst of host contention
  // lands on a few samples of every metric instead of all samples of one.
  // Each step goes to the phase furthest below its share of the time
  // spent so far; minimum sample counts are met even past the deadline.
  struct Phase {
    double share;
    std::size_t min_steps;
    std::function<void()> step;
    double spent = 0;
    std::size_t steps = 0;
  };
  std::vector<Phase> phases = {{w.campaign_share, 3, campaign_step},
                               {w.report_share, 3, report_step},
                               {w.setup_share, 5, setup_step},
                               {w.query_share, 8, query_step}};
  // (8 query steps = 2048 requests, so p99 has >= 20 samples beyond it.)
  for (int i = 0; i < 5; ++i) {  // warm the allocator's arenas
    calibration_s();
    parallel_calibration_s();
  }
  const double t0 = now_s();
  for (;;) {
    const bool time_left = now_s() - t0 < o.seconds;
    Phase* next = nullptr;
    for (Phase& p : phases) {
      if (!time_left && p.steps >= p.min_steps) continue;
      if (!next || p.spent / p.share < next->spent / next->share) next = &p;
    }
    if (!next) break;
    calibration.push_back(calibration_s());
    parallel_calibration.push_back(parallel_calibration_s());
    const double s0 = now_s();
    next->step();
    next->spent += now_s() - s0;
    ++next->steps;
  }
  note(w.name + ": samples campaign " + std::to_string(campaign_wall.size()) +
       ", report " + std::to_string(report_s.size()) + ", setup " +
       std::to_string(setup_s.size()) + ", requests " +
       std::to_string(latency_us.size()));
  // Seconds at this run's speed per second at the reference speed.
  const double slowdown = median(calibration) / kReferenceCalibrationS;
  const double campaign_slowdown = std::sqrt(
      slowdown * median(parallel_calibration) / kReferenceParallelCalibrationS);
  const double raw_qps = static_cast<double>(latency_us.size()) / loop_wall;
  note(w.name + ": calibration " + std::to_string(median(calibration) * 1e3) +
       " ms, parallel " + std::to_string(median(parallel_calibration) * 1e3) +
       " ms; raw campaign_s " + std::to_string(median(campaign_wall)) +
       ", campaign_cpu_s " + std::to_string(median(campaign_cpu)) +
       ", report_s " + std::to_string(median(report_s)) + ", setup_s " +
       std::to_string(median(setup_s)) + ", query_p50_us " +
       std::to_string(percentile(latency_us, 0.50)) + ", query_p99_us " +
       std::to_string(percentile(latency_us, 0.99)) + ", queries_per_s " +
       std::to_string(raw_qps));

  Result result;
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.metrics = {
      {"campaign_s", median(campaign_wall) / campaign_slowdown, "s"},
      {"campaign_cpu_s", median(campaign_cpu) / slowdown, "s"},
      {"report_s", median(report_s) / slowdown, "s"},
      {"setup_s", median(setup_s) / slowdown, "s"},
      {"query_p50_us", percentile(latency_us, 0.50) / slowdown, "us"},
      {"query_p99_us", percentile(latency_us, 0.99) / slowdown, "us"},
      {"queries_per_s", raw_qps * slowdown, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return result;
}

}  // namespace bench
