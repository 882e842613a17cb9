// Tests for the in-memory campaign query service (core/query.hpp):
// cache-derived reports must be byte-identical to the batch analysis
// path, point lookup must be an exact hit/miss oracle, store bytes must
// re-emit verbatim, the missing-cell scan must partition like the
// orchestrator's shard filter, and the streaming aggregator's exact
// columns must be bit-identical to the batch fold for any arrival order,
// any merge split and any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "core/analysis.hpp"
#include "core/campaign.hpp"
#include "core/query.hpp"
#include "util/json.hpp"

namespace dring::core {
namespace {

CampaignSpec query_campaign() {
  CampaignSpec campaign;
  campaign.name = "query-test";
  campaign.algorithms = {"KnownNNoChirality", "UnconsciousExploration"};
  campaign.sizes = {5, 6};
  AdversarySpec targeted;
  targeted.family = "targeted-random";
  targeted.target_prob = 0.5;
  AdversarySpec null_adv;
  campaign.adversaries = {null_adv, targeted};
  campaign.t_intervals = {1, 3};
  campaign.seeds_per_cell = 2;
  campaign.salt = 21;
  campaign.max_rounds = 3000;
  return campaign;
}

/// One executed row set per test binary: the simulation cost is paid
/// once, every test below queries the same rows.
const std::vector<CampaignRow>& executed_rows() {
  static const std::vector<CampaignRow> rows =
      run_scenarios(expand(query_campaign()), 2);
  return rows;
}

ResultCache make_cache() {
  return ResultCache(ResultStore{current_provenance(), executed_rows()});
}

// --- cache-derived reports are byte-identical to the batch path ------------

TEST(QueryCache, AggregateReportsMatchBatchBytes) {
  const ResultCache cache = make_cache();
  const std::vector<std::vector<std::string>> groupings = {
      {},                      // global fold
      {"algorithm"},           // single-axis fast path (bucket walk)
      {"n"},                   // numeric single axis
      {"algorithm", "n"},      // composite keys
      {"t_interval", "algorithm", "n"},
  };
  for (const auto& keys : groupings) {
    for (const Metric metric :
         {Metric::ExploredRound, Metric::Rounds, Metric::Moves}) {
      for (const ReportFormat format :
           {ReportFormat::Markdown, ReportFormat::Csv, ReportFormat::Json}) {
        const std::string batch = render_aggregate_report(
            aggregate_rows(executed_rows(), keys, metric), keys, metric,
            format);
        const std::string cached = render_aggregate_report(
            cache.aggregate(keys, metric), keys, metric, format);
        EXPECT_EQ(cached, batch)
            << "group-by size " << keys.size() << ", metric "
            << to_string(metric);
      }
    }
  }
}

TEST(QueryCache, FrontierReportsMatchBatchBytes) {
  const ResultCache cache = make_cache();
  for (const std::string axis : {"n", "t_interval"}) {
    const std::vector<std::string> keys = {"algorithm"};
    const std::string batch = render_frontier_report(
        detect_frontier(executed_rows(), keys, axis, 0.5), keys, axis, 0.5,
        ReportFormat::Markdown);
    const std::string cached =
        render_frontier_report(cache.frontier(keys, axis, 0.5), keys, axis,
                               0.5, ReportFormat::Markdown);
    EXPECT_EQ(cached, batch) << "axis " << axis;
  }
}

TEST(QueryCache, AggregateCanonicalizesAliasesAndRejectsUnknownAxes) {
  const ResultCache cache = make_cache();
  // "T" and "k" are documented aliases; the cache must accept exactly
  // what the batch path accepts.
  EXPECT_EQ(cache.aggregate({"T"}, Metric::Rounds).size(),
            cache.aggregate({"t_interval"}, Metric::Rounds).size());
  EXPECT_THROW(cache.aggregate({"no_such_axis"}, Metric::Rounds),
               std::invalid_argument);
}

// --- point lookup ----------------------------------------------------------

TEST(QueryCache, FindIsAnExactHitMissOracle) {
  const ResultCache cache = make_cache();
  for (const CampaignRow& row : cache.rows()) {
    const CampaignRow* hit = cache.find(row.fingerprint);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(row_line(*hit), row_line(row));
  }
  // Fingerprints not in the store must miss, including 0 (the empty-slot
  // sentinel is row-index-based, not fingerprint-based).
  EXPECT_EQ(cache.find(0), nullptr);
  EXPECT_EQ(cache.find(~std::uint64_t{0}), nullptr);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t fp = rng();
    const CampaignRow* row = cache.find(fp);
    const bool in_store =
        std::any_of(cache.rows().begin(), cache.rows().end(),
                    [&](const CampaignRow& r) { return r.fingerprint == fp; });
    EXPECT_EQ(row != nullptr, in_store);
  }
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, static_cast<long long>(cache.size()));
  EXPECT_GE(stats.misses, 2);
}

TEST(QueryCache, EmptyCacheAnswersWithoutIndexing) {
  const ResultCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(123), nullptr);
  EXPECT_TRUE(cache.aggregate({"algorithm"}, Metric::Rounds).empty());
}

// --- store byte identity ---------------------------------------------------

TEST(QueryCache, StoreBytesReEmitTheSourceFileVerbatim) {
  const std::string path = testing::TempDir() + "query_store_bytes.jsonl";
  std::remove(path.c_str());
  write_result_store(path, executed_rows());

  std::ifstream in(path);
  std::stringstream disk;
  disk << in.rdbuf();

  const ResultCache cache = ResultCache::load({path});
  EXPECT_EQ(cache.store_bytes(), disk.str());
  std::remove(path.c_str());
}

// --- missing-cell scan ------------------------------------------------------

TEST(QueryCache, ScanCellsPartitionsLikeTheShardFilter) {
  const std::vector<ScenarioSpec> specs = expand(query_campaign());
  // A cache holding only half the rows: every other canonical row.
  std::vector<CampaignRow> half;
  for (std::size_t i = 0; i < executed_rows().size(); i += 2)
    half.push_back(executed_rows()[i]);
  const ResultCache cache(ResultStore{current_provenance(), half});

  const int shards = 3;
  const ResultCache::CellScan scan = cache.scan_cells(specs, shards);
  EXPECT_EQ(scan.present.size() + scan.missing.size(), specs.size());
  EXPECT_EQ(scan.present.size(), half.size());

  // The missing shard list is exactly {fp % shards} over the missing
  // fingerprints — the partition dring_campaign --shard executes.
  std::vector<int> expected;
  for (const std::uint64_t fp : scan.missing)
    expected.push_back(static_cast<int>(fp % shards));
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(scan.missing_shards, expected);
  EXPECT_THROW(cache.scan_cells(specs, 0), std::invalid_argument);

  const util::Json manifest =
      missing_cell_manifest("query-test", "spec.json", shards, scan);
  EXPECT_EQ(manifest.get_string("campaign", ""), "query-test");
  EXPECT_EQ(manifest.get_int("shards", 0), shards);
  EXPECT_EQ(manifest.at("missing_cells").as_array().size(),
            scan.missing.size());
  EXPECT_EQ(manifest.at("missing").as_array().size(),
            scan.missing_shards.size());
  EXPECT_NE(manifest.get_string("resume_hint", "").find("dring_orchestrate"),
            std::string::npos);
}

// --- streaming aggregation --------------------------------------------------

/// The streaming-exact fields of a GroupRow (everything except the
/// sketch-estimated median/p95 and moment-derived stddev), as a
/// comparable tuple string.
std::string exact_fields(const GroupRow& row) {
  std::ostringstream out;
  out.precision(17);  // full double round-trip: "bit-identical" means it
  for (const std::string& k : row.key) out << k << "|";
  out << row.agg.runs << " " << row.agg.successes << " "
      << row.agg.premature << " " << row.agg.violations << " "
      << row.agg.rate_ci.lo << " " << row.agg.rate_ci.hi << " "
      << row.agg.samples << " " << row.agg.min << " " << row.agg.max << " "
      << row.agg.mean;
  return out.str();
}

std::vector<std::string> exact_fields(const std::vector<GroupRow>& rows) {
  std::vector<std::string> out;
  for (const GroupRow& row : rows) out.push_back(exact_fields(row));
  return out;
}

TEST(StreamingAggregator, ExactColumnsMatchBatchForAnyArrivalOrder) {
  const std::vector<std::string> keys = {"algorithm", "n"};
  const std::vector<GroupRow> batch =
      aggregate_rows(executed_rows(), keys, Metric::ExploredRound);

  for (const unsigned seed : {1u, 2u, 3u}) {
    std::vector<CampaignRow> shuffled = executed_rows();
    std::mt19937 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    StreamingAggregator agg(keys, Metric::ExploredRound);
    for (const CampaignRow& row : shuffled) agg.add(row);
    EXPECT_EQ(agg.rows_folded(),
              static_cast<long long>(executed_rows().size()));
    EXPECT_EQ(exact_fields(agg.finish()), exact_fields(batch))
        << "seed " << seed;
  }
}

TEST(StreamingAggregator, MergeOfAnySplitEqualsTheSingleFold) {
  const std::vector<std::string> keys = {"algorithm"};
  StreamingAggregator whole(keys, Metric::Rounds);
  for (const CampaignRow& row : executed_rows()) whole.add(row);

  StreamingAggregator parts(keys, Metric::Rounds);
  for (std::size_t start : {0u, 1u, 2u}) {
    StreamingAggregator shard(keys, Metric::Rounds);
    for (std::size_t i = start; i < executed_rows().size(); i += 3)
      shard.add(executed_rows()[i]);
    parts.merge(shard);
  }
  EXPECT_EQ(parts.rows_folded(), whole.rows_folded());
  // Merge is exact for the whole state including the sketch: the rendered
  // reports (which include median/p95) must be identical.
  EXPECT_EQ(parts.render(ReportFormat::Csv), whole.render(ReportFormat::Csv));

  StreamingAggregator other_keys({"n"}, Metric::Rounds);
  EXPECT_THROW(parts.merge(other_keys), std::invalid_argument);
  StreamingAggregator other_metric(keys, Metric::Moves);
  EXPECT_THROW(parts.merge(other_metric), std::invalid_argument);
}

TEST(StreamingAggregator, RenderMarksTheEstimatedColumns) {
  StreamingAggregator agg({"algorithm"}, Metric::ExploredRound);
  for (const CampaignRow& row : executed_rows()) agg.add(row);
  const std::string md = agg.render(ReportFormat::Markdown);
  EXPECT_NE(md.find("sketch"), std::string::npos);
  // Csv/Json stay machine-readable: no preamble.
  EXPECT_EQ(agg.render(ReportFormat::Csv).find("sketch"), std::string::npos);
}

TEST(StreamingCampaign, StreamedRunMatchesBatchForAnyThreadCount) {
  const CampaignSpec campaign = query_campaign();
  std::string serial;
  for (const int threads : {1, 2, 4}) {
    CampaignOptions options;
    options.threads = threads;
    StreamingAggregator stream({"algorithm", "n"}, Metric::ExploredRound);
    options.stream = &stream;
    const CampaignReport report = run_campaign(campaign, options);
    // No out_path: the rows are folded and discarded, never materialized.
    EXPECT_TRUE(report.rows.empty());
    EXPECT_EQ(report.executed, expand(campaign).size());
    const std::string rendered = stream.render(ReportFormat::Csv);
    if (threads == 1)
      serial = rendered;
    else
      EXPECT_EQ(rendered, serial) << threads << " threads";
  }
  // And the exact columns agree with the batch fold over a plain run.
  StreamingAggregator stream({"algorithm", "n"}, Metric::ExploredRound);
  CampaignOptions options;
  options.threads = 2;
  options.stream = &stream;
  run_campaign(campaign, options);
  EXPECT_EQ(
      exact_fields(stream.finish()),
      exact_fields(aggregate_rows(executed_rows(), {"algorithm", "n"},
                                  Metric::ExploredRound)));
}

TEST(StreamingCampaign, StreamingWithStoreKeepsTheStoreBytes) {
  const std::string plain_path = testing::TempDir() + "query_plain.jsonl";
  const std::string stream_path = testing::TempDir() + "query_stream.jsonl";
  std::remove(plain_path.c_str());
  std::remove(stream_path.c_str());

  const CampaignSpec campaign = query_campaign();
  CampaignOptions plain;
  plain.threads = 2;
  plain.out_path = plain_path;
  run_campaign(campaign, plain);

  CampaignOptions streamed;
  streamed.threads = 2;
  streamed.out_path = stream_path;
  StreamingAggregator stream({"algorithm"}, Metric::ExploredRound);
  streamed.stream = &stream;
  const CampaignReport report = run_campaign(campaign, streamed);
  EXPECT_GT(stream.rows_folded(), 0);
  EXPECT_FALSE(report.rows.empty());  // out_path keeps the rows

  std::ifstream a(plain_path), b(stream_path);
  std::stringstream plain_bytes, stream_bytes;
  plain_bytes << a.rdbuf();
  stream_bytes << b.rdbuf();
  EXPECT_EQ(stream_bytes.str(), plain_bytes.str());
  std::remove(plain_path.c_str());
  std::remove(stream_path.c_str());
}

TEST(StreamingScenarios, DiscardedRunKeepsNothingButCallsEveryRow) {
  const std::vector<ScenarioSpec> specs = expand(query_campaign());
  long long seen = 0;
  const std::vector<CampaignRow> rows = run_scenarios_streaming(
      specs, 2, [&](const CampaignRow&) { ++seen; }, /*keep_rows=*/false);
  EXPECT_EQ(seen, static_cast<long long>(specs.size()));
  EXPECT_TRUE(rows.empty());
}

// --- sketch quantiles -------------------------------------------------------

TEST(SketchQuantile, IsMonotoneAndStaysInsideTheBucketRange) {
  const std::vector<long long>& bounds = streaming_quantile_bounds();
  std::vector<long long> counts(bounds.size() + 1, 0);
  // Samples 1..100 land in the doubling buckets.
  long long total = 0;
  for (long long v = 1; v <= 100; ++v) {
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
    counts[static_cast<std::size_t>(it - bounds.begin())]++;
    ++total;
  }
  double prev = -1;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    const double est = sketch_quantile(bounds, counts, total, q);
    EXPECT_GE(est, prev);
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est, 128.0);  // the bucket ceiling above 100
    prev = est;
  }
  // Medians of a doubling sketch are bucket-interpolated: the estimate
  // for the true median 50.5 must land inside the [33, 64] bucket.
  const double median = sketch_quantile(bounds, counts, total, 0.5);
  EXPECT_GE(median, 33.0);
  EXPECT_LE(median, 64.0);
}

// --- query protocol ---------------------------------------------------------

TEST(QueryProtocol, AggregateRequestReturnsTheBatchReportBytes) {
  const ResultCache cache = make_cache();
  util::Json request{util::Json::Object{}};
  request.set("op", util::Json("aggregate"));
  request.set("group_by", util::Json("algorithm,n"));
  request.set("metric", util::Json("explored_round"));
  const util::Json response = handle_query(cache, request);
  ASSERT_TRUE(response.get_bool("ok", false));
  const std::vector<std::string> keys = {"algorithm", "n"};
  EXPECT_EQ(response.get_string("report", ""),
            render_aggregate_report(
                aggregate_rows(executed_rows(), keys, Metric::ExploredRound),
                keys, Metric::ExploredRound, ReportFormat::Markdown));
  // The response reports this query's hit/miss delta.
  ASSERT_TRUE(response.has("cache"));
}

TEST(QueryProtocol, PointRequestByHexFingerprint) {
  const ResultCache cache = make_cache();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(
                    executed_rows().front().fingerprint));
  const util::Json response = handle_query_line(
      cache, std::string("{\"op\":\"point\",\"fp\":\"") + buffer + "\"}");
  ASSERT_TRUE(response.get_bool("ok", false));
  EXPECT_TRUE(response.get_bool("found", false));
  const util::Json miss = handle_query_line(
      cache, "{\"op\":\"point\",\"fp\":\"0xdeadbeefdeadbeef\"}");
  ASSERT_TRUE(miss.get_bool("ok", false));
  EXPECT_FALSE(miss.get_bool("found", true));
}

TEST(QueryProtocol, ErrorsComeBackAsResponsesNeverExceptions) {
  const ResultCache cache = make_cache();
  EXPECT_FALSE(
      handle_query_line(cache, "{\"op\":\"no_such_op\"}").get_bool("ok", true));
  EXPECT_FALSE(handle_query_line(cache, "not json").get_bool("ok", true));
  EXPECT_FALSE(handle_query_line(cache, "{\"op\":\"frontier\"}")
                   .get_bool("ok", true));  // missing axis
}

TEST(QueryProtocol, CompareOpensOnlyStoresBesideTheServedOnes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "query_compare";
  const fs::path outside = fs::path(testing::TempDir()) / "query_outside";
  fs::create_directories(dir);
  fs::create_directories(outside);
  const std::string served = (dir / "a.jsonl").string();
  const std::string sibling = (dir / "b.jsonl").string();
  const std::string junk = (dir / "notes.txt").string();
  write_result_store(served, executed_rows());
  write_result_store(sibling, executed_rows());
  write_result_store((outside / "c.jsonl").string(), executed_rows());
  std::ofstream(junk) << "private-first-line\n";
  const ResultCache cache = ResultCache::load({served});
  const auto compare = [&](const std::string& path,
                           const ResultCache& over) {
    util::Json request;
    request.set("op", "compare");
    request.set("store", path);
    return handle_query(over, request);
  };

  const util::Json ok = compare(sibling, cache);
  EXPECT_TRUE(ok.get_bool("ok", false)) << ok.dump();
  EXPECT_EQ(ok.get_int("common", 0),
            static_cast<long long>(executed_rows().size()));

  // Outside the served directory, directly or through "..": refused
  // before anything is opened.
  for (const std::string& path :
       {(outside / "c.jsonl").string(),
        (dir / ".." / "query_outside" / "c.jsonl").string()}) {
    const util::Json refused = compare(path, cache);
    EXPECT_FALSE(refused.get_bool("ok", true)) << path;
    EXPECT_NE(refused.get_string("error", "").find("outside"),
              std::string::npos);
  }

  // Beside it but not a store: the error names the path, not the bytes.
  const util::Json bad = compare(junk, cache);
  EXPECT_FALSE(bad.get_bool("ok", true));
  EXPECT_NE(bad.get_string("error", "").find(junk), std::string::npos);
  EXPECT_EQ(bad.dump().find("private-first-line"), std::string::npos);
  EXPECT_EQ(bad.dump().find("result store line"), std::string::npos);

  // A cache built in memory serves no directory, so compare opens nothing.
  EXPECT_FALSE(compare(sibling, make_cache()).get_bool("ok", true));
  fs::remove_all(dir);
  fs::remove_all(outside);
}

}  // namespace
}  // namespace dring::core
