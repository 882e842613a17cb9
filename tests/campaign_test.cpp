// Tests for the campaign subsystem: the JSON utility, declarative
// scenario specs (serialization, fingerprints, spec->engine translation),
// campaign grid expansion (count, seed stability under grid growth),
// thread-count invariance of the produced rows, the JSONL result store
// (write -> read -> resume skips everything, schema versioning, canonical
// order), sharded execution + store merge, the store diff, the
// crash-safety story (atomic writes, torn-tail recovery, diagnostics), and
// behaviour sharing (seed flags, one run per behaviour key).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_set>

#include "algo/registry.hpp"
#include "core/campaign.hpp"
#include "core/query.hpp"
#include "core/scenario_spec.hpp"
#include "util/json.hpp"

namespace dring::core {
namespace {

// --- util::Json ----------------------------------------------------------------

TEST(Json, ParsesScalarsAndStructure) {
  const util::Json j = util::Json::parse(
      R"({"a": 1, "b": -2.5, "c": "x\n\"y", "d": [true, false, null], )"
      R"("big": 9007199254740993})");
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_DOUBLE_EQ(j.at("b").as_double(), -2.5);
  EXPECT_EQ(j.at("c").as_string(), "x\n\"y");
  ASSERT_EQ(j.at("d").as_array().size(), 3u);
  EXPECT_TRUE(j.at("d").as_array()[0].as_bool());
  EXPECT_TRUE(j.at("d").as_array()[2].is_null());
  // Integers beyond 2^53 survive exactly (doubles would round).
  EXPECT_EQ(j.at("big").as_int(), 9007199254740993LL);
}

TEST(Json, DumpIsCanonicalAndRoundTrips) {
  const std::string text =
      R"({"z": 1, "a": {"k": [1, 2, {"q": "v"}]}, "m": "s"})";
  const util::Json j = util::Json::parse(text);
  const std::string dump = j.dump();
  // Keys sorted, no whitespace.
  EXPECT_EQ(dump, R"({"a":{"k":[1,2,{"q":"v"}]},"m":"s","z":1})");
  EXPECT_EQ(util::Json::parse(dump).dump(), dump);
}

TEST(Json, StringEscapesRoundTrip) {
  // Control characters, every named escape, embedded quotes and
  // backslashes, DEL and multi-byte UTF-8 — dump -> parse -> dump must be
  // the identity (store lines survive any stop_reason / label content).
  const std::string nasty = std::string("a\x01b\x1f") + "\b\f\n\r\t" +
                            "\"quoted\" back\\slash /slash \x7f" +
                            "\xce\xbb";  // U+03BB as UTF-8
  const util::Json j(nasty);
  const std::string dump = j.dump();
  EXPECT_EQ(util::Json::parse(dump).as_string(), nasty);
  EXPECT_EQ(util::Json::parse(dump).dump(), dump);

  // Control characters are written as \u escapes, named escapes by name.
  EXPECT_EQ(util::Json("\x01").dump(), "\"\\u0001\"");
  EXPECT_EQ(util::Json("\n\"\\").dump(), "\"\\n\\\"\\\\\"");

  // \u parsing: ASCII, 2-byte and 3-byte code points decode to UTF-8 and
  // re-dump in their literal form (canonical dumps never re-escape
  // printable text).
  EXPECT_EQ(util::Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(util::Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(util::Json::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");
  EXPECT_EQ(util::Json::parse("\"\\u20ac\"").dump(), "\"\xe2\x82\xac\"");

  // Upper/lower hex digits are both accepted.
  EXPECT_EQ(util::Json::parse("\"\\u00E9\"").as_string(),
            util::Json::parse("\"\\u00e9\"").as_string());

  // Malformed escapes are rejected, as are raw control characters.
  EXPECT_THROW(util::Json::parse("\"\\u12g4\""), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("\"\\u12\""), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("\"\\x41\""), std::invalid_argument);
  EXPECT_THROW(util::Json::parse(std::string("\"a\x01b\"")),
               std::invalid_argument);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(util::Json::parse(""), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("12 34"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("tru"), std::invalid_argument);
}

TEST(Json, NestingPastTheCapIsAParseErrorNotAStackOverflow) {
  const auto nested = [](std::size_t depth, char open, char close) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i)
      s += open == '{' ? std::string("{\"a\":") : std::string(1, open);
    s += open == '{' ? "0" : "";
    return s + std::string(depth, close);
  };
  const std::size_t cap = util::Json::kMaxDepth;
  EXPECT_NO_THROW(util::Json::parse(nested(cap, '[', ']')));
  EXPECT_NO_THROW(util::Json::parse(nested(cap, '{', '}')));
  EXPECT_THROW(util::Json::parse(nested(cap + 1, '[', ']')),
               std::invalid_argument);
  EXPECT_THROW(util::Json::parse(nested(cap + 1, '{', '}')),
               std::invalid_argument);
  // The repro: one line of 200k '[' used to overflow the stack.
  EXPECT_THROW(util::Json::parse(std::string(200000, '[')),
               std::invalid_argument);
  // Depth counts nesting, not the number of containers.
  std::string wide = "[";
  for (std::size_t i = 0; i < 4 * cap; ++i) wide += "[],";
  EXPECT_NO_THROW(util::Json::parse(wide + "[]]"));
}

// --- ScenarioSpec --------------------------------------------------------------

ScenarioSpec sample_spec() {
  ScenarioSpec spec;
  spec.algorithm = "KnownNNoChirality";
  spec.n = 10;
  spec.num_agents = 4;
  spec.adversary.family = "targeted-random";
  spec.adversary.target_prob = 0.7;
  spec.adversary.activation_prob = 1.0;
  spec.adversary.t_interval = 3;
  spec.seed = 0xdeadbeefcafef00dULL;
  spec.max_rounds = 5000;
  return spec;
}

TEST(ScenarioSpec, JsonRoundTripPreservesIdentity) {
  const ScenarioSpec spec = sample_spec();
  const ScenarioSpec back =
      scenario_spec_from_json(util::Json::parse(to_json(spec).dump()));
  EXPECT_EQ(to_json(back).dump(), to_json(spec).dump());
  EXPECT_EQ(fingerprint(back), fingerprint(spec));
  EXPECT_EQ(back.seed, spec.seed);  // 64-bit seeds survive via hex strings
}

TEST(ScenarioSpec, U64FieldsAreHexOrDecimalAndNothingElse) {
  const auto seed_of = [](const std::string& text) {
    util::Json j = to_json(sample_spec());
    j.set("seed", text);
    return scenario_spec_from_json(j).seed;
  };
  EXPECT_EQ(seed_of("0x10"), 16u);
  EXPECT_EQ(seed_of("0XfF"), 255u);
  EXPECT_EQ(seed_of("10"), 10u);
  EXPECT_EQ(seed_of("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x", "0xzz", "1x",
                          "0x12 ", "18446744073709551616",
                          "0x10000000000000000"})
    EXPECT_THROW(seed_of(bad), std::invalid_argument) << '"' << bad << '"';
}

TEST(ScenarioSpec, FingerprintSeparatesEveryAxis) {
  const ScenarioSpec base = sample_spec();
  const std::uint64_t fp = fingerprint(base);

  ScenarioSpec other = base;
  other.n = 11;
  EXPECT_NE(fingerprint(other), fp);
  other = base;
  other.num_agents = 5;
  EXPECT_NE(fingerprint(other), fp);
  other = base;
  other.adversary.t_interval = 1;
  EXPECT_NE(fingerprint(other), fp);
  other = base;
  other.seed ^= 1;
  EXPECT_NE(fingerprint(other), fp);
  other = base;
  other.algorithm = "UnconsciousExploration";
  EXPECT_NE(fingerprint(other), fp);
}

TEST(ScenarioSpec, BuildConfigDerivesManyAgentPlacements) {
  const ScenarioSpec spec = sample_spec();
  const ExplorationConfig cfg = build_config(spec);
  EXPECT_EQ(cfg.num_agents, 4);
  ASSERT_EQ(cfg.start_nodes.size(), 4u);
  EXPECT_EQ(cfg.start_nodes, (std::vector<NodeId>{0, 2, 5, 7}));
  ASSERT_EQ(cfg.orientations.size(), 4u);
  EXPECT_EQ(cfg.stop.max_rounds, 5000);

  ScenarioSpec bad = spec;
  bad.algorithm = "NoSuchAlgorithm";
  EXPECT_THROW(build_config(bad), std::invalid_argument);
  bad = spec;
  bad.model = "HYPERSYNC";
  EXPECT_THROW(build_config(bad), std::invalid_argument);
  bad = spec;
  bad.adversary.family = "no-such-family";
  EXPECT_THROW(make_adversary_factory(bad.adversary, 1)(),
               std::invalid_argument);
}

// --- expansion -----------------------------------------------------------------

CampaignSpec sample_campaign() {
  CampaignSpec campaign;
  campaign.name = "test";
  campaign.algorithms = {"KnownNNoChirality", "UnconsciousExploration"};
  campaign.sizes = {6, 8};
  campaign.agent_counts = {0, 4};
  AdversarySpec null_adv;
  AdversarySpec targeted;
  targeted.family = "targeted-random";
  targeted.target_prob = 0.6;
  campaign.adversaries = {null_adv, targeted};
  campaign.t_intervals = {1, 4};
  campaign.seeds_per_cell = 2;
  campaign.salt = 99;
  campaign.max_rounds = 4000;
  return campaign;
}

TEST(CampaignExpand, CartesianProductCount) {
  const std::vector<ScenarioSpec> specs = expand(sample_campaign());
  EXPECT_EQ(specs.size(), 2u * 2 * 2 * 2 * 2 * 2);  // axes x seeds
  // All fingerprints distinct.
  std::unordered_set<std::uint64_t> fps;
  for (const ScenarioSpec& spec : specs) fps.insert(fingerprint(spec));
  EXPECT_EQ(fps.size(), specs.size());
}

TEST(CampaignExpand, GrowingAnAxisKeepsExistingCellIdentities) {
  const CampaignSpec small = sample_campaign();
  CampaignSpec grown = small;
  grown.algorithms.push_back("ETUnconscious");
  grown.sizes.push_back(11);
  grown.t_intervals.push_back(8);

  std::unordered_set<std::uint64_t> small_fps;
  for (const ScenarioSpec& spec : expand(small))
    small_fps.insert(fingerprint(spec));
  std::unordered_set<std::uint64_t> grown_fps;
  for (const ScenarioSpec& spec : expand(grown))
    grown_fps.insert(fingerprint(spec));

  // Every original cell (same salt, same coordinates) is still present
  // with an identical fingerprint — the resume contract across commits.
  for (const std::uint64_t fp : small_fps)
    EXPECT_TRUE(grown_fps.count(fp)) << "cell identity changed under growth";
}

TEST(CampaignExpand, NoTAxisKeepsPerAdversaryTInterval) {
  // Regression: without a t_intervals axis, an adversary's own t_interval
  // must survive expansion (it used to be clobbered to the default 1).
  CampaignSpec campaign;
  campaign.algorithms = {"KnownNNoChirality"};
  campaign.sizes = {6};
  AdversarySpec wrapped;
  wrapped.family = "targeted-random";
  wrapped.t_interval = 4;
  campaign.adversaries = {wrapped};
  const std::vector<ScenarioSpec> specs = expand(campaign);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].adversary.t_interval, 4);

  // A non-empty axis overrides the per-adversary value.
  campaign.t_intervals = {2};
  EXPECT_EQ(expand(campaign)[0].adversary.t_interval, 2);
}

TEST(CampaignExpand, JsonRoundTrip) {
  const CampaignSpec campaign = sample_campaign();
  const CampaignSpec back =
      campaign_spec_from_json(util::Json::parse(to_json(campaign).dump()));
  EXPECT_EQ(to_json(back).dump(), to_json(campaign).dump());
  EXPECT_EQ(expand(back).size(), expand(campaign).size());
}

// --- execution -----------------------------------------------------------------

CampaignSpec tiny_campaign() {
  CampaignSpec campaign;
  campaign.name = "tiny";
  campaign.algorithms = {"KnownNNoChirality", "UnconsciousExploration"};
  campaign.sizes = {5, 6};
  AdversarySpec targeted;
  targeted.family = "targeted-random";
  targeted.target_prob = 0.5;
  campaign.adversaries = {targeted};
  campaign.t_intervals = {1, 3};
  campaign.seeds_per_cell = 2;
  campaign.salt = 7;
  campaign.max_rounds = 3000;
  return campaign;
}

std::vector<std::string> row_lines(const std::vector<CampaignRow>& rows) {
  std::vector<std::string> lines;
  for (const CampaignRow& row : rows) lines.push_back(row_line(row));
  return lines;
}

TEST(CampaignRun, RowsIdenticalForAnyThreadCount) {
  const std::vector<ScenarioSpec> specs = expand(tiny_campaign());
  const auto serial = row_lines(run_scenarios(specs, 1));
  for (const int threads : {2, 4, 8})
    EXPECT_EQ(row_lines(run_scenarios(specs, threads)), serial)
        << threads << " threads";
}

TEST(CampaignRun, StoreRoundTripAndResume) {
  const std::string path =
      testing::TempDir() + "campaign_store_test.jsonl";
  std::remove(path.c_str());

  const CampaignSpec campaign = tiny_campaign();
  CampaignOptions options;
  options.threads = 2;
  options.out_path = path;

  const CampaignReport first = run_campaign(campaign, options);
  EXPECT_EQ(first.total, expand(campaign).size());
  EXPECT_EQ(first.executed, first.total);
  EXPECT_EQ(first.skipped, 0u);

  // The store parses back to exactly the executed rows, in canonical
  // (fingerprint) order.
  const ResultStore parsed = read_result_store_file(path);
  EXPECT_EQ(parsed.provenance, current_provenance());
  const std::vector<CampaignRow>& stored = parsed.rows;
  ASSERT_EQ(stored.size(), first.rows.size());
  std::vector<std::string> stored_lines = row_lines(stored);
  EXPECT_TRUE(std::is_sorted(stored_lines.begin(), stored_lines.end()));
  std::vector<std::string> executed_lines = row_lines(first.rows);
  std::sort(executed_lines.begin(), executed_lines.end());
  EXPECT_EQ(stored_lines, executed_lines);

  // Resume: nothing to do, file untouched.
  std::ifstream before(path);
  std::stringstream before_bytes;
  before_bytes << before.rdbuf();

  options.resume = true;
  const CampaignReport second = run_campaign(campaign, options);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.skipped, first.total);

  std::ifstream after(path);
  std::stringstream after_bytes;
  after_bytes << after.rdbuf();
  EXPECT_EQ(after_bytes.str(), before_bytes.str());

  // Growing the grid and resuming executes only the new cells.
  CampaignSpec grown = campaign;
  grown.sizes.push_back(7);
  const CampaignReport third = run_campaign(grown, options);
  EXPECT_EQ(third.skipped, first.total);
  EXPECT_EQ(third.executed, expand(grown).size() - first.total);

  std::remove(path.c_str());
}

TEST(CampaignRun, MalformedStoreLineReportsLineNumber) {
  std::stringstream store(provenance_line(current_provenance()) + "\n" +
                          "this is not json\n");
  try {
    read_result_store(store);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(CampaignStore, RowsCarryTheSchemaVersion) {
  CampaignRow row;
  row.spec = sample_spec();
  row.fingerprint = fingerprint(row.spec);
  EXPECT_NE(row_line(row).find("\"v\":4"), std::string::npos);
  // And the line round-trips.
  const CampaignRow back =
      campaign_row_from_json(util::Json::parse(row_line(row)));
  EXPECT_EQ(row_line(back), row_line(row));
}

TEST(CampaignStore, MalformedRowFingerprintIsRejected) {
  CampaignRow row;
  row.spec = sample_spec();
  row.fingerprint = fingerprint(row.spec);
  const util::Json good = util::Json::parse(row_line(row));
  EXPECT_EQ(campaign_row_from_json(good).fingerprint, row.fingerprint);
  for (const char* bad : {"0xzz", "-1", "", "0x12 ", "+0x1"}) {
    util::Json j = good;
    j.set("fp", bad);
    EXPECT_THROW(campaign_row_from_json(j), std::invalid_argument)
        << '"' << bad << '"';
  }
}

TEST(CampaignStore, MismatchedSchemaVersionIsRejected) {
  // A pre-versioning (v1) store row: no "v" member.
  std::stringstream v1("{\"fp\":\"0x1\",\"result\":{},\"spec\":"
                       "{\"algorithm\":\"KnownNNoChirality\",\"n\":6}}\n");
  try {
    read_result_store(v1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("schema version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }

  // Superseded and future versions are rejected just the same.
  std::stringstream v2("{\"fp\":\"0x1\",\"result\":{},\"spec\":"
                       "{\"algorithm\":\"KnownNNoChirality\",\"n\":6},"
                       "\"v\":2}\n");
  EXPECT_THROW(read_result_store(v2), std::invalid_argument);
  std::stringstream v9("{\"fp\":\"0x1\",\"result\":{},\"spec\":"
                       "{\"algorithm\":\"KnownNNoChirality\",\"n\":6},"
                       "\"v\":9}\n");
  EXPECT_THROW(read_result_store(v9), std::invalid_argument);

  // A v4 row under a header whose provenance claims an older schema: the
  // header itself is rejected.
  std::stringstream old_header(
      "{\"dring\":{\"build\":\"0x0\",\"engine\":\"dring-1.4.0\","
      "\"schema\":3}}\n");
  try {
    read_result_store(old_header);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("schema v3"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignStore, CanonicalOrderIsTotalForDuplicateFingerprints) {
  // Three distinct payloads forced onto one fingerprint (a
  // hand-concatenated store): canonical order must fall back to the full
  // line and be a real sort, whatever the input order.
  std::vector<CampaignRow> rows;
  for (const Round r : {30, 20, 10}) {
    CampaignRow row;
    row.spec = sample_spec();
    row.fingerprint = 42;
    row.outcome.rounds = r;
    rows.push_back(row);
  }
  sort_canonical(rows);
  std::vector<std::string> lines = row_lines(rows);
  EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
  std::vector<CampaignRow> again = {rows[1], rows[2], rows[0]};
  sort_canonical(again);
  EXPECT_EQ(row_lines(again), lines);
}

std::vector<std::uint64_t> fingerprints_of(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<std::uint64_t> fps;
  for (const ScenarioSpec& spec : specs) fps.push_back(fingerprint(spec));
  return fps;
}

TEST(CampaignShard, PartitionsAreDisjointCoveringAndPositionIndependent) {
  const std::vector<std::uint64_t> all = fingerprints_of(expand(sample_campaign()));
  const int m = 3;
  std::unordered_set<std::uint64_t> seen;
  std::size_t covered = 0;
  for (int i = 0; i < m; ++i) {
    const std::vector<std::size_t> shard = shard_filter(all, i, m);
    covered += shard.size();
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (const std::size_t cell : shard) {
      EXPECT_TRUE(seen.insert(all[cell]).second) << "cell on two shards";
    }
  }
  EXPECT_EQ(covered, all.size());
  EXPECT_EQ(shard_filter(all, 0, 1).size(), all.size());
  EXPECT_THROW(shard_filter(all, 2, 2), std::invalid_argument);
  EXPECT_THROW(shard_filter(all, -1, 2), std::invalid_argument);

  // Shard assignment follows cell identity, not grid position: growing an
  // axis never moves an existing cell to a different shard.
  CampaignSpec grown = sample_campaign();
  grown.sizes.push_back(11);
  const std::vector<std::uint64_t> grown_fps = fingerprints_of(expand(grown));
  std::unordered_set<std::uint64_t> shard0;
  for (const std::size_t cell : shard_filter(all, 0, m))
    shard0.insert(all[cell]);
  for (const std::size_t cell : shard_filter(grown_fps, 0, m))
    shard0.erase(grown_fps[cell]);
  EXPECT_TRUE(shard0.empty()) << "a cell left its shard under axis growth";
}

TEST(CampaignMerge, ShardedRunMergesToTheSingleProcessStore) {
  const std::string single = testing::TempDir() + "merge_single.jsonl";
  const std::string shard0 = testing::TempDir() + "merge_shard0.jsonl";
  const std::string shard1 = testing::TempDir() + "merge_shard1.jsonl";

  const CampaignSpec campaign = tiny_campaign();
  CampaignOptions options;
  options.threads = 2;
  options.out_path = single;
  run_campaign(campaign, options);

  options.shard_count = 2;
  options.shard_index = 0;
  options.out_path = shard0;
  const CampaignReport r0 = run_campaign(campaign, options);
  options.shard_index = 1;
  options.out_path = shard1;
  const CampaignReport r1 = run_campaign(campaign, options);
  EXPECT_EQ(r0.executed + r1.executed, expand(campaign).size());
  EXPECT_GT(r0.executed, 0u);
  EXPECT_GT(r1.executed, 0u);

  const StoreMerge merge = merge_result_stores(
      std::vector<ResultStore>{read_result_store_file(shard0),
                               read_result_store_file(shard1)});
  ASSERT_TRUE(merge.ok());
  EXPECT_EQ(merge.provenance, current_provenance());
  EXPECT_EQ(row_lines(merge.rows),
            row_lines(read_result_store_file(single).rows));

  std::remove(single.c_str());
  std::remove(shard0.c_str());
  std::remove(shard1.c_str());
}

TEST(CampaignMerge, IsIdempotentAndDetectsConflicts) {
  const std::vector<ScenarioSpec> specs = expand(tiny_campaign());
  std::vector<CampaignRow> rows = run_scenarios(
      std::vector<ScenarioSpec>(specs.begin(), specs.begin() + 4), 2);
  sort_canonical(rows);

  // Self-merge is the identity; a subset union restores the whole.
  const StoreMerge self = merge_result_stores({rows, rows});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(row_lines(self.rows), row_lines(rows));

  std::vector<CampaignRow> front(rows.begin(), rows.begin() + 2);
  std::vector<CampaignRow> back(rows.begin() + 1, rows.end());
  const StoreMerge split = merge_result_stores({front, back});
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(row_lines(split.rows), row_lines(rows));

  // Same fingerprint, different payload = conflict, not a silent union.
  std::vector<CampaignRow> clashing = rows;
  clashing[0].outcome.rounds += 1;
  const StoreMerge conflict = merge_result_stores({rows, clashing});
  EXPECT_FALSE(conflict.ok());
  ASSERT_EQ(conflict.conflicts.size(), 1u);
  EXPECT_EQ(conflict.conflicts[0].first.fingerprint, rows[0].fingerprint);
  // Non-conflicting rows still merge.
  EXPECT_EQ(conflict.rows.size(), rows.size());
}

TEST(CampaignDiff, DetectsAddedRemovedAndChangedRows) {
  const std::vector<ScenarioSpec> specs = expand(tiny_campaign());
  std::vector<CampaignRow> a = run_scenarios(
      std::vector<ScenarioSpec>(specs.begin(), specs.begin() + 4), 2);
  std::vector<CampaignRow> b = run_scenarios(
      std::vector<ScenarioSpec>(specs.begin() + 1, specs.begin() + 5), 2);
  b[0].outcome.rounds += 1;  // simulate a cross-commit behaviour change

  const StoreDiff diff = diff_result_stores(a, b);
  EXPECT_EQ(diff.only_a.size(), 1u);
  EXPECT_EQ(diff.only_b.size(), 1u);
  ASSERT_EQ(diff.changed.size(), 1u);
  EXPECT_EQ(diff.changed[0].first.fingerprint, b[0].fingerprint);
  EXPECT_FALSE(diff.identical());

  EXPECT_TRUE(diff_result_stores(a, a).identical());
}

// --- crash-safe writes and torn-store recovery ---------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Simulate an interrupted write: drop the final `bytes` bytes of `path`.
void chop_tail(const std::string& path, std::size_t bytes) {
  std::string content = slurp(path);
  ASSERT_GT(content.size(), bytes);
  content.resize(content.size() - bytes);
  std::ofstream(path, std::ios::trunc) << content;
}

TEST(CampaignStore, TornTrailingRowStrictThrowsLenientRecovers) {
  const std::string path = testing::TempDir() + "torn_store.jsonl";
  std::remove(path.c_str());
  CampaignOptions options;
  options.threads = 2;
  options.out_path = path;
  run_campaign(tiny_campaign(), options);
  const std::size_t rows = read_result_store_file(path).rows.size();
  chop_tail(path, 10);

  // Strict read: fatal, and the diagnostic names the file, the line and
  // quotes the head of the fragment so the operator can see what tore.
  const std::size_t last_line = rows + 1;  // line 1 is the header
  try {
    read_result_store_file(path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line " + std::to_string(last_line)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find('"'), std::string::npos) << what;
  }

  // Lenient read: exactly the torn row is dropped, and the recovery
  // record says which line so resume can report what it is re-running.
  StoreReadRecovery recovery;
  const ResultStore lenient = read_result_store_file(path, &recovery);
  EXPECT_TRUE(recovery.dropped_partial);
  EXPECT_EQ(recovery.line_no, last_line);
  EXPECT_FALSE(recovery.snippet.empty());
  EXPECT_EQ(lenient.rows.size(), rows - 1);
  EXPECT_EQ(lenient.provenance, current_provenance());
}

TEST(CampaignStore, LenientReadStillRejectsMidFileCorruption) {
  CampaignRow row;
  row.spec = sample_spec();
  row.fingerprint = fingerprint(row.spec);
  // Garbage BETWEEN valid lines is corruption, not an interrupted write —
  // leniency must not paper over it.
  std::stringstream store(provenance_line(current_provenance()) + "\n" +
                          "garbage mid-file\n" + row_line(row) + "\n");
  StoreReadRecovery recovery;
  EXPECT_THROW(read_result_store(store, &recovery), std::invalid_argument);
  EXPECT_FALSE(recovery.dropped_partial);
}

TEST(CampaignStore, LenientReadStillRejectsSemanticallyBadLastLine) {
  CampaignRow row;
  row.spec = sample_spec();
  row.fingerprint = fingerprint(row.spec);
  // The last line PARSES but carries a future schema version: that is a
  // real mismatch, not a torn write, and stays fatal in lenient mode.
  std::stringstream store(provenance_line(current_provenance()) + "\n" +
                          row_line(row) + "\n" +
                          "{\"fp\":\"0x1\",\"result\":{},\"spec\":"
                          "{\"algorithm\":\"KnownNNoChirality\",\"n\":6},"
                          "\"v\":9}\n");
  StoreReadRecovery recovery;
  EXPECT_THROW(read_result_store(store, &recovery), std::invalid_argument);
  EXPECT_FALSE(recovery.dropped_partial);
}

TEST(CampaignStore, ResumeRepairsATornStore) {
  const std::string path = testing::TempDir() + "torn_resume.jsonl";
  std::remove(path.c_str());
  const CampaignSpec campaign = tiny_campaign();
  CampaignOptions options;
  options.threads = 2;
  options.out_path = path;
  const CampaignReport first = run_campaign(campaign, options);
  const std::string pristine = slurp(path);
  chop_tail(path, 10);

  // Resume treats the torn row's cell as missing: it re-runs exactly that
  // one cell and the atomic rewrite restores the original bytes.
  options.resume = true;
  const CampaignReport repaired = run_campaign(campaign, options);
  EXPECT_EQ(repaired.executed, 1u);
  EXPECT_EQ(repaired.skipped, first.total - 1);
  EXPECT_EQ(slurp(path), pristine);
  std::remove(path.c_str());
}

TEST(CampaignStore, WritesAreAtomicWithNoTmpSiblings) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "atomic_write_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/store.jsonl";

  const std::vector<ScenarioSpec> specs = expand(tiny_campaign());
  std::vector<CampaignRow> rows = run_scenarios(
      std::vector<ScenarioSpec>(specs.begin(), specs.begin() + 2), 2);
  sort_canonical(rows);
  write_result_store(path, rows);

  // The .tmp sibling the crash-safe write stages through must be gone,
  // and the store must be the only file left.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().string(), path);
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos);
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(read_result_store_file(path).rows.size(), 2u);
  fs::remove_all(dir);
}

TEST(CampaignDiff, SeparatesPresenceFromPayloadChanges) {
  const std::vector<ScenarioSpec> specs = expand(tiny_campaign());
  const std::vector<CampaignRow> a = run_scenarios(
      std::vector<ScenarioSpec>(specs.begin(), specs.begin() + 3), 2);

  // b: row 0 unchanged, row 1's outcome edited, row 2's *spec* edited
  // under the same fingerprint (a hand-edited store, or expansion
  // semantics moving underneath it).  None of these may leak into the
  // presence buckets.
  std::vector<CampaignRow> b = a;
  b[1].outcome.total_moves += 7;
  b[2].spec.max_rounds += 1;

  const StoreDiff diff = diff_result_stores(a, b);
  EXPECT_TRUE(diff.only_a.empty());
  EXPECT_TRUE(diff.only_b.empty());
  ASSERT_EQ(diff.changed.size(), 2u);

  // And a row present in only one store is never reported as changed.
  std::vector<CampaignRow> c(a.begin(), a.begin() + 2);
  const StoreDiff presence = diff_result_stores(a, c);
  EXPECT_EQ(presence.only_a.size(), 1u);
  EXPECT_TRUE(presence.only_b.empty());
  EXPECT_TRUE(presence.changed.empty());
}

// --- one run per behaviour -------------------------------------------------

/// Pins every seed flag against the runs themselves: for each registry
/// algorithm and adversary family, two seeds of a seed-free pair replay one
/// identical run, and every seed-reading family shows a seed dependence
/// somewhere.  A "null" cell also replays the same run at T = 4.
TEST(BehaviourKey, SeedFlagsMatchWhatTheRunsRead) {
  struct Case {
    std::size_t first;  ///< index of the seed-A spec; seed B and T=4 follow
    bool seed_free;
    bool null_family;
  };
  std::vector<ScenarioSpec> specs;
  std::vector<Case> cases;
  for (const algo::AlgorithmInfo& info : algo::all_algorithms()) {
    for (const std::string& family : adversary_families()) {
      for (const NodeId n : {5, 6}) {
        for (const int agents : {0, 4}) {
          ScenarioSpec spec;
          spec.algorithm = info.name;
          spec.n = n;
          spec.num_agents = agents;
          spec.adversary.family = family;
          spec.max_rounds = 1200;
          try {
            to_task(spec);
          } catch (const std::invalid_argument&) {
            continue;  // not a valid combination
          }
          cases.push_back({specs.size(),
                           !info.uses_seed && !adversary_uses_seed(family),
                           family == "null"});
          spec.seed = 11;
          specs.push_back(spec);
          spec.seed = 12;
          specs.push_back(spec);
          spec.adversary.t_interval = 4;
          specs.push_back(spec);
        }
      }
    }
  }
  ASSERT_GT(cases.size(), algo::all_algorithms().size() * 10);

  const std::vector<CampaignRow> rows = run_scenarios(specs, 2);
  std::set<std::string> seed_dependent;
  for (const Case& c : cases) {
    const CampaignRow& a = rows[c.first];
    const CampaignRow& b = rows[c.first + 1];
    if (c.seed_free) {
      EXPECT_EQ(a.outcome, b.outcome)
          << "seed-free cell depends on its seed: " << to_json(a.spec).dump();
    } else if (!(a.outcome == b.outcome)) {
      seed_dependent.insert(a.spec.adversary.family);
    }
    if (c.null_family) {
      EXPECT_EQ(a.outcome, rows[c.first + 2].outcome)
          << "null cell depends on t_interval: " << to_json(a.spec).dump();
    }
  }
  for (const std::string& family : adversary_families()) {
    if (adversary_uses_seed(family)) {
      EXPECT_TRUE(seed_dependent.count(family))
          << family << " claims to read the seed but never depends on it";
    }
  }
  EXPECT_TRUE(adversary_uses_seed("no-such-family"));
}

TEST(BehaviourKey, RepresentativesGroupSeedsAndNullIntervals) {
  CampaignSpec campaign;
  campaign.algorithms = {"KnownNNoChirality"};
  campaign.sizes = {6};
  AdversarySpec null_adv, random;
  random.family = "random";
  campaign.adversaries = {null_adv, random};
  campaign.t_intervals = {1, 4};
  campaign.seeds_per_cell = 3;
  const std::vector<ScenarioSpec> specs = expand(campaign);
  std::vector<std::size_t> cells(specs.size());
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;
  const std::vector<std::size_t> rep = behaviour_representatives(specs, cells);
  // null: T=1 and T=4, three seeds each, are one behaviour; random: each
  // (T, seed) pair is its own.
  std::size_t distinct = 0;
  for (std::size_t p = 0; p < rep.size(); ++p) {
    EXPECT_LE(rep[p], p);
    EXPECT_EQ(rep[rep[p]], rep[p]);
    if (rep[p] == p) ++distinct;
    if (specs[p].adversary.family == "null") {
      EXPECT_EQ(rep[p], 0u);
    } else {
      EXPECT_EQ(rep[p], p);
    }
  }
  EXPECT_EQ(distinct, 1u + 6u);
  ScenarioSpec unknown;
  unknown.algorithm = "NoSuchAlgo";
  EXPECT_THROW(behaviour_representatives({unknown}, {0}),
               std::invalid_argument);
}

/// null at two T values, a proof adversary and a seeded family in one grid.
CampaignSpec mixed_behaviour_campaign() {
  CampaignSpec campaign;
  campaign.name = "mixed_behaviour";
  campaign.algorithms = {"KnownNNoChirality", "PTBoundWithChirality"};
  campaign.sizes = {5, 6};
  AdversarySpec null_adv, block, random;
  block.family = "block-agent";
  random.family = "random";
  random.remove_prob = 0.4;
  campaign.adversaries = {null_adv, block, random};
  campaign.t_intervals = {1, 4};
  campaign.seeds_per_cell = 3;
  campaign.salt = 0x5ca1e;
  campaign.max_rounds = 2000;
  return campaign;
}

TEST(BehaviourCampaign, SharedRunsWriteThePerCellStore) {
  const CampaignSpec campaign = mixed_behaviour_campaign();
  const std::vector<ScenarioSpec> specs = expand(campaign);
  const std::vector<CampaignRow> per_cell = run_scenarios(specs, 2);
  const std::string dir = testing::TempDir();
  const std::string reference = dir + "behaviour_reference.jsonl";
  write_result_store(reference, per_cell);
  const std::string expected = slurp(reference);

  std::vector<std::size_t> cells(specs.size());
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;
  const std::vector<std::size_t> rep = behaviour_representatives(specs, cells);
  const auto distinct = std::count_if(
      cells.begin(), cells.end(), [&](std::size_t p) { return rep[p] == p; });
  // null: 2 algorithms x 2 sizes; block-agent: x 2 T; random: x 2 T x 3.
  EXPECT_EQ(distinct, 4 + 8 + 24);

  // Fresh, scalar and batched (a width that divides nothing).
  for (const int batch : {0, 7}) {
    const std::string path = dir + "behaviour_store.jsonl";
    CampaignOptions options;
    options.threads = 2;
    options.batch_width = batch;
    options.out_path = path;
    const CampaignReport report = run_campaign(campaign, options);
    EXPECT_EQ(report.executed, specs.size()) << "executed counts cells";
    EXPECT_EQ(row_lines(report.rows), row_lines(per_cell)) << "batch " << batch;
    EXPECT_EQ(slurp(path), expected) << "batch " << batch;
    std::remove(path.c_str());
  }

  // --stream-aggregate without a store: one fold per cell, the same
  // aggregate as folding the per-cell rows.
  StreamingAggregator reference_fold({"algorithm", "adversary", "t_interval"},
                                     Metric::Rounds);
  for (const CampaignRow& row : per_cell) reference_fold.add(row);
  StreamingAggregator streamed({"algorithm", "adversary", "t_interval"},
                               Metric::Rounds);
  CampaignOptions stream_options;
  stream_options.threads = 2;
  stream_options.stream = &streamed;
  const CampaignReport streamed_report = run_campaign(campaign, stream_options);
  EXPECT_TRUE(streamed_report.rows.empty());
  EXPECT_EQ(streamed.rows_folded(), static_cast<long long>(specs.size()));
  EXPECT_EQ(streamed.render(ReportFormat::Markdown),
            reference_fold.render(ReportFormat::Markdown));

  // --resume from a half-written store: the missing half runs (copies
  // included) and the rewrite is the per-cell store.
  const std::string half = dir + "behaviour_half.jsonl";
  write_result_store(half, std::vector<CampaignRow>(
                               per_cell.begin(),
                               per_cell.begin() + per_cell.size() / 2));
  CampaignOptions resume;
  resume.threads = 2;
  resume.out_path = half;
  resume.resume = true;
  const CampaignReport resumed = run_campaign(campaign, resume);
  EXPECT_EQ(resumed.skipped, per_cell.size() / 2);
  EXPECT_EQ(resumed.executed, specs.size() - per_cell.size() / 2);
  EXPECT_EQ(slurp(half), expected);

  std::remove(half.c_str());
  std::remove(reference.c_str());
}

}  // namespace
}  // namespace dring::core
