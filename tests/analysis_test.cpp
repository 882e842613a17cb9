// Tests for the campaign analytics subsystem (core/analysis.hpp):
// axis extraction, hand-computed aggregates and quantiles, numeric-aware
// group ordering, frontier detection on a synthetic monotone grid,
// multi-store loading, byte-stable report rendering — and the equivalence
// of the generic aggregate/frontier queries with the hand-rolled
// core/feasibility_map sweep on overlapping cells.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/analysis.hpp"
#include "core/feasibility_map.hpp"

namespace dring::core {
namespace {

/// A synthetic store row (no engine run): `explored` decides success.
CampaignRow fake_row(const std::string& algorithm, NodeId n, Round t,
                     std::uint64_t seed, bool explored, Round explored_round,
                     Round rounds, long long moves) {
  CampaignRow row;
  row.spec.algorithm = algorithm;
  row.spec.n = n;
  row.spec.adversary.family = "targeted-random";
  row.spec.adversary.t_interval = t;
  row.spec.seed = seed;
  row.fingerprint = fingerprint(row.spec);
  row.outcome.explored = explored;
  row.outcome.explored_round = explored ? explored_round : -1;
  row.outcome.rounds = rounds;
  row.outcome.total_moves = moves;
  row.outcome.stop_reason = explored ? "explored" : "max_rounds";
  return row;
}

// --- axes ----------------------------------------------------------------------

TEST(AnalysisAxes, CanonicalizationAndValues) {
  EXPECT_EQ(canonical_axis("k"), "agents");
  EXPECT_EQ(canonical_axis("family"), "adversary");
  EXPECT_EQ(canonical_axis("T"), "t_interval");
  EXPECT_EQ(canonical_axis("n"), "n");
  EXPECT_THROW(canonical_axis("bogus"), std::invalid_argument);

  const CampaignRow row = fake_row("KnownNNoChirality", 10, 3, 1, true, 7, 9, 5);
  EXPECT_EQ(axis_value(row, "algorithm"), "KnownNNoChirality");
  EXPECT_EQ(axis_value(row, "n"), "10");
  EXPECT_EQ(axis_value(row, "t_interval"), "3");
  EXPECT_EQ(axis_value(row, "adversary"), "targeted-random");
  EXPECT_EQ(axis_value(row, "model"), "native");
  EXPECT_EQ(axis_value(row, "target_prob"), "0.5");
  EXPECT_DOUBLE_EQ(axis_number(row, "n"), 10.0);
  EXPECT_THROW(axis_number(row, "algorithm"), std::invalid_argument);
  EXPECT_TRUE(axis_is_numeric("t_interval"));
  EXPECT_FALSE(axis_is_numeric("model"));
}

// --- quantiles and aggregates --------------------------------------------------

TEST(AnalysisAggregate, QuantileInterpolatesLinearly) {
  const std::vector<double> s = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(s, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(s, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(s, 0.95), 1.0 + 0.95 * 3.0);  // 3.85
  EXPECT_DOUBLE_EQ(quantile({7}, 0.5), 7.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(AnalysisAggregate, HandComputedStatistics) {
  // Four successes with explored rounds {10, 20, 30, 40} and one failure.
  std::vector<CampaignRow> rows;
  rows.push_back(fake_row("A", 8, 1, 1, true, 10, 12, 20));
  rows.push_back(fake_row("A", 8, 1, 2, true, 20, 22, 40));
  rows.push_back(fake_row("A", 8, 1, 3, true, 30, 32, 60));
  rows.push_back(fake_row("A", 8, 1, 4, true, 40, 42, 80));
  rows.push_back(fake_row("A", 8, 1, 5, false, 0, 99, 7));

  const std::vector<GroupRow> groups =
      aggregate_rows(rows, {"algorithm"}, Metric::ExploredRound);
  ASSERT_EQ(groups.size(), 1u);
  const Aggregate& agg = groups[0].agg;
  EXPECT_EQ(groups[0].key, std::vector<std::string>{"A"});
  EXPECT_EQ(agg.runs, 5);
  EXPECT_EQ(agg.successes, 4);
  EXPECT_DOUBLE_EQ(agg.success_rate(), 0.8);
  // The failure contributes no explored_round sample.
  EXPECT_EQ(agg.samples, 4);
  EXPECT_DOUBLE_EQ(agg.min, 10.0);
  EXPECT_DOUBLE_EQ(agg.max, 40.0);
  EXPECT_DOUBLE_EQ(agg.mean, 25.0);
  EXPECT_DOUBLE_EQ(agg.median, 25.0);
  EXPECT_DOUBLE_EQ(agg.p95, 10.0 + 0.95 * 3.0 * 10.0);  // 38.5
  // Population stddev of {10,20,30,40}: sqrt(125).
  EXPECT_DOUBLE_EQ(agg.stddev, std::sqrt(125.0));

  // Metric::Rounds samples every run, including the failure.
  const std::vector<GroupRow> all_runs =
      aggregate_rows(rows, {"algorithm"}, Metric::Rounds);
  EXPECT_EQ(all_runs[0].agg.samples, 5);
  EXPECT_DOUBLE_EQ(all_runs[0].agg.max, 99.0);
}

TEST(AnalysisAggregate, DegenerateGroupsStayWellDefined) {
  // Empty sample set: a group whose runs all failed contributes no
  // explored_round samples — the distribution fields stay zeroed and the
  // renderer prints "-" cells instead of stale numbers.
  std::vector<CampaignRow> failures;
  failures.push_back(fake_row("A", 8, 1, 1, false, 0, 50, 5));
  failures.push_back(fake_row("A", 8, 1, 2, false, 0, 60, 6));
  const std::vector<GroupRow> empty =
      aggregate_rows(failures, {"algorithm"}, Metric::ExploredRound);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].agg.runs, 2);
  EXPECT_EQ(empty[0].agg.successes, 0);
  EXPECT_EQ(empty[0].agg.samples, 0);
  EXPECT_DOUBLE_EQ(empty[0].agg.min, 0.0);
  EXPECT_DOUBLE_EQ(empty[0].agg.stddev, 0.0);
  const std::string md = render_aggregate_report(
      empty, {"algorithm"}, Metric::ExploredRound, ReportFormat::Markdown);
  EXPECT_NE(md.find("| - | - | - | - | - | - |"), std::string::npos) << md;

  // Single sample: every order statistic is that sample, dispersion 0.
  std::vector<CampaignRow> single;
  single.push_back(fake_row("A", 8, 1, 1, true, 7, 9, 3));
  const Aggregate one =
      aggregate_rows(single, {"algorithm"}, Metric::ExploredRound)[0].agg;
  EXPECT_EQ(one.samples, 1);
  EXPECT_DOUBLE_EQ(one.min, 7.0);
  EXPECT_DOUBLE_EQ(one.max, 7.0);
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.median, 7.0);
  EXPECT_DOUBLE_EQ(one.p95, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);

  // All-identical samples: quantiles interpolate between equal values,
  // stddev is exactly 0 (no catastrophic cancellation).
  std::vector<CampaignRow> identical;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    identical.push_back(fake_row("A", 8, 1, seed, true, 5, 9, 3));
  const Aggregate same =
      aggregate_rows(identical, {"algorithm"}, Metric::ExploredRound)[0].agg;
  EXPECT_EQ(same.samples, 3);
  EXPECT_DOUBLE_EQ(same.median, 5.0);
  EXPECT_DOUBLE_EQ(same.p95, 5.0);
  EXPECT_DOUBLE_EQ(same.stddev, 0.0);
}

TEST(AnalysisWilson, HandComputedIntervals) {
  // 8/10 at z = 1.96: center = (0.8 + z^2/20) / (1 + z^2/10),
  // half = z/(1 + z^2/10) * sqrt(0.8*0.2/10 + z^2/400).
  const WilsonInterval ci = wilson_interval(8, 10);
  EXPECT_NEAR(ci.lo, 0.4902, 1e-4);
  EXPECT_NEAR(ci.hi, 0.9433, 1e-4);

  // Degenerate rates stay inside [0, 1] (the point of Wilson over the
  // normal approximation).
  const WilsonInterval none = wilson_interval(0, 10);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_NEAR(none.hi, 0.2775, 1e-4);
  const WilsonInterval all = wilson_interval(10, 10);
  EXPECT_NEAR(all.lo, 0.7225, 1e-4);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);

  // Symmetry: k/n and (n-k)/n mirror around 1/2.
  const WilsonInterval three = wilson_interval(3, 10);
  const WilsonInterval seven = wilson_interval(7, 10);
  EXPECT_NEAR(three.lo, 1.0 - seven.hi, 1e-12);
  EXPECT_NEAR(three.hi, 1.0 - seven.lo, 1e-12);

  // No runs: vacuous interval.
  EXPECT_DOUBLE_EQ(wilson_interval(0, 0).lo, 0.0);
  EXPECT_DOUBLE_EQ(wilson_interval(0, 0).hi, 1.0);
}

TEST(AnalysisSignTest, ExactBinomialPValues) {
  EXPECT_DOUBLE_EQ(sign_test_p_value(0, 0), 1.0);
  // 1 win in 8: 2 * (C(8,0) + C(8,1)) / 2^8 = 18/256.
  EXPECT_DOUBLE_EQ(sign_test_p_value(1, 8), 0.0703125);
  EXPECT_DOUBLE_EQ(sign_test_p_value(7, 8), 0.0703125);  // two-sided
  // 0 wins in 10: 2 / 2^10.
  EXPECT_DOUBLE_EQ(sign_test_p_value(0, 10), 0.001953125);
  // An even split is as un-lopsided as it gets: capped at 1.
  EXPECT_DOUBLE_EQ(sign_test_p_value(4, 8), 1.0);

  // Large trial counts go through the log-space path (the direct
  // product under/overflows past ~10^3 trials and used to collapse every
  // big-store comparison to p = 1): the exact and log-space paths agree
  // where both are well-conditioned, lopsided large splits stay
  // significant, and even large splits stay capped.
  EXPECT_NEAR(sign_test_p_value(25, 61), 0.200031369, 1e-6);
  EXPECT_LT(sign_test_p_value(900, 2000), 1e-5);
  EXPECT_GT(sign_test_p_value(900, 2000), 0.0);
  EXPECT_LT(sign_test_p_value(500, 1200), 1e-8);
  EXPECT_DOUBLE_EQ(sign_test_p_value(1000, 2000), 1.0);
}

TEST(AnalysisPaired, HandComputedComparison) {
  // A: eight common rows (explored, rounds 10..80), plus one row only in A.
  std::vector<CampaignRow> a;
  for (int i = 1; i <= 8; ++i)
    a.push_back(fake_row("A", 8, 1, static_cast<std::uint64_t>(i), true,
                         10 * i, 10 * i, 10 * i));
  a.push_back(fake_row("A", 99, 1, 1, true, 9, 9, 9));  // only in A

  // B: the same fingerprints with hand-picked drift, plus one extra row.
  //   deltas (B - A) on rounds: {-1, -2, -3, -4, -5, 0, +6, sample lost}
  std::vector<CampaignRow> b;
  for (int i = 1; i <= 8; ++i)
    b.push_back(fake_row("A", 8, 1, static_cast<std::uint64_t>(i), true,
                         10 * i, 10 * i, 10 * i));
  for (int i = 0; i < 5; ++i) b[i].outcome.rounds -= i + 1;
  b[6].outcome.rounds += 6;
  // Row 8 flips to failure in B (explored false) — under the
  // explored_round metric it would stop contributing, but rounds samples
  // every run, so it still pairs; the flip is counted separately.
  b[7].outcome.explored = false;
  b[7].outcome.explored_round = -1;
  b.push_back(fake_row("A", 77, 1, 1, true, 9, 9, 9));  // only in B

  const PairedComparison cmp = paired_compare(a, b, Metric::Rounds);
  EXPECT_EQ(cmp.common, 8);
  EXPECT_EQ(cmp.only_a, 1);
  EXPECT_EQ(cmp.only_b, 1);
  EXPECT_EQ(cmp.success_flips_ab, 1);
  EXPECT_EQ(cmp.success_flips_ba, 0);
  EXPECT_EQ(cmp.pairs, 8);
  EXPECT_EQ(cmp.b_lower, 5);
  EXPECT_EQ(cmp.ties, 2);  // delta 0 twice: rows 6 and 8
  EXPECT_EQ(cmp.b_higher, 1);
  // mean of {-1,-2,-3,-4,-5,0,6,0} = -9/8; median of the sorted deltas
  // {-5,-4,-3,-2,-1,0,0,6} = -1.5.
  EXPECT_DOUBLE_EQ(cmp.mean_delta, -1.125);
  EXPECT_DOUBLE_EQ(cmp.median_delta, -1.5);
  // Sign test over the 6 non-tied pairs, 5 lower: 2*(C(6,0)+C(6,1))/2^6.
  EXPECT_DOUBLE_EQ(cmp.sign_test_p, sign_test_p_value(5, 6));
  EXPECT_DOUBLE_EQ(cmp.sign_test_p, 0.21875);

  // Under explored_round the flipped row loses its B sample and drops out
  // of the pairing (but stays a counted flip).
  const PairedComparison strict = paired_compare(a, b, Metric::ExploredRound);
  EXPECT_EQ(strict.pairs, 7);
  EXPECT_EQ(strict.success_flips_ab, 1);

  // Rendering is byte-stable and self-consistent across formats.
  const std::string md =
      render_paired_report(cmp, Metric::Rounds, ReportFormat::Markdown);
  EXPECT_NE(md.find("sign-test p"), std::string::npos);
  EXPECT_NE(md.find("| 8 | 1 | 1 | 1 | 0 | 8 | 5 | 2 | 1 | -1.125 | -1.5 |"),
            std::string::npos)
      << md;
  const util::Json doc = util::Json::parse(
      render_paired_report(cmp, Metric::Rounds, ReportFormat::Json));
  EXPECT_EQ(doc.at("pairs").as_int(), 8);
  EXPECT_EQ(doc.at("changed").as_array().size(), 6u);  // non-zero deltas
  EXPECT_DOUBLE_EQ(doc.at("sign_test_p").as_double(), 0.21875);
}

TEST(AnalysisAggregate, GroupsSortNumericAware) {
  std::vector<CampaignRow> rows;
  for (const NodeId n : {11, 6, 16, 9})
    rows.push_back(fake_row("A", n, 1, 1, true, n, n, n));
  const std::vector<GroupRow> groups =
      aggregate_rows(rows, {"n"}, Metric::Rounds);
  ASSERT_EQ(groups.size(), 4u);
  // Lexicographic order would be 11, 16, 6, 9.
  EXPECT_EQ(groups[0].key[0], "6");
  EXPECT_EQ(groups[1].key[0], "9");
  EXPECT_EQ(groups[2].key[0], "11");
  EXPECT_EQ(groups[3].key[0], "16");
}

// --- frontier ------------------------------------------------------------------

/// A monotone synthetic grid: algorithm A succeeds for n <= boundary.
std::vector<CampaignRow> monotone_grid(const std::string& algorithm,
                                       NodeId boundary) {
  std::vector<CampaignRow> rows;
  for (const NodeId n : {4, 6, 8, 10})
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      rows.push_back(fake_row(algorithm, n, 1, seed, n <= boundary,
                              static_cast<Round>(3 * n), 3 * n, 2 * n));
  return rows;
}

TEST(AnalysisFrontier, FindsTheCrossingOnAMonotoneGrid) {
  std::vector<CampaignRow> rows = monotone_grid("A", 6);
  const std::vector<CampaignRow> more = monotone_grid("B", 8);
  rows.insert(rows.end(), more.begin(), more.end());

  const std::vector<FrontierGroup> groups =
      detect_frontier(rows, {"algorithm"}, "n", 0.75);
  ASSERT_EQ(groups.size(), 2u);

  EXPECT_EQ(groups[0].key, std::vector<std::string>{"A"});
  ASSERT_EQ(groups[0].curve.size(), 4u);
  EXPECT_DOUBLE_EQ(groups[0].curve[0].axis, 4.0);
  EXPECT_DOUBLE_EQ(groups[0].curve[0].rate, 1.0);
  EXPECT_DOUBLE_EQ(groups[0].curve[2].rate, 0.0);
  ASSERT_EQ(groups[0].crossings.size(), 1u);
  EXPECT_DOUBLE_EQ(groups[0].crossings[0].axis_before, 6.0);
  EXPECT_DOUBLE_EQ(groups[0].crossings[0].axis_after, 8.0);
  EXPECT_TRUE(groups[0].crossings[0].falling);

  // B's boundary sits one cell later.
  ASSERT_EQ(groups[1].crossings.size(), 1u);
  EXPECT_DOUBLE_EQ(groups[1].crossings[0].axis_before, 8.0);
  EXPECT_DOUBLE_EQ(groups[1].crossings[0].axis_after, 10.0);

  // A uniformly-feasible group has no crossing.
  const std::vector<FrontierGroup> flat =
      detect_frontier(monotone_grid("A", 10), {"algorithm"}, "n", 0.75);
  EXPECT_TRUE(flat[0].crossings.empty());

  // Guard rails: non-numeric axis, axis repeated as group key.
  EXPECT_THROW(detect_frontier(rows, {}, "algorithm", 0.5),
               std::invalid_argument);
  EXPECT_THROW(detect_frontier(rows, {"n"}, "n", 0.5),
               std::invalid_argument);
}

// --- multi-store loading -------------------------------------------------------

TEST(AnalysisLoad, UnionsStoresAndRejectsConflicts) {
  const std::string a_path = testing::TempDir() + "analysis_a.jsonl";
  const std::string b_path = testing::TempDir() + "analysis_b.jsonl";

  std::vector<CampaignRow> rows = monotone_grid("A", 6);
  const std::vector<CampaignRow> front(rows.begin(), rows.begin() + 6);
  const std::vector<CampaignRow> back(rows.begin() + 6, rows.end());
  write_result_store(a_path, front);
  write_result_store(b_path, back);

  const ResultStore store = load_result_stores({a_path, b_path});
  const std::vector<CampaignRow>& loaded = store.rows;
  EXPECT_EQ(store.provenance, current_provenance());
  EXPECT_EQ(loaded.size(), rows.size());
  sort_canonical(rows);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(row_line(loaded[i]), row_line(rows[i]));

  // Conflicting payload for a stored fingerprint is refused.
  std::vector<CampaignRow> clashing = front;
  clashing[0].outcome.rounds += 1;
  write_result_store(b_path, clashing);
  EXPECT_THROW(load_result_stores({a_path, b_path}), std::runtime_error);

  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
}

// --- rendering -----------------------------------------------------------------

TEST(AnalysisRender, MarkdownAndCsvAreByteStable) {
  std::vector<CampaignRow> rows;
  rows.push_back(fake_row("A", 8, 1, 1, true, 10, 12, 20));
  rows.push_back(fake_row("A", 8, 1, 2, true, 20, 22, 40));
  rows.push_back(fake_row("A", 8, 1, 3, false, 0, 99, 7));

  const std::vector<GroupRow> groups =
      aggregate_rows(rows, {"algorithm", "n"}, Metric::ExploredRound);
  EXPECT_EQ(
      render_aggregate_report(groups, {"algorithm", "n"},
                              Metric::ExploredRound, ReportFormat::Markdown),
      "Metric: explored_round; ok = explored && !premature; "
      "rate_lo/rate_hi = Wilson 95% interval; sd = population stddev.\n"
      "\n"
      "| algorithm | n | runs | ok | rate | rate_lo | rate_hi | samples |"
      " min | mean | median | p95 | max | sd |\n"
      "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
      "| A | 8 | 3 | 2 | 0.6667 | 0.2077 | 0.9385 | 2 | 10 | 15 | 15 |"
      " 19.5 | 20 | 5 |\n");
  EXPECT_EQ(
      render_aggregate_report(groups, {"algorithm", "n"},
                              Metric::ExploredRound, ReportFormat::Csv),
      "algorithm,n,runs,ok,rate,rate_lo,rate_hi,samples,min,mean,median,"
      "p95,max,sd\n"
      "A,8,3,2,0.6667,0.2077,0.9385,2,10,15,15,19.5,20,5\n");

  const std::vector<FrontierGroup> frontier =
      detect_frontier(monotone_grid("A", 6), {"algorithm"}, "n", 0.75);
  EXPECT_EQ(
      render_frontier_report(frontier, {"algorithm"}, "n", 0.75,
                             ReportFormat::Markdown),
      "Frontier: axis n, threshold 0.7500; rate = explored && "
      "!premature.\n"
      "\n"
      "| algorithm | curve (n:rate) | frontier |\n"
      "|---|---|---|\n"
      "| A | 4:1.0000 6:1.0000 8:0.0000 10:0.0000 | "
      "6->8 (1.0000->0.0000, falling) |\n");

  // JSON parses back and is canonical.
  const std::string json = render_aggregate_report(
      groups, {"algorithm", "n"}, Metric::ExploredRound, ReportFormat::Json);
  const util::Json doc = util::Json::parse(json);
  EXPECT_EQ(doc.at("metric").as_string(), "explored_round");
  EXPECT_EQ(doc.at("groups").as_array().size(), 1u);
  EXPECT_EQ(doc.dump() + "\n", json);
}

// --- equivalence with core/feasibility_map -------------------------------------

/// Mirror FeasibilityMap's scenario matrix (core/feasibility_map.cpp
/// build_tasks) as declarative specs: seed 0 runs the static ring, the
/// rest run targeted hostile dynamics, seeds 0x9d5*s + 17n.
std::vector<ScenarioSpec> feasibility_specs(const std::string& algorithm,
                                            const FeasibilitySweep& sweep) {
  std::vector<ScenarioSpec> specs;
  for (const NodeId n : sweep.sizes) {
    for (int seed = 0; seed < sweep.seeds_per_size; ++seed) {
      ScenarioSpec spec;
      spec.algorithm = algorithm;
      spec.n = n;
      spec.seed = 0x9d5ULL * static_cast<std::uint64_t>(seed) + 17 * n;
      spec.max_rounds = sweep.max_rounds;
      if (seed == 0) {
        spec.adversary.family = "null";
      } else {
        spec.adversary.family = "targeted-random";
        spec.adversary.target_prob = sweep.edge_removal_prob;
        spec.adversary.activation_prob = sweep.activation_prob;
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

TEST(AnalysisFeasibilityEquivalence, ReproducesTheFeasibilityMapBoundary) {
  FeasibilitySweep sweep;
  sweep.sizes = {4, 5, 6, 8};
  sweep.seeds_per_size = 3;
  sweep.max_rounds = 200'000;
  sweep.threads = 2;

  const std::string name = "KnownNNoChirality";
  const algo::AlgorithmId id = algo::info_by_name(name).id;

  // The hand-rolled sweep...
  const FeasibilityRow feas = evaluate_algorithm(id, sweep);
  // ...and the same cells through the campaign store + analysis path.
  const std::vector<CampaignRow> rows =
      run_scenarios(feasibility_specs(name, sweep), 2);

  const std::vector<GroupRow> overall =
      aggregate_rows(rows, {"algorithm"}, Metric::Rounds);
  ASSERT_EQ(overall.size(), 1u);
  EXPECT_EQ(overall[0].agg.runs, feas.runs);
  EXPECT_EQ(overall[0].agg.successes, feas.explored);
  EXPECT_EQ(overall[0].agg.premature, feas.premature);
  EXPECT_DOUBLE_EQ(overall[0].agg.max,
                   static_cast<double>(feas.worst_rounds));

  // The frontier curve over n matches per-size feasibility: each axis
  // point's success rate equals the explored fraction of a single-size
  // hand-rolled sweep.
  const std::vector<FrontierGroup> frontier =
      detect_frontier(rows, {"algorithm"}, "n", 1.0);
  ASSERT_EQ(frontier.size(), 1u);
  ASSERT_EQ(frontier[0].curve.size(), sweep.sizes.size());
  for (std::size_t i = 0; i < sweep.sizes.size(); ++i) {
    FeasibilitySweep one = sweep;
    one.sizes = {sweep.sizes[i]};
    const FeasibilityRow per_size = evaluate_algorithm(id, one);
    EXPECT_DOUBLE_EQ(frontier[0].curve[i].axis,
                     static_cast<double>(sweep.sizes[i]));
    EXPECT_EQ(frontier[0].curve[i].runs, per_size.runs);
    EXPECT_DOUBLE_EQ(frontier[0].curve[i].rate,
                     static_cast<double>(per_size.explored) / per_size.runs);
  }
}

}  // namespace
}  // namespace dring::core
