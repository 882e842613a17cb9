// Campaign report generator: aggregate tables, feasibility frontiers and
// paired store comparisons over JSONL result stores (core/analysis.hpp).
//
//   dring_report --store results.jsonl [--store more.jsonl ...] \
//       [--group-by algorithm,n] [--metric explored_round] \
//       [--frontier AXIS] [--threshold 0.5] [--format md|csv|json]
//   dring_report --store base.jsonl --compare other.jsonl --metric rounds
//
// Stores are unioned by fingerprint (conflicting payloads are an error —
// shards of one campaign always merge cleanly).  Without --frontier the
// output is a group-by aggregate table: runs, successes, success rate with
// its Wilson 95% interval, and the metric's min/mean/median/p95/max plus
// per-seed dispersion.  With --frontier AXIS, each group's success rate is
// scanned along the numeric axis and every threshold crossing — the
// feasibility frontier — is reported.  With --compare, the --store rows
// (A) are joined per fingerprint against the --compare rows (B) and the
// metric deltas are summarized with an exact sign test — the
// significance-test workflow for cross-commit or cross-axis drift.
// Output is deterministic and byte-stable for a given row set, so reports
// can be committed next to their campaign spec and diffed across commits.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/query.hpp"
#include "core/telemetry.hpp"
#include "util/cli.hpp"

namespace {

using namespace dring;

util::FlagTable flag_table() {
  util::FlagTable flags("dring_report",
                        "aggregate tables, frontiers and paired comparisons "
                        "over campaign result stores");
  flags.synopsis("dring_report --store results.jsonl [--store more.jsonl ...]"
                 " [--group-by algorithm,n] [--metric explored_round]"
                 " [--frontier AXIS] [--threshold 0.5] [--format md|csv|json]")
      .synopsis("dring_report --store base.jsonl --compare other.jsonl"
                " [--metric rounds] [--format md|csv|json]")
      .flag("store", "FILE", "result store to load (repeatable; unioned by "
                             "fingerprint)")
      .flag("group-by", "AXES", "comma-separated group keys (default "
                                "algorithm)")
      .flag("metric", "NAME", "explored_round (successful runs), rounds, "
                              "moves")
      .flag("frontier", "AXIS", "scan the numeric axis for success-rate "
                                "threshold crossings")
      .flag("threshold", "P", "frontier success-rate threshold (default 0.5)")
      .flag("compare", "FILE", "paired comparison: B-side store "
                               "(repeatable), joined per fingerprint")
      .flag("format", "F", "md (default), csv or json")
      .flag("via-cache", "", "route aggregate/frontier through the "
                             "in-memory query cache (core/query.hpp) "
                             "instead of the batch path — byte-identical "
                             "output, CI-gated");
  core::add_log_flags(flags);
  flags.flag("help", "", "print this help")
      .note("axes: algorithm n agents adversary t_interval model max_rounds "
            "remove_prob target_prob activation_prob (aliases: k, family, "
            "T)");
  return flags;
}

std::vector<std::string> split_keys(const std::string& list) {
  std::vector<std::string> keys;
  std::string current;
  for (const char c : list) {
    if (c == ',') {
      if (!current.empty()) keys.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) keys.push_back(current);
  return keys;
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

  std::vector<std::string> stores = cli.get_all("store");
  for (const std::string& p : cli.positional()) stores.push_back(p);
  if (stores.empty()) {
    std::cerr << flags.help_text();
    return 2;
  }

  try {
    const core::ResultStore store = core::load_result_stores(stores);
    const std::vector<core::CampaignRow>& rows = store.rows;
    const core::ReportFormat format =
        core::report_format_from_string(cli.get("format", "md"));

    std::vector<std::string> group_keys;
    for (const std::string& key : split_keys(cli.get("group-by", "algorithm")))
      group_keys.push_back(core::canonical_axis(key));

    const bool via_cache = cli.get_bool("via-cache", false);
    if (via_cache && cli.has("compare")) {
      std::cerr << "dring_report: --via-cache applies to the aggregate and "
                   "frontier modes\n";
      return 2;
    }
    // The cache indexes the same loaded rows; reports derived from it are
    // byte-identical to the batch path below (pinned by tests + CI).
    std::optional<core::ResultCache> cache;
    if (via_cache) cache.emplace(store);

    std::string report;
    if (cli.has("compare")) {
      const core::ResultStore other =
          core::load_result_stores(cli.get_all("compare"));
      const core::Metric metric =
          core::metric_from_string(cli.get("metric", "rounds"));
      core::PairedComparison cmp =
          core::paired_compare(rows, other.rows, metric);
      // Cross-version pairing is the provenance feature's whole point:
      // the report says which engines produced each side.
      cmp.provenance_a = core::describe(store.provenance);
      cmp.provenance_b = core::describe(other.provenance);
      report = core::render_paired_report(cmp, metric, format);
    } else if (cli.has("frontier")) {
      const std::string axis = core::canonical_axis(cli.get("frontier", ""));
      const double threshold = cli.get_double("threshold", 0.5);
      report = core::render_frontier_report(
          cache ? cache->frontier(group_keys, axis, threshold)
                : core::detect_frontier(rows, group_keys, axis, threshold),
          group_keys, axis, threshold, format);
    } else {
      const core::Metric metric =
          core::metric_from_string(cli.get("metric", "explored_round"));
      report = core::render_aggregate_report(
          cache ? cache->aggregate(group_keys, metric)
                : core::aggregate_rows(rows, group_keys, metric),
          group_keys, metric, format);
    }
    std::cout << report;
  } catch (const std::exception& e) {
    std::cerr << "dring_report: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
