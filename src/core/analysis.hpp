// Campaign analytics: turn JSONL result stores back into tables,
// frontiers and phase-transition curves.
//
// The paper's results are frontier statements — which (n, k, knowledge,
// model) cells are explorable and at what round cost.  The campaign
// subsystem (core/campaign.hpp) mass-produces per-cell rows; this module
// is the query side:
//
//   * load one or more stores into a typed row set (union by fingerprint,
//     conflicting payloads rejected);
//   * group rows by any subset of the scenario axes and aggregate —
//     success rate, metric distribution (min/mean/median/p95/max),
//     per-seed dispersion (population stddev);
//   * scan any numeric axis inside each group for the frontier cell where
//     the success rate crosses a threshold — the generalization of
//     core/feasibility_map's hand-rolled sweep to a query over any
//     campaign store.
//
// Everything downstream of the row set is deterministic: groups are
// sorted numeric-aware, numbers are rendered with fixed formats, so the
// rendered reports are byte-stable — suitable for committing next to a
// spec and diffing across commits (tools/dring_report).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace dring::core {

// --- loading ---------------------------------------------------------------

/// Read and union several stores (merge_result_stores semantics: identical
/// duplicate rows collapse, conflicting payloads for one fingerprint throw
/// std::runtime_error naming the fingerprint, and stores with different
/// provenance refuse to union — load cross-version stores separately and
/// compare them with paired_compare).  Rows come back in canonical store
/// order under the shared provenance.
ResultStore load_result_stores(const std::vector<std::string>& paths);

// --- axes ------------------------------------------------------------------

/// The queryable scenario axes.  Numeric axes can be frontier-scanned:
///
///   algorithm        registry name                        (string)
///   n                ring size                            (numeric)
///   agents           team size k, 0 = theorem's count     (numeric)
///   adversary        adversary family name                (string)
///   t_interval       T-interval-connectivity parameter    (numeric)
///   model            synchrony override, "native" if none (string)
///   max_rounds       round budget, 0 = default            (numeric)
///   remove_prob      "random" removal probability         (numeric)
///   target_prob      "targeted-random" probability        (numeric)
///   activation_prob  SSYNC activation probability         (numeric)
///
/// Aliases accepted on input: k = agents, family = adversary,
/// T = t = t_interval.
const std::vector<std::string>& analysis_axes();

/// Resolve aliases to the canonical axis name; throws std::invalid_argument
/// for an unknown key (the message lists the valid axes).
std::string canonical_axis(const std::string& key);

/// Whether the (canonical) axis carries numeric values.
bool axis_is_numeric(const std::string& axis);

/// The row's value on a canonical axis, as a display/grouping string.
/// Numeric axes render via fmt_axis (doubles "%.6g", integers exact).
std::string axis_value(const CampaignRow& row, const std::string& axis);

/// The row's value on a numeric canonical axis; throws
/// std::invalid_argument for non-numeric axes.
double axis_number(const CampaignRow& row, const std::string& axis);

/// Deterministic number rendering used for axis values ("%.6g").
std::string fmt_axis(double value);

// --- aggregation -----------------------------------------------------------

/// Which per-run quantity the distribution statistics are computed over.
/// ExploredRound samples only successful runs (the round cost of the runs
/// that worked); Rounds and Moves sample every run.
enum class Metric { ExploredRound, Rounds, Moves };

Metric metric_from_string(const std::string& name);
std::string to_string(Metric metric);

/// A run counts as a success when it explored the ring and no agent
/// terminated prematurely (the paper's correctness condition).
bool row_success(const CampaignRow& row);

/// The row's sample for a metric; nullopt when the row does not
/// contribute (ExploredRound on an unsuccessful run).
std::optional<double> metric_sample(const CampaignRow& row, Metric metric);

/// Wilson score interval on a binomial success rate — the uncertainty
/// column of the paper-artifact tables.  Unlike the normal approximation
/// it stays inside [0, 1] and behaves at 0/n and n/n.
struct WilsonInterval {
  double lo = 0;
  double hi = 1;
};

/// Wilson interval for `successes` out of `runs` at critical value `z`
/// (1.96 = 95%).  runs == 0 yields the vacuous [0, 1].
WilsonInterval wilson_interval(int successes, int runs, double z = 1.96);

/// Aggregate of one group of rows.
struct Aggregate {
  int runs = 0;
  int successes = 0;   ///< explored && !premature
  int premature = 0;   ///< runs with a premature termination
  int violations = 0;  ///< total verifier findings across runs
  WilsonInterval rate_ci;  ///< Wilson 95% interval on the success rate
  /// Distribution of the selected metric over the contributing runs.
  int samples = 0;
  double min = 0, max = 0;
  double mean = 0, median = 0, p95 = 0;
  double stddev = 0;  ///< population stddev — per-seed dispersion

  double success_rate() const {
    return runs > 0 ? static_cast<double>(successes) / runs : 0.0;
  }
};

/// One output row of a group-by query: the group's key values (parallel to
/// the requested keys) plus its aggregate.
struct GroupRow {
  std::vector<std::string> key;
  Aggregate agg;
};

/// Group rows by the given canonical axes and aggregate `metric` within
/// each group.  Groups come back sorted by key, numeric-aware per
/// component.  Empty `group_keys` yields one global group.
std::vector<GroupRow> aggregate_rows(const std::vector<CampaignRow>& rows,
                                     const std::vector<std::string>& group_keys,
                                     Metric metric);

/// Linear-interpolation quantile (q in [0,1]) of an ascending-sorted,
/// non-empty sample vector: index q*(N-1), fractional indexes interpolate.
double quantile(const std::vector<double>& sorted, double q);

/// The exact fold behind aggregate_rows, over one group's member rows.
/// Exposed so alternative row sources (the query cache) reproduce
/// aggregate report bytes without routing through a row-vector copy.
Aggregate fold_rows(const std::vector<const CampaignRow*>& rows,
                    Metric metric);

/// Numeric-aware comparison of two group keys (component-wise; numeric
/// components compare by value, string components lexically) — the group
/// ordering of aggregate_rows, exposed for the same reason as fold_rows.
/// `numeric[i]` says whether component i is a numeric axis.
bool group_key_less(const std::vector<std::string>& a,
                    const std::vector<std::string>& b,
                    const std::vector<bool>& numeric);

// --- paired store comparison ------------------------------------------------

/// One fingerprint present in both stores of a paired comparison.
struct PairedRow {
  std::uint64_t fingerprint = 0;
  ScenarioSpec spec;  ///< from store A (identical in B by construction)
  bool success_a = false, success_b = false;
  std::optional<double> sample_a, sample_b;  ///< metric samples per side
  std::optional<double> delta;               ///< b - a, when both sampled
};

/// Per-fingerprint A/B comparison of two stores — the significance test
/// for "did this commit/axis change the measured behaviour?".
struct PairedComparison {
  int common = 0;             ///< fingerprints present in both stores
  int only_a = 0, only_b = 0;
  int success_flips_ab = 0;   ///< success in A, failure in B
  int success_flips_ba = 0;   ///< failure in A, success in B
  int pairs = 0;              ///< rows where both sides carry a sample
  int b_lower = 0;            ///< delta < 0 (B cheaper on a cost metric)
  int b_higher = 0;           ///< delta > 0
  int ties = 0;               ///< delta == 0
  double mean_delta = 0, median_delta = 0;
  /// Two-sided exact binomial sign test over the non-tied pairs: the
  /// probability of a split at least this lopsided under "no drift".
  double sign_test_p = 1.0;
  /// Store provenance of each side (describe() strings), set by the
  /// caller when known: the rendered report annotates the pairing as
  /// same-provenance or cross-version.  Empty = unknown; the annotation
  /// is emitted only when both sides are known.
  std::string provenance_a, provenance_b;
  std::vector<PairedRow> rows;  ///< common rows, fingerprint order
};

/// Exact two-sided binomial sign-test p-value for `wins` out of `trials`
/// fair coin flips: min(1, 2 * P[X <= min(wins, trials - wins)]).
/// trials == 0 yields 1.0.
double sign_test_p_value(int wins, int trials);

/// Join two row sets by fingerprint and compare the metric per pair.
PairedComparison paired_compare(const std::vector<CampaignRow>& a,
                                const std::vector<CampaignRow>& b,
                                Metric metric);

// --- frontier / phase transitions ------------------------------------------

/// Success rate at one value of the scanned axis.
struct FrontierPoint {
  double axis = 0;
  int runs = 0;
  double rate = 0;
};

/// A threshold crossing between two adjacent axis values: the feasibility
/// frontier passes between `before` and `after`.
struct FrontierCrossing {
  double axis_before = 0, axis_after = 0;
  double rate_before = 0, rate_after = 0;
  bool falling = false;  ///< rate dropped below the threshold going up-axis
};

/// One group's scan along the axis.
struct FrontierGroup {
  std::vector<std::string> key;          ///< values of the group keys
  std::vector<FrontierPoint> curve;      ///< ascending axis order
  std::vector<FrontierCrossing> crossings;
};

/// Scan `axis` (numeric) within each (group_keys)-group: the curve of
/// success rates by axis value and every adjacent pair where the rate
/// crosses `threshold`.  A monotone feasibility axis yields exactly one
/// crossing — the phase transition; zero crossings mean the group is
/// uniformly feasible or infeasible over the stored range.  The axis must
/// not also be a group key.
std::vector<FrontierGroup> detect_frontier(
    const std::vector<CampaignRow>& rows,
    const std::vector<std::string>& group_keys, const std::string& axis,
    double threshold);

// --- rendering -------------------------------------------------------------

enum class ReportFormat { Markdown, Csv, Json };

ReportFormat report_format_from_string(const std::string& name);

/// One rendered table line (trailing newline included): a markdown pipe
/// row or a CSV record with RFC-4180 quoting.  The single table renderer
/// shared by every tabular surface (dring_report, dring_metrics) — Json
/// callers build documents instead.
std::string render_cells(const std::vector<std::string>& cells,
                         ReportFormat format);

/// The markdown header/body separator row for `columns` columns.
std::string md_separator_row(std::size_t columns);

/// Byte-stable rendering of a group-by report (trailing newline included).
/// Markdown: a pipe table; CSV: header + rows; JSON: one canonical
/// util::Json document.
std::string render_aggregate_report(const std::vector<GroupRow>& groups,
                                    const std::vector<std::string>& group_keys,
                                    Metric metric, ReportFormat format);

/// Byte-stable rendering of a frontier report.
std::string render_frontier_report(const std::vector<FrontierGroup>& groups,
                                   const std::vector<std::string>& group_keys,
                                   const std::string& axis, double threshold,
                                   ReportFormat format);

/// Byte-stable rendering of a paired comparison (summary plus every
/// non-tied pair, fingerprint order).
std::string render_paired_report(const PairedComparison& cmp, Metric metric,
                                 ReportFormat format);

}  // namespace dring::core
