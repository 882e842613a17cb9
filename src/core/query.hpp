// In-memory campaign query service: a fingerprint-indexed result cache
// and streaming (mergeable) aggregation.
//
// Every dring_report invocation used to re-read and re-parse the JSONL
// store from scratch — fine for a one-shot batch report, hopeless for
// serving interactive traffic.  The position-independent scenario
// fingerprint is already a cache key; this module exploits it:
//
//   * ResultCache loads one or more stores ONCE into an indexed in-memory
//     structure: rows in canonical store order (so the store bytes can be
//     re-emitted verbatim), an open-addressing hash table on the FNV
//     fingerprint for O(1) point lookup, and lazily-built per-axis value
//     columns + bucket indexes so group-by scans never re-derive axis
//     values from specs.  Cache-derived aggregate and frontier reports
//     are byte-identical to the core/analysis batch path — same member
//     order, same fold arithmetic (pinned by tests/query_test.cpp).
//
//   * StreamingAggregator folds success counts, Wilson CIs, metric
//     min/mean/max and fixed-bucket quantile estimates cell-group by
//     cell-group as rows arrive, so a Monte-Carlo-scale campaign never
//     materializes its full row vector.  All running state is
//     order-independent (counts, integral sums, min/max, bucket counts),
//     so the exact columns — runs/ok/rate/rate CI/samples/min/mean/max —
//     are bit-identical to the batch fold for ANY arrival order and any
//     --threads; median/p95/sd come from the mergeable sketch and are
//     estimates (marked as such in the rendered report).
//
//   * handle_query answers line-delimited JSON requests over a cache —
//     the protocol core of tools/dring_serve (aggregate / frontier /
//     compare / point / cells / stats).  A query touching missing cells
//     returns what exists plus a machine-readable missing-cell manifest
//     whose shard list is compatible with dring_orchestrate resume
//     semantics: simulation is cache-fill.
//
// Telemetry: ResultCache lookups count query.cache.{hits,misses},
// handle_query wraps each request in a query.request span and observes
// query.latency_us — sidecar-only, canonical bytes untouched, like every
// other telemetry surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/analysis.hpp"

namespace dring::core {

// --- fingerprint-indexed result cache ---------------------------------------

class ResultCache {
 public:
  ResultCache();
  /// Index an already-loaded store (rows are brought into canonical order
  /// if they are not already).
  explicit ResultCache(ResultStore store);

  /// Load + union stores from disk (load_result_stores semantics) and
  /// index the result.
  static ResultCache load(const std::vector<std::string>& paths);

  /// The directories of the store files load() read, as canonical paths
  /// (empty for a cache built from an in-memory store).  The compare op
  /// opens only stores inside one of them.
  const std::vector<std::filesystem::path>& store_dirs() const {
    return store_dirs_;
  }

  const StoreProvenance& provenance() const { return store_.provenance; }
  const std::vector<CampaignRow>& rows() const { return store_.rows; }
  std::size_t size() const { return store_.rows.size(); }

  /// O(1) point lookup by fingerprint; nullptr when absent.  Counts
  /// query.cache.{hits,misses} (telemetry-gated) and the cache's own
  /// Stats either way.
  const CampaignRow* find(std::uint64_t fingerprint) const;

  /// Group-by aggregate over the cached rows — byte-identical to
  /// aggregate_rows(rows(), ...) (same grouping, member order and fold),
  /// but group keys come from the pre-computed axis columns instead of
  /// per-row spec introspection, and a single-axis group-by walks the
  /// pre-bucketed axis index directly.
  std::vector<GroupRow> aggregate(const std::vector<std::string>& group_keys,
                                  Metric metric) const;

  /// Frontier scan over the cached rows — byte-identical to
  /// detect_frontier(rows(), ...).
  std::vector<FrontierGroup> frontier(const std::vector<std::string>& group_keys,
                                      const std::string& axis,
                                      double threshold) const;

  /// The exact bytes write_result_store would put on disk for this row
  /// set — canonical re-emission, pinned against the source file by the
  /// serve CI gate (loading a store into the cache and re-emitting it is
  /// the identity).
  std::string store_bytes() const;

  /// Pre-computed axis value strings, one per row, in row order (built on
  /// first use, then cached).  `axis` must be canonical.
  const std::vector<std::string>& axis_column(const std::string& axis) const;

  /// Pre-bucketed axis index: (value, ascending row indices) pairs in the
  /// numeric-aware group order the batch path produces.
  struct AxisBucket {
    std::string value;
    std::vector<std::uint32_t> rows;
  };
  const std::vector<AxisBucket>& axis_buckets(const std::string& axis) const;

  /// Lifetime hit/miss counts of find() on this cache.
  struct Stats {
    long long hits = 0;
    long long misses = 0;
  };
  Stats stats() const;

  /// Which of `specs` the cache holds.  `shard_count` maps the missing
  /// cells onto dring_orchestrate shard indices (fingerprint % count —
  /// the same partition dring_campaign --shard uses), so the manifest's
  /// missing-shard list plugs straight into an orchestrator resume run.
  struct CellScan {
    std::vector<const CampaignRow*> present;  ///< spec order
    std::vector<std::uint64_t> missing;       ///< fingerprints, spec order
    std::vector<int> missing_shards;          ///< sorted, unique
  };
  CellScan scan_cells(const std::vector<ScenarioSpec>& specs,
                      int shard_count = 1) const;

 private:
  ResultCache(ResultStore store, std::vector<std::filesystem::path> store_dirs);
  void build_index();
  /// axis_column's body, for callers already holding lazy_mutex_.
  const std::vector<std::string>& column_locked(const std::string& axis) const;

  ResultStore store_;
  std::vector<std::filesystem::path> store_dirs_;
  /// Open addressing on the fingerprint: slot holds row index + 1
  /// (0 = empty); capacity is a power of two >= 2x rows.
  std::vector<std::uint32_t> slots_;
  std::uint64_t mask_ = 0;

  mutable std::mutex lazy_mutex_;  ///< guards the lazy axis structures
  mutable std::map<std::string, std::vector<std::string>> columns_;
  mutable std::map<std::string, std::vector<AxisBucket>> buckets_;
  mutable std::atomic<long long> hits_{0};
  mutable std::atomic<long long> misses_{0};
};

// --- streaming aggregation ---------------------------------------------------

/// Mergeable fixed-bucket quantile sketch bounds shared by every
/// StreamingAggregator: 0 then a doubling ladder through 2^40 (covers any
/// round/move count the engine can produce).  One fixed layout, so
/// sketches from different workers/shards merge bucket for bucket.
const std::vector<long long>& streaming_quantile_bounds();

class StreamingAggregator {
 public:
  /// `group_keys` are canonicalized on construction (throws on unknown
  /// axes, like the batch path).
  StreamingAggregator(const std::vector<std::string>& group_keys,
                      Metric metric);

  const std::vector<std::string>& group_keys() const { return group_keys_; }
  Metric metric() const { return metric_; }

  /// Fold one row into its cell group.  NOT thread-safe: callers
  /// serialize (the sweep's on_task_result hook already is).
  void add(const CampaignRow& row);
  void add(const ScenarioSpec& spec, const CampaignOutcome& outcome);

  /// Merge another aggregator's state (same keys + metric, or throws) —
  /// the shard/worker reduction path.
  void merge(const StreamingAggregator& other);

  long long rows_folded() const { return folded_; }

  /// The aggregate rows, in the batch path's numeric-aware group order.
  /// runs/ok/premature/violations/rate CI/samples/min/mean/max are exact
  /// and bit-identical to aggregate_rows for any arrival order; median
  /// and p95 are sketch estimates (bucket-interpolated), sd comes from
  /// the running sum of squares.
  std::vector<GroupRow> finish() const;

  /// render_aggregate_report over finish(), with the markdown preamble
  /// noting which columns are sketch estimates.
  std::string render(ReportFormat format) const;

 private:
  struct Cell {
    int runs = 0;
    int successes = 0;
    int premature = 0;
    int violations = 0;
    long long samples = 0;
    double min = 0, max = 0;
    double sum = 0, sum_sq = 0;
    std::vector<long long> bucket_counts;  ///< bounds.size() + 1
  };

  std::vector<std::string> group_keys_;
  Metric metric_;
  std::map<std::vector<std::string>, Cell> cells_;
  long long folded_ = 0;
};

/// Quantile estimate (q in [0,1]) from a fixed-bucket sketch: find the
/// bucket holding rank q*(count-1) and interpolate linearly inside it.
/// Exposed for tests; `counts` has bounds.size() + 1 entries.
double sketch_quantile(const std::vector<long long>& bounds,
                       const std::vector<long long>& counts, long long count,
                       double q);

// --- query protocol (dring_serve) -------------------------------------------

/// Missing-cell manifest for a cells query: mirrors the orchestrator run
/// manifest's campaign/shards/missing keys, so "how do I fill these
/// holes" has the same machine-readable answer in both places
/// (dring_orchestrate --spec ... --shards m --resume).
util::Json missing_cell_manifest(const std::string& campaign_name,
                                 const std::string& spec_path, int shards,
                                 const ResultCache::CellScan& scan);

/// Answer one line-delimited JSON request over the cache.  Requests are
/// objects with an "op" member:
///
///   aggregate  {"op":"aggregate","group_by":["algorithm","n"],
///               "metric":"explored_round","format":"md"}
///   frontier   {"op":"frontier","group_by":["t_interval"],"axis":"n",
///               "threshold":0.5,"format":"md"}
///   compare    {"op":"compare","store":["other.jsonl"],"metric":"rounds",
///               "format":"md"}          (B side loaded from disk per query;
///               only paths inside a served store's directory)
///   point      {"op":"point","fp":"0x..."} or {"op":"point","spec":{...}}
///   cells      {"op":"cells","spec_path":"campaign.json","shards":3}
///              (or "spec":{inline campaign}; optional group_by/metric/
///               format aggregate the present rows)
///   stats      {"op":"stats"}
///
/// Responses are objects: {"ok":true,"op":...,...} with a "report" member
/// carrying rendered report bytes where applicable, plus a "cache"
/// member with this query's hit/miss delta; errors come back as
/// {"ok":false,"error":"..."} — the server never dies on a bad request.
/// Responses are deterministic for a fixed cache + request (latency goes
/// to telemetry, not into the response).
util::Json handle_query(const ResultCache& cache, const util::Json& request);

/// handle_query over a raw request line (parse errors come back as
/// {"ok":false,...} responses too, never exceptions).
util::Json handle_query_line(const ResultCache& cache,
                             const std::string& line);

}  // namespace dring::core
