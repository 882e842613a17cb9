// Campaign execution and the JSONL result store.
//
// A campaign is a CampaignSpec (core/scenario_spec.hpp) expanded into a
// flat scenario list and executed on the run_sweep worker pool.  A store
// begins with one provenance line naming the engine that produced it,
// followed by one line of JSON per finished scenario:
//
//   {"dring":{"build":"0x...","engine":"dring-1.5.0","schema":4}}
//   {"fp":"0x...","result":{...},"spec":{...},"v":4}
//
// The dump is canonical (sorted keys, no whitespace), so stores are
// line-diffable across commits, and each row carries the scenario's
// fingerprint plus the store schema version (kStoreSchemaVersion; rows
// without a "v" field predate the versioning and read as version 1 —
// readers reject anything but the current version with a clear error).
// The provenance header (schema v4) records the engine semantic version
// and build-flags hash (core/version.hpp): --resume and --merge refuse to
// blend rows produced by different engines, and paired comparisons
// (dring_report --compare) annotate cross-provenance pairs.
//
// Stores are written in *canonical order*: lines sorted as byte strings,
// which — because the header's first key "dring" sorts before the rows'
// "fp" and every row line starts with the fixed-width fingerprint —
// equals header first, then rows by fingerprint (`LC_ALL=C sort`
// reproduces a store byte for byte).  The row set is a pure function of
// the scenario set, so the store bytes are identical for any --threads
// value AND for any sharding of the grid: running `--shard i/m` on m
// machines and merging the partial stores yields byte-for-byte the
// single-process store.  Resume = load the fingerprints already present,
// run only the missing rows, rewrite the union; because per-cell seeds
// are position-independent (see expand()), growing a campaign's axes and
// resuming executes exactly the new cells.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"

namespace dring::core {

class StreamingAggregator;  // core/query.hpp

/// Version of the row schema this build reads and writes.  Bump when the
/// row layout or the store's ordering contract changes; rows without a
/// "v" field are version 1 (the pre-versioning append-ordered stores).
/// v3 added the "last_termination" outcome member and the optional
/// artifact "extra" map.  v4 added the store-level provenance header line
/// and the optional "extra_text" outcome member (trace-derived series the
/// figure artifacts persist).
inline constexpr long long kStoreSchemaVersion = 4;

/// The provenance block written as the first line of every v4 store:
/// which engine produced the rows.  Two stores with equal provenance were
/// produced by semantically identical builds and may be blended freely
/// (resume, merge); anything else is a cross-version situation the caller
/// must opt into explicitly (fresh run, or a --compare that annotates).
struct StoreProvenance {
  std::string engine;  ///< core::engine_version()
  std::string build;   ///< core::build_flags_hash()
  long long schema = kStoreSchemaVersion;

  friend bool operator==(const StoreProvenance&,
                         const StoreProvenance&) = default;
};

/// The provenance of this build.
StoreProvenance current_provenance();

util::Json to_json(const StoreProvenance& provenance);
StoreProvenance provenance_from_json(const util::Json& j);

/// The header line of a store with this provenance (no trailing newline).
std::string provenance_line(const StoreProvenance& provenance);

/// Human-readable one-liner for error messages and report annotations,
/// e.g. "dring-1.5.0 (build 0x1234..., schema v4)".
std::string describe(const StoreProvenance& provenance);

/// The per-scenario summary persisted in a row (the RunResult fields that
/// are meaningful across heterogeneous scenarios).
struct CampaignOutcome {
  bool explored = false;
  Round explored_round = -1;
  Round rounds = 0;
  long long total_moves = 0;
  int terminated_agents = 0;
  bool all_terminated = false;
  bool premature_termination = false;
  long long fairness_interventions = 0;
  int violations = 0;
  /// Worst per-agent termination round (-1 = no agent terminated) — the
  /// quantity Table 2's "worst measured termination" column reports.
  Round last_termination = -1;
  std::string stop_reason;
  /// Artifact-computed per-run metrics (core/artifact.hpp enrich hooks,
  /// e.g. the price-of-liveness offline optimum); empty for plain
  /// campaign runs and omitted from the store row when empty.
  std::map<std::string, long long> extra;
  /// Artifact-computed per-run text extras — the trace-derived series the
  /// figure artifacts persist (core/artifact.hpp, TraceSeries).  Empty for
  /// plain campaign runs and omitted from the store row when empty.
  std::map<std::string, std::string> extra_text;

  friend bool operator==(const CampaignOutcome&,
                         const CampaignOutcome&) = default;
};

/// One line of the result store.
struct CampaignRow {
  std::uint64_t fingerprint = 0;
  ScenarioSpec spec;
  CampaignOutcome outcome;
};

CampaignOutcome outcome_of(const sim::RunResult& r);
util::Json to_json(const CampaignRow& row);
/// Throws std::invalid_argument when the row's schema version ("v" member,
/// absent = 1) is not kStoreSchemaVersion.
CampaignRow campaign_row_from_json(const util::Json& j);

/// Serialize one row as its store line (no trailing newline).
std::string row_line(const CampaignRow& row);

/// A parsed store: its provenance header plus the rows.
struct ResultStore {
  StoreProvenance provenance;
  std::vector<CampaignRow> rows;
};

/// What a lenient store read recovered from.  A worker killed mid-write
/// can leave a store whose LAST line is torn (the crash-safe tmp+rename
/// write makes this impossible for our own writers, but truncated copies —
/// partial scp, full disk, an injected `trunc` fault — still happen).  A
/// torn trailing row is benign: its cell simply re-runs on resume.  Torn
/// or malformed content anywhere *else* is corruption and always throws.
struct StoreReadRecovery {
  bool dropped_partial = false;  ///< a torn trailing row was discarded
  std::size_t line_no = 0;       ///< its 1-based line number
  std::string snippet;           ///< its first bytes, for the diagnostic
};

/// Parse a whole store: the provenance header line followed by one JSON
/// row per non-empty line.  Malformed lines and schema mismatches throw
/// std::invalid_argument naming the line number and a snippet of the
/// offending line; a store whose rows predate v4 (per-row "v" < 4, no
/// header) is rejected with an error naming the found version and how to
/// regenerate.  An empty stream reads as an empty store with this build's
/// provenance.
///
/// When `recovery` is non-null the read is *lenient about the tail*: a
/// malformed LAST line (after a valid header) is treated as a torn row
/// from an interrupted write — it is dropped, described in `recovery`,
/// and the rest of the store loads normally.  Resume uses this mode so a
/// truncated store means "re-run that cell", not "abort the campaign".
ResultStore read_result_store(std::istream& in,
                              StoreReadRecovery* recovery = nullptr);

/// read_result_store over a file; throws std::runtime_error when the file
/// cannot be opened and std::invalid_argument (prefixed with the path) on
/// malformed content.
ResultStore read_result_store_file(const std::string& path,
                                   StoreReadRecovery* recovery = nullptr);

/// Sort rows into canonical store order (ascending store line, which is
/// ascending fingerprint).
void sort_canonical(std::vector<CampaignRow>& rows);

/// (Over)write a store file: the provenance header, then the rows in
/// canonical order.  Crash-safe: the bytes go to a uniquely-named `.tmp`
/// sibling (suffixed with the pid, so two processes racing on one path —
/// e.g. a speculative re-dispatch of the same shard — never clobber each
/// other's half-written file), are fsync'd, and atomically rename(2)d
/// into place; a killed writer can never leave a torn store, only a stray
/// tmp file.
void write_result_store(const std::string& path, ResultStore store);

/// Convenience: write rows under this build's provenance.
void write_result_store(const std::string& path,
                        std::vector<CampaignRow> rows);

/// Execution knobs.
struct CampaignOptions {
  int threads = 0;        ///< run_sweep worker count (0 = hardware)
  std::string out_path;   ///< result store to write (empty = no store)
  bool resume = false;    ///< skip scenarios whose fingerprint is stored
  /// Deterministic grid partition for multi-process/multi-machine runs:
  /// keep only cells with fingerprint % shard_count == shard_index.  The
  /// assignment depends on cell identity, not grid position, so it is
  /// stable under axis growth.  shard_count == 1 keeps everything.
  int shard_index = 0;
  int shard_count = 1;
  /// When non-empty, a heartbeat file rewritten as "done total\n" (in
  /// cells) before the sweep starts and after every completed run.  Supervisors
  /// (dring_orchestrate) watch its mtime for liveness: a worker that
  /// stops updating it is hung and gets killed + rescheduled.
  std::string progress_path;
  /// Optional per-completion hook, called with (done, total) after the
  /// progress file update.  The fault-injection harness in dring_campaign
  /// rides here; serialized, on a worker thread.
  std::function<void(std::size_t, std::size_t)> on_progress;
  /// Batched lockstep lanes per worker thread (SweepOptions::batch_width):
  /// 0 = scalar engine path.  An execution knob only — store bytes are
  /// identical for every width (CI-gated), and it is deliberately not a
  /// ScenarioSpec field, so fingerprints and provenance never see it.
  int batch_width = 0;
  /// Opt-in streaming aggregation (--stream-aggregate): every *executed*
  /// row is folded into this aggregator at task-completion time
  /// (serialized; rows skipped by resume are already in the store and are
  /// not folded — aggregate those through the query cache).  When
  /// out_path is empty the rows are also discarded right after the fold:
  /// CampaignReport.rows comes back empty while `executed` still counts
  /// the work — the Monte-Carlo-scale mode where a campaign never
  /// materializes its row vector.  With a store configured the rows are
  /// kept (the store write needs them) and the fold is a free rider.
  /// Owned by the caller; must outlive run_campaign.
  StreamingAggregator* stream = nullptr;
};

/// What a campaign run did.
struct CampaignReport {
  std::size_t total = 0;     ///< scenarios in the expanded grid
  std::size_t sharded_out = 0;  ///< assigned to other shards
  std::size_t skipped = 0;   ///< already present in the store (resume)
  /// Cells produced in this invocation, whether simulated or copied from
  /// a cell with the same behaviour key.
  std::size_t executed = 0;
  std::vector<CampaignRow> rows;  ///< executed rows, in task order
  /// Torn-trailing-row recovery from the resume read (see StoreRunResult).
  StoreReadRecovery recovery;
};

/// Run the given scenarios on the pool, one run per spec (no behaviour
/// sharing — the engine-measuring path); rows come back in spec order.
/// `on_task_done` is forwarded to SweepOptions (heartbeats, fault hooks);
/// `batch_width` > 0 routes eligible tasks through the batched engine
/// (identical rows either way).
std::vector<CampaignRow> run_scenarios(
    const std::vector<ScenarioSpec>& specs, int threads,
    const std::function<void(std::size_t, std::size_t)>& on_task_done = {},
    int batch_width = 0);

/// run_scenarios with a per-row streaming hook: `on_row` sees each
/// finished row in completion order (serialized, on a worker thread —
/// keep it cheap, it sits on the sweep's critical path).  With
/// `keep_rows` false the returned vector is empty and no row outlives
/// its hook call; with it true the rows come back in spec order exactly
/// like run_scenarios.
std::vector<CampaignRow> run_scenarios_streaming(
    const std::vector<ScenarioSpec>& specs, int threads,
    const std::function<void(const CampaignRow&)>& on_row, bool keep_rows,
    const std::function<void(std::size_t, std::size_t)>& on_task_done = {},
    int batch_width = 0);

/// Positions of the cells assigned to shard `index` of `count`, given
/// each cell's fingerprint (fingerprint modulo count; ascending). Throws
/// std::invalid_argument on a bad shard geometry.
std::vector<std::size_t> shard_filter(
    const std::vector<std::uint64_t>& fingerprints, int index, int count);

/// Expand + shard-filter + (optionally) resume-filter + run + write the
/// store.  A fresh run replaces the store file; a resume run rewrites it
/// with the union of existing and new rows (both in canonical order).
/// Cells that share a behaviour key (behaviour_representatives: all seeds
/// of a seed-free cell, "null" at any T) run once and copy the outcome, so
/// the rows, the store bytes and the streamed fold are exactly those of a
/// per-cell run.  `executed` and the heartbeat still count cells.
CampaignReport run_campaign(const CampaignSpec& campaign,
                            const CampaignOptions& options);

/// The store-maintenance core shared by run_campaign and run_artifact
/// (core/artifact.hpp): resume-filter `fingerprints` against the store,
/// execute the missing subset via `execute` (called once with the indices
/// into `fingerprints` to run, in order), and rewrite the store — a fresh
/// run replaces it, a resume run rewrites the union of existing and new
/// rows, both in canonical order.  Resuming a store whose provenance is
/// not this build's throws std::runtime_error (blending rows from two
/// engines would poison every downstream comparison); start a fresh store
/// or keep the old engine's binary.  This is the single home of that
/// contract; the shard/merge byte-stability CI pins ride on it.
struct StoreRunResult {
  std::size_t skipped = 0;        ///< fingerprints already stored
  /// Cells the execute callback was asked to run.  Usually rows.size(),
  /// but stays correct when the callback streams rows away instead of
  /// materializing them (CampaignOptions::stream with no store).
  std::size_t executed = 0;
  std::vector<CampaignRow> rows;  ///< executed rows, in `execute` order
  /// Set when resume dropped a torn trailing row from the prior store
  /// (the cell re-ran and the rewrite replaced it with a whole row).
  StoreReadRecovery recovery;
};

StoreRunResult run_with_store(
    const std::vector<std::uint64_t>& fingerprints,
    const std::string& store_path, bool resume,
    const std::function<
        std::vector<CampaignRow>(const std::vector<std::size_t>&)>& execute);

/// Store diff (for comparing campaign outputs across commits): rows
/// present in only one store are reported separately from rows present in
/// both whose payload (spec or outcome) differs.
struct StoreDiff {
  std::vector<CampaignRow> only_a;
  std::vector<CampaignRow> only_b;
  std::vector<std::pair<CampaignRow, CampaignRow>> changed;  ///< (a, b)
  bool identical() const {
    return only_a.empty() && only_b.empty() && changed.empty();
  }
};

StoreDiff diff_result_stores(const std::vector<CampaignRow>& a,
                             const std::vector<CampaignRow>& b);

/// Lossless union of partial stores (shards of one campaign, or several
/// campaigns sharing a store).  Rows with equal fingerprints must be
/// byte-identical; a fingerprint carrying two different payloads is a
/// conflict and lands in `conflicts` instead of `rows`.
struct StoreMerge {
  StoreProvenance provenance;     ///< the shared input provenance
  std::vector<CampaignRow> rows;  ///< canonical order
  std::vector<std::pair<CampaignRow, CampaignRow>> conflicts;  ///< (kept, clashing)
  bool ok() const { return conflicts.empty(); }
};

/// Merge full stores (consumed).  All inputs must carry the same
/// provenance — a mix throws std::runtime_error naming both
/// (cross-version rows must never silently blend into one store; use
/// `dring_report --compare` to compare across versions instead).
StoreMerge merge_result_stores(std::vector<ResultStore> stores);

/// Row-level merge under a single (implicit) provenance — the in-process
/// path used by tests and run_with_store.
StoreMerge merge_result_stores(
    const std::vector<std::vector<CampaignRow>>& stores);

}  // namespace dring::core
