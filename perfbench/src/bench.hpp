// Campaign pipeline benchmark: shared declarations.
//
// The benchmark drives the repository's public dring::core / dring::util
// API from outside, in pipeline order: campaign spec -> expand ->
// fingerprint -> sweep -> store write -> store read -> aggregate report ->
// query service.  It never touches library code; every timer and span
// wraps one of the benchmark's own calls into a layer.  README.md holds the
// metric glossary and the layer -> end-to-end map.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/analysis.hpp"
#include "core/campaign.hpp"
#include "core/query.hpp"
#include "core/scenario_spec.hpp"

namespace bench {

// --- command line ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string scale = "full";  ///< "full" or "tiny" (self-test size)
  std::string bench_dir;       ///< the benchmark's own directory
  std::string work_dir;        ///< where stores and traces are written
  std::string report_tool;     ///< path of the dring_report binary
  bool corrupt_store = false;  ///< self-test: damage every store digest
};

/// Ops attempted and failed: an op is one campaign cell, one report or
/// one request; a failure is an exception, an ok:false reply or an output
/// that fails its check.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  void add(long long ops, bool ok) {
    attempted += ops;
    if (!ok) failed += ops;
  }
};

// --- workloads ---------------------------------------------------------------

/// One workload: a campaign grid plus how the run's time is split between
/// the pipeline phases.  Every workload runs every phase, so every
/// end-to-end metric is measured on every workload; the shares decide
/// where most samples go.
struct Workload {
  std::string name;
  std::string grid;   ///< spec file stem under specs/
  /// false: --seed is the grid salt and seeds the request mix; setup_s is
  /// spec parse + expand + one fingerprint pass.  true (serve_mix): the
  /// grid keeps its committed salt, so the store is the reference store;
  /// --seed only seeds the request mix, setup_s is the cold
  /// ResultCache::load, and the reply stream is checked against its
  /// recorded digest.
  bool fixed_store = false;
  double setup_share = 0, campaign_share = 0, report_share = 0,
         query_share = 0;
};

const Workload* find_workload(const std::string& name);

// --- clocks ------------------------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double cpu_s();         ///< process CPU time (all threads)
double peak_rss_mb();   ///< peak resident set of this process
double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0,1]) of a sample vector.
double percentile(std::vector<double> v, double q);

/// Effective cores right now: nproc x (1-spinner time / nproc-spinner
/// time) over fixed work.  ~nproc on an idle host, ~1 on a starved one.
double host_parallel_capacity();

/// Seconds of a fixed piece of the benchmark's own single-threaded work:
/// hash-map inserts and lookups of short strings, then a sort of 2000
/// strings.  It uses no library code, and its time moves with the host's
/// allocator, cache and memory speed as the single-threaded phases do.
double calibration_s();

/// Wall seconds of kThreads calibrations started together on their own
/// threads: the same work, plus what the host's parallel capacity costs.
double parallel_calibration_s();

/// The calibration times that define the reference host speed, at which
/// the timed run reports every time (timed.cpp).
inline constexpr double kReferenceCalibrationS = 1e-3;
inline constexpr double kReferenceParallelCalibrationS = 2e-3;

// --- inputs ------------------------------------------------------------------

std::string read_file(const std::string& path);

/// The workload's grid: the committed spec file, its reference salt, and
/// the salt this run uses.
struct Grid {
  std::string spec_path;
  std::uint64_t reference_salt = 0;
  std::uint64_t salt = 0;
  int seeds_override = 0;  ///< >0 replaces the spec's seeds (tiny scale)
};

Grid make_grid(const Workload& w, const Options& o);

/// Read + parse the spec file and apply the run's salt / scale.  This is
/// the spec-parse layer call both setup_s and campaign_s start with.
dring::core::CampaignSpec load_campaign(const Grid& grid,
                                        std::uint64_t salt);

/// Worker threads of every 4-thread campaign and sweep.
inline constexpr int kThreads = 4;

struct CampaignRun {
  double wall = 0, cpu = 0;
};

/// The campaign_s interval: spec file read -> run_campaign returns with
/// the store fsynced and renamed into place.
CampaignRun timed_campaign(const Grid& grid, std::uint64_t salt,
                           const std::string& store, int threads);

// --- request mix -------------------------------------------------------------

enum class RequestKind { Point, Aggregate, Frontier };

struct Request {
  RequestKind kind = RequestKind::Point;
  std::string line;     ///< the request line sent to handle_query_line
  std::uint64_t fp = 0; ///< Point: the fingerprint asked for
  bool stored = false;  ///< Point: whether fp is in the store
  int combo = 0;        ///< Aggregate/Frontier: index into report_combos()
};

/// Seeded closed-loop request generator: 90% point lookups (half stored
/// fingerprints, half absent ones), 8% aggregates (group_by from a fixed
/// list of 4, metric from the 3 metrics, md output), 2% frontiers over
/// axis n.  The proportions are exact over every 100 requests, so the
/// seed moves the order and the keys but not the mix.  The same seed and
/// store give the same request sequence.
class RequestMix {
 public:
  RequestMix(std::vector<std::uint64_t> stored_fps, std::uint64_t seed);
  Request next();

 private:
  std::uint64_t draw();
  /// Next card of `deck`, reshuffling a copy of `fresh` when it runs out.
  int deal(std::vector<int>& deck, std::size_t& at,
           const std::vector<int>& fresh);

  std::vector<std::uint64_t> stored_;
  std::vector<std::uint64_t> sorted_;  ///< for absent-fingerprint rejection
  std::uint64_t state_;
  std::vector<int> kinds_, stored_deck_, combos_;
  std::size_t kinds_at_ = 0, stored_at_ = 0, combos_at_ = 0;
};

/// The aggregate/frontier requests the mix can draw: 12 aggregate combos
/// (4 group-bys x 3 metrics) followed by the frontier combo.
struct ReportCombo {
  bool frontier = false;
  std::vector<std::string> group_by;
  std::string metric;  ///< aggregate only
};
const std::vector<ReportCombo>& report_combos();

// --- output checks -----------------------------------------------------------

/// 64-bit FNV-1a, the digest used for stores and response streams.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 14695981039346656037ULL);

/// FNV-1a of a store's row lines.  The provenance header (it names the
/// compiler) is compared with this build's instead of digested, so the
/// digest is stable across toolchains; 0 when the header does not match.
std::uint64_t store_row_digest(const std::string& store_bytes);

/// Reference digests recorded in reference.json.
struct References {
  std::map<std::string, std::uint64_t> stores;  ///< "<grid>/<scale>"
  std::map<std::string, std::uint64_t> streams; ///< "<scale>"
  std::uint64_t stream_seed = 0;
  std::map<std::string, int> stream_requests;   ///< "<scale>"
};
References load_references(const std::string& bench_dir);

/// Whether the store file's row digest is `expected` (logs a mismatch).
/// With Options::corrupt_store one byte is flipped before digesting.
bool store_matches(const Options& o, const std::string& path,
                   std::uint64_t expected);

/// Run the workload's grid at its reference salt and check the store
/// against reference.json; returns the reference digest.
std::uint64_t check_reference_store(const Workload& w, const Grid& grid,
                                    const Options& o, const References& refs,
                                    Tally& tally);

/// Oracle for query responses over one store, built from the store file's
/// raw bytes and the batch (non-cache) analysis path.
class ResponseOracle {
 public:
  ResponseOracle(const std::string& store_bytes,
                 const std::vector<dring::core::CampaignRow>& rows);
  /// Whether `response` (a dumped handle_query_line reply) is the right
  /// answer to `request`.
  bool check(const Request& request, const std::string& response) const;
  std::vector<std::uint64_t> stored_fingerprints() const;

 private:
  std::string bytes_;
  std::unordered_map<std::uint64_t, std::string_view> lines_;
  std::vector<std::string> expected_reports_;  ///< JSON-escaped, per combo
};

/// Run the dring_report tool on `store` with the benchmark's report
/// settings (group-by algorithm,n, metric explored_round) and return its
/// stdout; empty on failure.
std::string reference_report(const Options& o, const std::string& store);

/// The in-process report: load_result_stores + aggregate_rows +
/// render_aggregate_report, the cold path of dring_report.
std::string render_report(const std::string& store);

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
};

Result run_timed(const Workload& w, const Options& o);
Result run_traced(const Workload& w, const Options& o);

/// Log a line to stderr, prefixed with the benchmark's name.
void note(const std::string& message);

}  // namespace bench
