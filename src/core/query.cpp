#include "core/query.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/telemetry.hpp"
#include "util/fingerprint.hpp"

namespace dring::core {

// --- ResultCache -------------------------------------------------------------

ResultCache::ResultCache() {
  store_.provenance = current_provenance();
  build_index();
}

ResultCache::ResultCache(ResultStore store) : store_(std::move(store)) {
  build_index();
}

ResultCache::ResultCache(ResultStore store,
                         std::vector<std::filesystem::path> store_dirs)
    : store_(std::move(store)), store_dirs_(std::move(store_dirs)) {
  build_index();
}

ResultCache ResultCache::load(const std::vector<std::string>& paths) {
  std::vector<std::filesystem::path> dirs;
  for (const std::string& path : paths) {
    std::error_code ec;
    const std::filesystem::path resolved =
        std::filesystem::weakly_canonical(path, ec);
    if (!ec) dirs.push_back(resolved.parent_path());
  }
  return ResultCache(load_result_stores(paths), std::move(dirs));
}

void ResultCache::build_index() {
  sort_canonical(store_.rows);
  // Power-of-two capacity at >= 2x the row count keeps the load factor
  // at or below 0.5, so linear probing stays short and the probe loop
  // always terminates on an empty slot.
  std::size_t capacity = 16;
  while (capacity < store_.rows.size() * 2) capacity <<= 1;
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  for (std::uint32_t i = 0; i < store_.rows.size(); ++i) {
    std::uint64_t h = store_.rows[i].fingerprint & mask_;
    while (slots_[h] != 0) h = (h + 1) & mask_;
    slots_[h] = i + 1;
  }
}

const CampaignRow* ResultCache::find(std::uint64_t fingerprint) const {
  const CampaignRow* hit = nullptr;
  for (std::uint64_t h = fingerprint & mask_;; h = (h + 1) & mask_) {
    const std::uint32_t slot = slots_[h];
    if (slot == 0) break;
    if (store_.rows[slot - 1].fingerprint == fingerprint) {
      hit = &store_.rows[slot - 1];
      break;
    }
  }
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  if (telemetry().enabled())
    telemetry()
        .metrics()
        .counter(hit ? "query.cache.hits" : "query.cache.misses")
        .add(1);
  return hit;
}

ResultCache::Stats ResultCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed)};
}

const std::vector<std::string>& ResultCache::column_locked(
    const std::string& axis) const {
  const auto it = columns_.find(axis);
  if (it != columns_.end()) return it->second;
  std::vector<std::string> column;
  column.reserve(store_.rows.size());
  for (const CampaignRow& row : store_.rows)
    column.push_back(axis_value(row, axis));
  return columns_.emplace(axis, std::move(column)).first->second;
}

const std::vector<std::string>& ResultCache::axis_column(
    const std::string& axis) const {
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  return column_locked(axis);
}

const std::vector<ResultCache::AxisBucket>& ResultCache::axis_buckets(
    const std::string& axis) const {
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  const auto it = buckets_.find(axis);
  if (it != buckets_.end()) return it->second;
  const std::vector<std::string>& column = column_locked(axis);
  std::map<std::string, std::vector<std::uint32_t>> by_value;
  for (std::uint32_t i = 0; i < column.size(); ++i)
    by_value[column[i]].push_back(i);
  std::vector<AxisBucket> buckets;
  buckets.reserve(by_value.size());
  for (auto& [value, rows] : by_value)
    buckets.push_back({value, std::move(rows)});
  // The batch path's numeric-aware group order, so a bucket walk IS the
  // report row order.
  const std::vector<bool> numeric = {axis_is_numeric(axis)};
  std::sort(buckets.begin(), buckets.end(),
            [&numeric](const AxisBucket& a, const AxisBucket& b) {
              return group_key_less({a.value}, {b.value}, numeric);
            });
  return buckets_.emplace(axis, std::move(buckets)).first->second;
}

std::vector<GroupRow> ResultCache::aggregate(
    const std::vector<std::string>& group_keys, Metric metric) const {
  std::vector<std::string> axes;
  axes.reserve(group_keys.size());
  for (const std::string& key : group_keys)
    axes.push_back(canonical_axis(key));

  std::vector<GroupRow> result;
  if (axes.empty()) {
    std::vector<const CampaignRow*> members;
    members.reserve(store_.rows.size());
    for (const CampaignRow& row : store_.rows) members.push_back(&row);
    result.push_back({{}, fold_rows(members, metric)});
    return result;
  }

  if (axes.size() == 1) {
    // Fast path: the pre-bucketed axis index already holds the groups in
    // report order; no per-row key materialization at all.
    for (const AxisBucket& bucket : axis_buckets(axes.front())) {
      std::vector<const CampaignRow*> members;
      members.reserve(bucket.rows.size());
      for (const std::uint32_t i : bucket.rows)
        members.push_back(&store_.rows[i]);
      result.push_back({{bucket.value}, fold_rows(members, metric)});
    }
    return result;
  }

  // Multi-axis: composite keys from the cached per-axis columns (member
  // order stays ascending row index = canonical store order, matching
  // the batch path's iteration order).
  std::vector<const std::vector<std::string>*> columns;
  columns.reserve(axes.size());
  for (const std::string& axis : axes) columns.push_back(&axis_column(axis));
  std::map<std::vector<std::string>, std::vector<const CampaignRow*>> groups;
  for (std::size_t i = 0; i < store_.rows.size(); ++i) {
    std::vector<std::string> key;
    key.reserve(axes.size());
    for (const auto* column : columns) key.push_back((*column)[i]);
    groups[std::move(key)].push_back(&store_.rows[i]);
  }
  std::vector<bool> numeric;
  numeric.reserve(axes.size());
  for (const std::string& axis : axes) numeric.push_back(axis_is_numeric(axis));
  std::vector<std::pair<std::vector<std::string>,
                        std::vector<const CampaignRow*>>>
      ordered(groups.begin(), groups.end());
  std::sort(ordered.begin(), ordered.end(),
            [&numeric](const auto& a, const auto& b) {
              return group_key_less(a.first, b.first, numeric);
            });
  for (auto& [key, members] : ordered)
    result.push_back({std::move(key), fold_rows(members, metric)});
  return result;
}

std::vector<FrontierGroup> ResultCache::frontier(
    const std::vector<std::string>& group_keys, const std::string& axis,
    double threshold) const {
  // The frontier scan is already a single pass over in-memory rows; the
  // cache's win is holding those rows parsed.  Delegating keeps the
  // byte-identity with the batch path trivially true.
  return detect_frontier(store_.rows, group_keys, axis, threshold);
}

std::string ResultCache::store_bytes() const {
  std::string out = provenance_line(store_.provenance) + "\n";
  for (const CampaignRow& row : store_.rows) out += row_line(row) + "\n";
  return out;
}

ResultCache::CellScan ResultCache::scan_cells(
    const std::vector<ScenarioSpec>& specs, int shard_count) const {
  if (shard_count < 1)
    throw std::invalid_argument("scan_cells: shard_count must be >= 1");
  CellScan scan;
  std::set<int> shards;
  for (const ScenarioSpec& spec : specs) {
    const std::uint64_t fp = fingerprint(spec);
    if (const CampaignRow* row = find(fp)) {
      scan.present.push_back(row);
    } else {
      scan.missing.push_back(fp);
      shards.insert(static_cast<int>(fp % static_cast<std::uint64_t>(
                                              shard_count)));
    }
  }
  scan.missing_shards.assign(shards.begin(), shards.end());
  return scan;
}

// --- streaming aggregation ---------------------------------------------------

const std::vector<long long>& streaming_quantile_bounds() {
  static const std::vector<long long> bounds = [] {
    std::vector<long long> b{0};
    for (long long v = 1; v <= (1LL << 40); v <<= 1) b.push_back(v);
    return b;
  }();
  return bounds;
}

double sketch_quantile(const std::vector<long long>& bounds,
                       const std::vector<long long>& counts, long long count,
                       double q) {
  if (count <= 0) return 0.0;
  // The estimated value of the sample at an integer rank (0-based,
  // ascending): find its bucket and spread the bucket's mass linearly
  // over the bucket's value range.
  const auto value_at = [&](long long rank) -> double {
    long long cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (rank < cumulative + counts[i]) {
        double lo, hi;
        if (i == 0) {
          lo = hi = static_cast<double>(bounds.front());
        } else if (i < bounds.size()) {
          lo = static_cast<double>(bounds[i - 1]) + 1.0;
          hi = static_cast<double>(bounds[i]);
        } else {
          // Overflow bucket: clamp to the ladder top.
          lo = hi = static_cast<double>(bounds.back());
        }
        if (counts[i] <= 1) return (lo + hi) / 2.0;
        const double frac = static_cast<double>(rank - cumulative) /
                            static_cast<double>(counts[i] - 1);
        return lo + frac * (hi - lo);
      }
      cumulative += counts[i];
    }
    return static_cast<double>(bounds.back());
  };
  const double pos = q * static_cast<double>(count - 1);
  const long long lo_rank = static_cast<long long>(pos);
  const long long hi_rank = std::min(lo_rank + 1, count - 1);
  const double frac = pos - static_cast<double>(lo_rank);
  const double lo = value_at(lo_rank);
  return lo + frac * (value_at(hi_rank) - lo);
}

StreamingAggregator::StreamingAggregator(
    const std::vector<std::string>& group_keys, Metric metric)
    : metric_(metric) {
  group_keys_.reserve(group_keys.size());
  for (const std::string& key : group_keys)
    group_keys_.push_back(canonical_axis(key));
}

void StreamingAggregator::add(const CampaignRow& row) {
  std::vector<std::string> key;
  key.reserve(group_keys_.size());
  for (const std::string& axis : group_keys_)
    key.push_back(axis_value(row, axis));
  Cell& cell = cells_[std::move(key)];

  cell.runs += 1;
  if (row_success(row)) cell.successes += 1;
  if (row.outcome.premature_termination) cell.premature += 1;
  cell.violations += row.outcome.violations;
  if (const std::optional<double> s = metric_sample(row, metric_)) {
    if (cell.samples == 0) {
      cell.min = *s;
      cell.max = *s;
    } else {
      cell.min = std::min(cell.min, *s);
      cell.max = std::max(cell.max, *s);
    }
    cell.samples += 1;
    // Metric samples are integral-valued, so these sums are exact (up to
    // 2^53) for ANY arrival order — that is what makes the streaming
    // mean/min/max bit-identical to the batch fold.
    cell.sum += *s;
    cell.sum_sq += *s * *s;
    const std::vector<long long>& bounds = streaming_quantile_bounds();
    if (cell.bucket_counts.empty())
      cell.bucket_counts.assign(bounds.size() + 1, 0);
    const long long v = static_cast<long long>(*s);
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
    const std::size_t idx =
        it == bounds.end() ? bounds.size()
                           : static_cast<std::size_t>(it - bounds.begin());
    cell.bucket_counts[idx] += 1;
  }
  folded_ += 1;
}

void StreamingAggregator::add(const ScenarioSpec& spec,
                              const CampaignOutcome& outcome) {
  CampaignRow row;
  row.spec = spec;
  row.outcome = outcome;
  add(row);
}

void StreamingAggregator::merge(const StreamingAggregator& other) {
  if (other.group_keys_ != group_keys_ || other.metric_ != metric_)
    throw std::invalid_argument(
        "StreamingAggregator::merge: mismatched group keys or metric");
  for (const auto& [key, theirs] : other.cells_) {
    Cell& mine = cells_[key];
    if (theirs.samples > 0) {
      if (mine.samples == 0) {
        mine.min = theirs.min;
        mine.max = theirs.max;
      } else {
        mine.min = std::min(mine.min, theirs.min);
        mine.max = std::max(mine.max, theirs.max);
      }
      if (mine.bucket_counts.empty()) {
        mine.bucket_counts = theirs.bucket_counts;
      } else {
        for (std::size_t i = 0; i < mine.bucket_counts.size(); ++i)
          mine.bucket_counts[i] += theirs.bucket_counts[i];
      }
    }
    mine.runs += theirs.runs;
    mine.successes += theirs.successes;
    mine.premature += theirs.premature;
    mine.violations += theirs.violations;
    mine.samples += theirs.samples;
    mine.sum += theirs.sum;
    mine.sum_sq += theirs.sum_sq;
  }
  folded_ += other.folded_;
}

std::vector<GroupRow> StreamingAggregator::finish() const {
  std::vector<bool> numeric;
  numeric.reserve(group_keys_.size());
  for (const std::string& axis : group_keys_)
    numeric.push_back(axis_is_numeric(axis));
  const std::vector<long long>& bounds = streaming_quantile_bounds();

  std::vector<GroupRow> out;
  out.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) {
    Aggregate agg;
    agg.runs = cell.runs;
    agg.successes = cell.successes;
    agg.premature = cell.premature;
    agg.violations = cell.violations;
    agg.rate_ci = wilson_interval(cell.successes, cell.runs);
    agg.samples = static_cast<int>(cell.samples);
    if (cell.samples > 0) {
      agg.min = cell.min;
      agg.max = cell.max;
      agg.mean = cell.sum / static_cast<double>(cell.samples);
      agg.median = sketch_quantile(bounds, cell.bucket_counts, cell.samples,
                                   0.5);
      agg.p95 = sketch_quantile(bounds, cell.bucket_counts, cell.samples,
                                0.95);
      const double var =
          cell.sum_sq / static_cast<double>(cell.samples) -
          agg.mean * agg.mean;
      agg.stddev = std::sqrt(std::max(0.0, var));
    }
    out.push_back({key, agg});
  }
  std::sort(out.begin(), out.end(),
            [&numeric](const GroupRow& a, const GroupRow& b) {
              return group_key_less(a.key, b.key, numeric);
            });
  return out;
}

std::string StreamingAggregator::render(ReportFormat format) const {
  std::string out =
      render_aggregate_report(finish(), group_keys_, metric_, format);
  if (format == ReportFormat::Markdown)
    out = "Streaming fold over " + std::to_string(folded_) +
          " rows: median/p95 are fixed-bucket sketch estimates, sd from "
          "running moments; all other columns are exact.\n" +
          out;
  return out;
}

// --- query protocol ----------------------------------------------------------

util::Json missing_cell_manifest(const std::string& campaign_name,
                                 const std::string& spec_path, int shards,
                                 const ResultCache::CellScan& scan) {
  util::Json missing{util::Json::Array{}};
  for (const int shard : scan.missing_shards)
    missing.as_array().push_back(shard);
  util::Json cells{util::Json::Array{}};
  for (const std::uint64_t fp : scan.missing)
    cells.as_array().push_back(hex_u64(fp));
  util::Json j;
  j.set("campaign", campaign_name);
  j.set("spec", spec_path);
  j.set("shards", static_cast<long long>(shards));
  j.set("present", static_cast<long long>(scan.present.size()));
  j.set("missing", std::move(missing));
  j.set("missing_cells", std::move(cells));
  // The exact command that fills the holes, mirroring the orchestrator's
  // run manifest: a missing-cell answer IS a work order.
  if (!scan.missing.empty())
    j.set("resume_hint", "dring_orchestrate --spec " + spec_path +
                             " --shards " + std::to_string(shards) +
                             " --resume fills exactly these cells");
  return j;
}

namespace {

/// A key that is either an array of strings or a comma-separated string
/// (the dring_report --group-by form), absent = empty.
std::vector<std::string> string_list(const util::Json& request,
                                     const char* key) {
  std::vector<std::string> out;
  if (!request.has(key)) return out;
  const util::Json& value = request.at(key);
  if (value.is_array()) {
    for (const util::Json& item : value.as_array())
      out.push_back(item.as_string());
    return out;
  }
  const std::string& text = value.as_string();
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string token =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Whether `path` resolves (symlinks followed) inside one of the
/// directories the cache's stores were loaded from.
bool inside_store_dirs(const ResultCache& cache, const std::string& path) {
  std::error_code ec;
  const std::filesystem::path resolved =
      std::filesystem::weakly_canonical(path, ec);
  if (ec) return false;
  for (const std::filesystem::path& dir : cache.store_dirs()) {
    const auto [d, r] =
        std::mismatch(dir.begin(), dir.end(), resolved.begin(), resolved.end());
    if (d == dir.end() && r != resolved.end()) return true;
  }
  return false;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

util::Json dispatch(const ResultCache& cache, const util::Json& request,
                    const std::string& op) {
  if (!request.is_object())
    throw std::invalid_argument("request must be a JSON object");
  if (op.empty())
    throw std::invalid_argument(
        "request needs an \"op\" member "
        "(aggregate, frontier, compare, point, cells, stats)");
  const ReportFormat format =
      report_format_from_string(request.get_string("format", "md"));
  const Metric metric =
      metric_from_string(request.get_string("metric", "explored_round"));
  util::Json out;

  if (op == "aggregate") {
    const std::vector<std::string> keys = string_list(request, "group_by");
    const std::vector<GroupRow> groups = cache.aggregate(keys, metric);
    out.set("groups", static_cast<long long>(groups.size()));
    out.set("report",
            render_aggregate_report(groups, keys, metric, format));
    return out;
  }

  if (op == "frontier") {
    const std::vector<std::string> keys = string_list(request, "group_by");
    const std::string axis = request.get_string("axis", "");
    if (axis.empty())
      throw std::invalid_argument("frontier needs an \"axis\" member");
    const double threshold = request.get_double("threshold", 0.5);
    const std::vector<FrontierGroup> groups =
        cache.frontier(keys, axis, threshold);
    out.set("groups", static_cast<long long>(groups.size()));
    out.set("report", render_frontier_report(groups, keys, axis, threshold,
                                             format));
    return out;
  }

  if (op == "compare") {
    const std::vector<std::string> paths = string_list(request, "store");
    if (paths.empty())
      throw std::invalid_argument(
          "compare needs \"store\": path(s) to the B side");
    // The B side must sit next to the served stores: a query line must
    // not be able to open (and quote) any file the server can read.
    for (const std::string& path : paths)
      if (!inside_store_dirs(cache, path))
        throw std::invalid_argument(
            "compare: " + path +
            " is outside the served store directory (compare only opens "
            "stores beside the served ones)");
    ResultStore b;
    try {
      b = load_result_stores(paths);
    } catch (const std::exception&) {
      // Name the path, never the file's bytes.
      std::string names;
      for (const std::string& path : paths)
        names += (names.empty() ? "" : ", ") + path;
      throw std::invalid_argument("compare: cannot load " + names +
                                  " as a result store of this build");
    }
    PairedComparison cmp = paired_compare(cache.rows(), b.rows, metric);
    cmp.provenance_a = describe(cache.provenance());
    cmp.provenance_b = describe(b.provenance);
    out.set("common", static_cast<long long>(cmp.common));
    out.set("report", render_paired_report(cmp, metric, format));
    return out;
  }

  if (op == "point") {
    std::uint64_t fp = 0;
    if (request.has("fp"))
      fp = util::parse_hex_u64(request.at("fp").as_string());
    else if (request.has("spec"))
      fp = fingerprint(scenario_spec_from_json(request.at("spec")));
    else
      throw std::invalid_argument(
          "point needs \"fp\" (hex) or \"spec\" (scenario object)");
    out.set("fp", hex_u64(fp));
    if (const CampaignRow* row = cache.find(fp)) {
      out.set("found", true);
      out.set("row", to_json(*row));
    } else {
      out.set("found", false);
    }
    return out;
  }

  if (op == "cells") {
    CampaignSpec campaign;
    const std::string spec_path = request.get_string("spec_path", "");
    if (!spec_path.empty())
      campaign =
          campaign_spec_from_json(util::Json::parse(read_text_file(spec_path)));
    else if (request.has("spec"))
      campaign = campaign_spec_from_json(request.at("spec"));
    else
      throw std::invalid_argument(
          "cells needs \"spec_path\" (campaign file) or \"spec\" (inline "
          "campaign object)");
    const int shards = static_cast<int>(request.get_int("shards", 1));
    const std::vector<ScenarioSpec> specs = expand(campaign);
    const ResultCache::CellScan scan = cache.scan_cells(specs, shards);
    out.set("total", static_cast<long long>(specs.size()));
    out.set("present", static_cast<long long>(scan.present.size()));
    out.set("missing_count", static_cast<long long>(scan.missing.size()));
    out.set("manifest",
            missing_cell_manifest(campaign.name, spec_path, shards, scan));
    if (request.has("group_by")) {
      std::vector<CampaignRow> rows;
      rows.reserve(scan.present.size());
      for (const CampaignRow* row : scan.present) rows.push_back(*row);
      const std::vector<std::string> keys = string_list(request, "group_by");
      out.set("report",
              render_aggregate_report(aggregate_rows(rows, keys, metric),
                                      keys, metric, format));
    }
    return out;
  }

  if (op == "stats") {
    out.set("rows", static_cast<long long>(cache.size()));
    out.set("provenance", describe(cache.provenance()));
    const ResultCache::Stats s = cache.stats();
    util::Json lookups;
    lookups.set("hits", s.hits);
    lookups.set("misses", s.misses);
    out.set("lookups", std::move(lookups));
    return out;
  }

  throw std::invalid_argument(
      "unknown op '" + op +
      "' (valid: aggregate, frontier, compare, point, cells, stats)");
}

}  // namespace

util::Json handle_query(const ResultCache& cache, const util::Json& request) {
  const bool telem = telemetry().enabled();
  const long long t0 = telem ? telemetry_now_us() : 0;
  const std::string op =
      request.is_object() ? request.get_string("op", "") : "";
  Telemetry::Span span =
      telemetry().span("query.request", {{"op", op.empty() ? "?" : op}});
  const ResultCache::Stats before = cache.stats();

  util::Json response;
  try {
    response = dispatch(cache, request, op);
    response.set("ok", true);
    response.set("op", op);
  } catch (const std::exception& e) {
    response = util::Json();
    response.set("ok", false);
    if (!op.empty()) response.set("op", op);
    response.set("error", e.what());
  }

  const ResultCache::Stats after = cache.stats();
  util::Json delta;
  delta.set("hits", after.hits - before.hits);
  delta.set("misses", after.misses - before.misses);
  response.set("cache", std::move(delta));
  if (telem)
    telemetry()
        .metrics()
        .histogram("query.latency_us", telemetry_time_bounds())
        .observe(std::max(1LL, telemetry_now_us() - t0));
  return response;
}

util::Json handle_query_line(const ResultCache& cache,
                             const std::string& line) {
  util::Json request;
  try {
    request = util::Json::parse(line);
  } catch (const std::exception& e) {
    util::Json response;
    response.set("ok", false);
    response.set("error", std::string("bad request: ") + e.what());
    return response;
  }
  return handle_query(cache, request);
}

}  // namespace dring::core
