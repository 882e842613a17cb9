#include "core/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <stdexcept>
#include <unordered_set>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "core/query.hpp"
#include "core/telemetry.hpp"
#include "core/version.hpp"
#include "util/fingerprint.hpp"

namespace dring::core {

// --- provenance ----------------------------------------------------------------

StoreProvenance current_provenance() {
  StoreProvenance provenance;
  provenance.engine = engine_version();
  provenance.build = build_flags_hash();
  provenance.schema = kStoreSchemaVersion;
  return provenance;
}

util::Json to_json(const StoreProvenance& provenance) {
  util::Json inner;
  inner.set("engine", provenance.engine);
  inner.set("build", provenance.build);
  inner.set("schema", provenance.schema);
  util::Json j;
  // The wrapper key "dring" doubles as the header marker AND keeps the
  // header line first under a plain byte sort ("dring" < "fp").
  j.set("dring", std::move(inner));
  return j;
}

StoreProvenance provenance_from_json(const util::Json& j) {
  const util::Json& inner = j.at("dring");
  StoreProvenance provenance;
  provenance.engine = inner.get_string("engine", "");
  provenance.build = inner.get_string("build", "");
  provenance.schema = inner.get_int("schema", 0);
  return provenance;
}

std::string provenance_line(const StoreProvenance& provenance) {
  return to_json(provenance).dump();
}

std::string describe(const StoreProvenance& provenance) {
  return provenance.engine + " (build " + provenance.build + ", schema v" +
         std::to_string(provenance.schema) + ")";
}

CampaignOutcome outcome_of(const sim::RunResult& r) {
  CampaignOutcome o;
  o.explored = r.explored;
  o.explored_round = r.explored_round;
  o.rounds = r.rounds;
  o.total_moves = r.total_moves;
  o.terminated_agents = r.terminated_agents;
  o.all_terminated = r.all_terminated;
  o.premature_termination = r.premature_termination;
  o.fairness_interventions = r.fairness_interventions;
  o.violations = static_cast<int>(r.violations.size());
  for (const sim::AgentResult& a : r.agents)
    o.last_termination = std::max(o.last_termination, a.termination_round);
  o.stop_reason = r.stop_reason;
  return o;
}

util::Json to_json(const CampaignRow& row) {
  util::Json result;
  result.set("explored", row.outcome.explored);
  result.set("explored_round",
             static_cast<long long>(row.outcome.explored_round));
  result.set("rounds", static_cast<long long>(row.outcome.rounds));
  result.set("total_moves", row.outcome.total_moves);
  result.set("terminated_agents",
             static_cast<long long>(row.outcome.terminated_agents));
  result.set("all_terminated", row.outcome.all_terminated);
  result.set("premature", row.outcome.premature_termination);
  result.set("fairness_interventions", row.outcome.fairness_interventions);
  result.set("violations", static_cast<long long>(row.outcome.violations));
  result.set("last_termination",
             static_cast<long long>(row.outcome.last_termination));
  result.set("stop_reason", row.outcome.stop_reason);
  if (!row.outcome.extra.empty()) {
    util::Json extra;
    for (const auto& [key, value] : row.outcome.extra) extra.set(key, value);
    result.set("extra", std::move(extra));
  }
  if (!row.outcome.extra_text.empty()) {
    util::Json extra_text;
    for (const auto& [key, value] : row.outcome.extra_text)
      extra_text.set(key, value);
    result.set("extra_text", std::move(extra_text));
  }

  util::Json j;
  j.set("fp", hex_u64(row.fingerprint));
  j.set("result", std::move(result));
  j.set("spec", to_json(row.spec));
  j.set("v", kStoreSchemaVersion);
  return j;
}

CampaignRow campaign_row_from_json(const util::Json& j) {
  const long long version = j.get_int("v", 1);
  if (version != kStoreSchemaVersion)
    throw std::invalid_argument(
        "row schema version " + std::to_string(version) +
        ", this build reads version " + std::to_string(kStoreSchemaVersion) +
        " (re-run the campaign/artifact with this build to regenerate the "
        "store)");
  CampaignRow row;
  row.fingerprint = util::parse_hex_u64(j.at("fp").as_string());
  row.spec = scenario_spec_from_json(j.at("spec"));
  const util::Json& r = j.at("result");
  row.outcome.explored = r.get_bool("explored", false);
  row.outcome.explored_round = r.get_int("explored_round", -1);
  row.outcome.rounds = r.get_int("rounds", 0);
  row.outcome.total_moves = r.get_int("total_moves", 0);
  row.outcome.terminated_agents =
      static_cast<int>(r.get_int("terminated_agents", 0));
  row.outcome.all_terminated = r.get_bool("all_terminated", false);
  row.outcome.premature_termination = r.get_bool("premature", false);
  row.outcome.fairness_interventions = r.get_int("fairness_interventions", 0);
  row.outcome.violations = static_cast<int>(r.get_int("violations", 0));
  row.outcome.last_termination = r.get_int("last_termination", -1);
  row.outcome.stop_reason = r.get_string("stop_reason", "");
  if (r.has("extra"))
    for (const auto& [key, value] : r.at("extra").as_object())
      row.outcome.extra[key] = value.as_int();
  if (r.has("extra_text"))
    for (const auto& [key, value] : r.at("extra_text").as_object())
      row.outcome.extra_text[key] = value.as_string();
  return row;
}

std::string row_line(const CampaignRow& row) { return to_json(row).dump(); }

namespace {

/// The head of a line, for parse diagnostics — enough to recognize the row
/// (the fixed-width fingerprint sits in the first bytes) without dumping a
/// whole 500-byte row into the error.
std::string line_snippet(const std::string& line) {
  constexpr std::size_t kMax = 72;
  if (line.size() <= kMax) return "\"" + line + "\"";
  return "\"" + line.substr(0, kMax) + "\"...";
}

}  // namespace

ResultStore read_result_store(std::istream& in, StoreReadRecovery* recovery) {
  // Slurp the lines up front: the torn-tail tolerance below needs to know
  // whether a malformed line is the LAST content of the stream (a benign
  // interrupted write) or mid-file (corruption, always fatal).
  std::vector<std::string> lines;
  {
    std::string text;
    while (std::getline(in, text)) lines.push_back(std::move(text));
  }
  std::size_t last_content = 0;  // 1-based line number of the last non-empty line
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (!lines[i].empty()) last_content = i + 1;

  ResultStore store;
  store.provenance = current_provenance();  // empty streams read as fresh
  bool saw_header = false;
  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    const std::size_t line_no = idx + 1;
    const std::string& line = lines[idx];
    if (line.empty()) continue;
    bool parsed = false;
    try {
      const util::Json j = util::Json::parse(line);
      parsed = true;
      if (j.has("dring")) {
        // The provenance header.  Exactly one, and it must come first —
        // a header in the middle means two stores were concatenated by
        // hand instead of merged.
        if (saw_header)
          throw std::invalid_argument(
              "second provenance header (stores must be combined with "
              "--merge, not concatenated)");
        if (!store.rows.empty())
          throw std::invalid_argument(
              "provenance header after rows (corrupt store)");
        store.provenance = provenance_from_json(j);
        if (store.provenance.schema != kStoreSchemaVersion)
          throw std::invalid_argument(
              "store provenance says schema v" +
              std::to_string(store.provenance.schema) +
              ", this build reads v" + std::to_string(kStoreSchemaVersion) +
              " (re-run the campaign/artifact with this build to "
              "regenerate the store)");
        saw_header = true;
        continue;
      }
      if (!saw_header) {
        // Rows before any header: a pre-v4 store.  Name the version the
        // rows claim so the fix is obvious.
        const long long version = j.get_int("v", 1);
        throw std::invalid_argument(
            "store schema version " + std::to_string(version) +
            " (no provenance header), this build reads version " +
            std::to_string(kStoreSchemaVersion) +
            " stores, which begin with a {\"dring\":...} provenance line "
            "(re-run the campaign/artifact with this build to regenerate "
            "the store)");
      }
      store.rows.push_back(campaign_row_from_json(j));
    } catch (const std::exception& e) {
      // An unparseable LAST line after a valid header is the signature of
      // an interrupted write (truncated copy, full disk, injected `trunc`
      // fault): in lenient mode drop that one row — its cell simply
      // re-runs on resume — instead of condemning the whole store.
      // Anything malformed earlier — or a line that parses but carries a
      // semantic problem (wrong schema, stray header) — is real
      // corruption and always throws.
      if (!parsed && recovery && saw_header && line_no == last_content) {
        recovery->dropped_partial = true;
        recovery->line_no = line_no;
        recovery->snippet = line_snippet(line);
        break;
      }
      throw std::invalid_argument("result store line " +
                                  std::to_string(line_no) + " " +
                                  line_snippet(line) + ": " + e.what());
    }
  }
  return store;
}

ResultStore read_result_store_file(const std::string& path,
                                   StoreReadRecovery* recovery) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open result store: " + path);
  try {
    return read_result_store(in, recovery);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void sort_canonical(std::vector<CampaignRow>& rows) {
  // Line order == fingerprint order (every line starts with the
  // fixed-width fingerprint hex); comparing the integer first avoids
  // re-serializing rows except for ties (duplicate fingerprints in a
  // hand-concatenated store), which fall back to the full line so the
  // order stays total.
  std::sort(rows.begin(), rows.end(),
            [](const CampaignRow& a, const CampaignRow& b) {
              if (a.fingerprint != b.fingerprint)
                return a.fingerprint < b.fingerprint;
              return row_line(a) < row_line(b);
            });
}

namespace {

/// fsync a path (file or directory).  Durability half of the crash-safe
/// write: the rename is atomic on its own, but without the fsync a power
/// loss can surface the new name with missing bytes.  Best-effort on
/// filesystems that reject fsync on directories.
void sync_path(const std::string& path, bool directory) {
#ifdef __unix__
  const int fd =
      ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
  (void)directory;
#endif
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace

void write_result_store(const std::string& path, ResultStore store) {
  sort_canonical(store.rows);
  // Unique per process: two writers racing on one path (a speculative
  // re-dispatch of the same idempotent shard) each stage their own tmp
  // file, and whichever renames last wins with complete bytes.
#ifdef __unix__
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
#else
  const std::string tmp = path + ".tmp";
#endif
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write result store: " + tmp);
    out << provenance_line(store.provenance) << '\n';
    for (const CampaignRow& row : store.rows) out << row_line(row) << '\n';
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("write failed for result store: " + tmp);
    }
  }
  sync_path(tmp, /*directory=*/false);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot move " + tmp + " to " + path);
  }
  sync_path(parent_dir(path), /*directory=*/true);
}

void write_result_store(const std::string& path,
                        std::vector<CampaignRow> rows) {
  ResultStore store;
  store.provenance = current_provenance();
  store.rows = std::move(rows);
  write_result_store(path, std::move(store));
}

namespace {

/// Execute cells on the pool, one run per behaviour.  `cells` index into
/// `specs`, `fingerprints[p]` belongs to cell p, and `rep[p]` is the
/// position of p's representative (rep[p] == p: run it; see
/// behaviour_representatives).  Every other cell copies its
/// representative's outcome, so rows, hooks and progress all count cells:
/// `on_row` fires once per cell, `on_cells_done` reports (cells done,
/// cells total) after each run, and kept rows come back in cell order.
std::vector<CampaignRow> run_cells(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<std::size_t>& cells,
    const std::vector<std::uint64_t>& fingerprints,
    const std::vector<std::size_t>& rep, int threads,
    const std::function<void(const CampaignRow&)>& on_row, bool keep_rows,
    const std::function<void(std::size_t, std::size_t)>& on_cells_done,
    int batch_width) {
  // Task t runs representative first[t]; the cells sharing its run follow
  // it as a list in cell order (next[p], kEnd-terminated; last[r] is the
  // tail of representative r's list while it is built).
  constexpr std::size_t kEnd = static_cast<std::size_t>(-1);
  std::vector<ScenarioTask> tasks;
  std::vector<std::size_t> first;
  std::vector<std::size_t> next(cells.size(), kEnd), last(cells.size());
  for (std::size_t p = 0; p < cells.size(); ++p) {
    if (rep[p] == p) {
      tasks.push_back(to_task(specs[cells[p]]));
      first.push_back(p);
    } else {
      next[last[rep[p]]] = p;
    }
    last[rep[p]] = p;
  }

  // Each RunResult is reduced to its outcome at task completion and
  // dropped.  With `on_row` the rows are built and handed over right
  // there, so a streamed run's memory stays O(workers), not O(cells);
  // otherwise they are built after the sweep, on the calling thread that
  // goes on to write the store.
  const bool streaming = static_cast<bool>(on_row);
  std::vector<CampaignRow> rows(keep_rows ? cells.size() : 0);
  std::vector<CampaignOutcome> outcomes(streaming ? 0 : tasks.size());
  std::size_t cells_done = 0;
  SweepOptions options;
  options.threads = threads;
  options.batch_width = batch_width;
  options.discard_results = true;
  options.on_task_result = [&](std::size_t t, const SweepRun& run) {
    CampaignOutcome outcome = outcome_of(run.result);
    for (std::size_t p = first[t]; p != kEnd; p = next[p]) {
      ++cells_done;
      if (!streaming) continue;
      CampaignRow unkept;
      CampaignRow& row = keep_rows ? rows[p] : unkept;
      row.fingerprint = fingerprints[p];
      row.spec = specs[cells[p]];
      row.outcome = outcome;
      on_row(row);
    }
    if (!streaming) outcomes[t] = std::move(outcome);
  };
  if (on_cells_done)
    options.on_task_done = [&](std::size_t, std::size_t) {
      on_cells_done(cells_done, cells.size());
    };
  run_sweep_runs(tasks, options);

  if (!streaming && keep_rows)
    for (std::size_t t = 0; t < tasks.size(); ++t)
      for (std::size_t p = first[t]; p != kEnd; p = next[p]) {
        rows[p].fingerprint = fingerprints[p];
        rows[p].spec = specs[cells[p]];
        rows[p].outcome = outcomes[t];
      }
  return rows;
}

}  // namespace

std::vector<CampaignRow> run_scenarios(
    const std::vector<ScenarioSpec>& specs, int threads,
    const std::function<void(std::size_t, std::size_t)>& on_task_done,
    int batch_width) {
  return run_scenarios_streaming(specs, threads, /*on_row=*/{},
                                 /*keep_rows=*/true, on_task_done,
                                 batch_width);
}

std::vector<CampaignRow> run_scenarios_streaming(
    const std::vector<ScenarioSpec>& specs, int threads,
    const std::function<void(const CampaignRow&)>& on_row, bool keep_rows,
    const std::function<void(std::size_t, std::size_t)>& on_task_done,
    int batch_width) {
  // Per spec, no behaviour sharing: every spec is its own representative.
  std::vector<std::size_t> cells(specs.size());
  std::vector<std::uint64_t> fingerprints(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cells[i] = i;
    fingerprints[i] = fingerprint(specs[i]);
  }
  return run_cells(specs, cells, fingerprints, /*rep=*/cells, threads, on_row,
                   keep_rows, on_task_done, batch_width);
}

std::vector<std::size_t> shard_filter(
    const std::vector<std::uint64_t>& fingerprints, int index, int count) {
  if (count < 1 || index < 0 || index >= count)
    throw std::invalid_argument("bad shard " + std::to_string(index) + "/" +
                                std::to_string(count));
  std::vector<std::size_t> mine;
  mine.reserve(count == 1 ? fingerprints.size() : 0);
  for (std::size_t i = 0; i < fingerprints.size(); ++i)
    if (fingerprints[i] % static_cast<std::uint64_t>(count) ==
        static_cast<std::uint64_t>(index))
      mine.push_back(i);
  return mine;
}

StoreRunResult run_with_store(
    const std::vector<std::uint64_t>& fingerprints,
    const std::string& store_path, bool resume,
    const std::function<
        std::vector<CampaignRow>(const std::vector<std::size_t>&)>& execute) {
  const bool with_store = !store_path.empty();
  std::vector<CampaignRow> existing;
  bool had_store_file = false;
  StoreReadRecovery recovery;
  if (resume && with_store) {
    std::ifstream in(store_path);
    if (in) {
      had_store_file = true;
      const long long read_t0 =
          telemetry().enabled() ? telemetry_now_us() : 0;
      // Lenient about a torn trailing row: that cell is simply missing
      // from `existing`, so it re-runs below and the rewrite replaces the
      // fragment with a whole row.
      ResultStore prior = read_result_store(in, &recovery);
      if (telemetry().enabled())
        telemetry()
            .metrics()
            .histogram("campaign.store_read_us", telemetry_time_bounds())
            .observe(telemetry_now_us() - read_t0);
      if (!(prior.provenance == current_provenance()))
        throw std::runtime_error(
            "refusing to resume " + store_path + ": it was written by " +
            describe(prior.provenance) + ", this build is " +
            describe(current_provenance()) +
            " — resuming would blend rows from two engines; start a fresh "
            "store (or compare the two with `dring_report --compare`)");
      existing = std::move(prior.rows);
    }
  }

  StoreRunResult result;
  result.recovery = recovery;
  std::vector<std::size_t> todo;
  if (!existing.empty()) {
    std::unordered_set<std::uint64_t> done;
    for (const CampaignRow& row : existing) done.insert(row.fingerprint);
    for (std::size_t i = 0; i < fingerprints.size(); ++i) {
      if (done.count(fingerprints[i]))
        ++result.skipped;
      else
        todo.push_back(i);
    }
  } else {
    todo.resize(fingerprints.size());
    for (std::size_t i = 0; i < fingerprints.size(); ++i) todo[i] = i;
  }

  result.executed = todo.size();
  result.rows = execute(todo);

  // A fresh run replaces the store; a resume run rewrites it with the
  // union of existing and new rows.  Either way the file ends up in
  // canonical order, so equal row sets mean equal bytes — the property
  // the shard + merge workflow relies on.  When a resume executed
  // nothing against an existing file the store is left untouched; a
  // resume against a *missing* file always materializes the store (header
  // only for a zero-cell shard), so supervisors can treat "worker exited
  // 0 but no store" as a failure instead of a mystery.  A dropped torn
  // row also forces the rewrite even when its cell was the only work.
  const long long write_t0 = telemetry().enabled() ? telemetry_now_us() : 0;
  bool wrote = false;
  if (with_store && !result.rows.empty()) {
    std::vector<CampaignRow> out = existing;
    out.insert(out.end(), result.rows.begin(), result.rows.end());
    write_result_store(store_path, std::move(out));
    wrote = true;
  } else if (with_store &&
             (!resume || !had_store_file || recovery.dropped_partial)) {
    write_result_store(store_path, std::move(existing));
    wrote = true;
  }
  if (wrote && telemetry().enabled())
    telemetry()
        .metrics()
        .histogram("campaign.store_write_us", telemetry_time_bounds())
        .observe(telemetry_now_us() - write_t0);
  return result;
}

CampaignReport run_campaign(const CampaignSpec& campaign,
                            const CampaignOptions& options) {
  const std::vector<ScenarioSpec> all = expand(campaign);
  // The one fingerprint pass: sharding, resume and the rows all reuse it.
  std::vector<std::uint64_t> all_fingerprints;
  all_fingerprints.reserve(all.size());
  for (const ScenarioSpec& spec : all)
    all_fingerprints.push_back(fingerprint(spec));
  const std::vector<std::size_t> mine =
      shard_filter(all_fingerprints, options.shard_index, options.shard_count);
  std::vector<std::uint64_t> fingerprints;
  fingerprints.reserve(mine.size());
  for (const std::size_t i : mine) fingerprints.push_back(all_fingerprints[i]);

  // The heartbeat: rewrite the progress file, counted in cells, after
  // every completed run (and once up front, so a supervisor sees life
  // before the first cell lands).  The write is tiny and atomic enough for its one consumer —
  // dring_orchestrate only looks at the mtime and the "done total" pair.
  const auto beat = [&](std::size_t done, std::size_t total) {
    if (!options.progress_path.empty()) {
      std::ofstream out(options.progress_path, std::ios::trunc);
      out << done << ' ' << total << '\n';
    }
    if (options.on_progress) options.on_progress(done, total);
  };

  const bool telem = telemetry().enabled();
  Telemetry::Span run_span =
      telemetry().span("campaign.run",
                       {{"cells", std::to_string(mine.size())},
                        {"shard", std::to_string(options.shard_index)}});
  const long long run_t0 = telem ? telemetry_now_us() : 0;

  // Streaming: fold rows into the caller's aggregator as they complete.
  // With no store to write, the rows themselves are discarded right after
  // the fold — the run's memory stays O(workers) however large the grid.
  const bool keep_rows = !options.stream || !options.out_path.empty();
  std::function<void(const CampaignRow&)> on_row;
  if (options.stream)
    on_row = [&](const CampaignRow& row) { options.stream->add(row); };

  std::size_t copied = 0;
  StoreRunResult result = run_with_store(
      fingerprints, options.out_path, options.resume,
      [&](const std::vector<std::size_t>& todo) {
        std::vector<std::size_t> cells;
        std::vector<std::uint64_t> cell_fingerprints;
        cells.reserve(todo.size());
        cell_fingerprints.reserve(todo.size());
        for (const std::size_t i : todo) {
          cells.push_back(mine[i]);
          cell_fingerprints.push_back(fingerprints[i]);
        }
        // Seed-free cells share one run: execute one representative per
        // behaviour and copy its outcome into every cell with its key.
        const std::vector<std::size_t> rep =
            behaviour_representatives(all, cells);
        for (std::size_t p = 0; p < rep.size(); ++p)
          if (rep[p] != p) ++copied;
        if (!cells.empty()) beat(0, cells.size());
        return run_cells(all, cells, cell_fingerprints, rep, options.threads,
                         on_row, keep_rows, beat, options.batch_width);
      });

  if (telem) {
    util::MetricsRegistry& m = telemetry().metrics();
    m.counter("campaign.cells_executed").add(
        static_cast<long long>(result.executed));
    m.counter("campaign.cells_copied").add(static_cast<long long>(copied));
    m.counter("campaign.resume_hits").add(
        static_cast<long long>(result.skipped));
    const long long run_us = std::max(1LL, telemetry_now_us() - run_t0);
    m.gauge("campaign.cells_per_sec")
        .set(static_cast<double>(result.executed) * 1e6 /
             static_cast<double>(run_us));
  }

  CampaignReport report;
  report.total = all.size();
  report.sharded_out = all.size() - mine.size();
  report.skipped = result.skipped;
  report.executed = result.executed;
  report.rows = std::move(result.rows);
  report.recovery = result.recovery;
  return report;
}

StoreDiff diff_result_stores(const std::vector<CampaignRow>& a,
                             const std::vector<CampaignRow>& b) {
  // Last row wins per fingerprint (a resumed store never has duplicates,
  // but a hand-concatenated one might).
  std::map<std::uint64_t, CampaignRow> in_a, in_b;
  for (const CampaignRow& row : a) in_a[row.fingerprint] = row;
  for (const CampaignRow& row : b) in_b[row.fingerprint] = row;

  StoreDiff diff;
  for (const auto& [fp, row] : in_a) {
    const auto it = in_b.find(fp);
    if (it == in_b.end()) {
      diff.only_a.push_back(row);
    } else if (row_line(row) != row_line(it->second)) {
      // Any payload difference counts — outcome *or* spec (a spec change
      // under an unchanged fingerprint means the expansion semantics
      // moved underneath the store).
      diff.changed.emplace_back(row, it->second);
    }
  }
  for (const auto& [fp, row] : in_b)
    if (!in_a.count(fp)) diff.only_b.push_back(row);
  return diff;
}

StoreMerge merge_result_stores(std::vector<ResultStore> stores) {
  std::vector<std::vector<CampaignRow>> row_sets;
  row_sets.reserve(stores.size());
  for (ResultStore& store : stores) {
    if (!(store.provenance == stores.front().provenance))
      throw std::runtime_error(
          "refusing to merge stores with different provenance: " +
          describe(stores.front().provenance) + " vs " +
          describe(store.provenance) +
          " — cross-version rows must not blend into one store (compare "
          "them with `dring_report --compare` instead)");
    row_sets.push_back(std::move(store.rows));
  }
  StoreMerge merge = merge_result_stores(row_sets);
  if (!stores.empty()) merge.provenance = stores.front().provenance;
  return merge;
}

StoreMerge merge_result_stores(
    const std::vector<std::vector<CampaignRow>>& stores) {
  StoreMerge merge;
  merge.provenance = current_provenance();
  std::map<std::uint64_t, std::size_t> index;  ///< fp -> position in rows
  for (const std::vector<CampaignRow>& store : stores) {
    for (const CampaignRow& row : store) {
      const auto [it, inserted] =
          index.emplace(row.fingerprint, merge.rows.size());
      if (inserted) {
        merge.rows.push_back(row);
      } else if (row_line(merge.rows[it->second]) != row_line(row)) {
        merge.conflicts.emplace_back(merge.rows[it->second], row);
      }
      // identical duplicate: drop silently (merging a store with itself
      // is the identity)
    }
  }
  sort_canonical(merge.rows);
  return merge;
}

}  // namespace dring::core
