// Campaign driver: expand a declarative campaign spec, run it on the
// worker pool, and persist one JSON line per scenario in the result store.
//
//   dring_campaign --spec examples/campaign_smoke.json \
//       [--out results.jsonl] [--threads N] [--resume] [--dry-run] \
//       [--shard i/m]
//   dring_campaign --merge a.jsonl b.jsonl ... --out merged.jsonl
//   dring_campaign --diff old.jsonl new.jsonl
//
// The store is canonical JSONL (lines sorted by fingerprint): bytes are
// identical for any --threads value and for any shard split.  --shard i/m
// runs only the cells whose fingerprint lands on shard i of m, so a
// campaign can run on m processes/machines; --merge unions the partial
// stores losslessly (conflicting payloads for one fingerprint are an
// error).  Re-running with --resume executes only scenarios whose
// fingerprint is not yet stored, and --diff compares two stores row by
// row (the cross-commit regression workflow), reporting rows present in
// only one store separately from rows whose payload changed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#ifdef __unix__
#include <unistd.h>
#endif

#include "core/campaign.hpp"
#include "core/orchestrate.hpp"
#include "core/query.hpp"
#include "core/telemetry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <optional>

namespace {

using namespace dring;

util::FlagTable flag_table() {
  util::FlagTable flags("dring_campaign",
                        "expand and run declarative scenario campaigns into "
                        "canonical JSONL result stores");
  flags.synopsis("dring_campaign --spec campaign.json [--out s.jsonl]"
                 " [--threads N] [--resume] [--dry-run] [--shard i/m]")
      .synopsis("dring_campaign --merge a.jsonl b.jsonl ... --out merged.jsonl")
      .synopsis("dring_campaign --diff old.jsonl new.jsonl")
      .flag("spec", "FILE", "campaign definition to expand and run")
      .flag("out", "FILE", "result store to write")
      .flag("threads", "N", "worker threads (0 = all hardware threads)")
      .flag("batch", "W", "batched lockstep lanes per worker thread "
                          "(0 = scalar engine; store bytes are identical "
                          "either way)")
      .flag("resume", "", "run only scenarios missing from the store")
      .flag("dry-run", "", "print the shard's scenario list, its count of "
                           "distinct behaviours, fingerprint range and "
                           "store path; run nothing")
      .flag("shard", "i/m", "run only cells with fingerprint % m == i")
      .flag("progress", "FILE", "heartbeat file rewritten as \"done total\" "
                                "after every cell (liveness for "
                                "dring_orchestrate)")
      .flag("merge", "FILE", "union partial stores losslessly (conflicts "
                             "are an error)")
      .flag("diff", "FILE", "compare two stores row by row")
      .flag("telemetry", "", "write metrics + event-log sidecars next to "
                             "the store (<out>.metrics.json, "
                             "<out>.events.jsonl); store bytes unchanged")
      .flag("stream-aggregate", "AXES", "fold an aggregate over the given "
                                        "comma-separated group axes at "
                                        "task-completion time and print it "
                                        "after the run; without --out the "
                                        "rows are never materialized "
                                        "(Monte-Carlo-scale mode)")
      .flag("metric", "NAME", "metric for --stream-aggregate: "
                              "explored_round (default), rounds, moves");
  core::add_log_flags(flags);
  flags.flag("help", "", "print this help")
      .note("stores are canonical JSONL: bytes identical for any --threads "
            "and any shard split, and for --telemetry on or off (see "
            "README \"Campaign subsystem\")")
      .note("env " + std::string(dring::core::kFaultInjectEnv) +
            "=crash:p,hang:p,trunc:p (+ _SEED, _ATTEMPT) arms the "
            "deterministic fault-injection harness (CI / orchestrator "
            "testing only)");
  return flags;
}

/// Paths given as a flag value and/or positionals (`--diff a b`,
/// `--merge=a b c`).
std::vector<std::string> flag_paths(const util::Cli& cli,
                                    const std::string& flag) {
  std::vector<std::string> paths;
  const std::string value = cli.get(flag, "");
  if (!value.empty() && value != "true" && value != "1")
    paths.push_back(value);
  for (const std::string& p : cli.positional()) paths.push_back(p);
  return paths;
}

/// Read every store, or fail with a clean diagnostic (bad path, malformed
/// line, schema-version mismatch).
bool read_stores(const std::vector<std::string>& paths,
                 std::vector<core::ResultStore>& stores) {
  for (const std::string& path : paths) {
    try {
      stores.push_back(core::read_result_store_file(path));
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return false;
    }
  }
  return true;
}

int run_diff(const std::vector<std::string>& paths) {
  if (paths.size() != 2) {
    std::cerr << "--diff needs exactly two store paths\n";
    return 2;
  }
  std::vector<core::ResultStore> stores;
  if (!read_stores(paths, stores)) return 2;
  // Unlike --merge, --diff welcomes cross-provenance inputs — comparing
  // the stores of two engine versions is its job — but says so up front.
  if (!(stores[0].provenance == stores[1].provenance))
    std::cout << "provenance differs: " << describe(stores[0].provenance)
              << " vs " << describe(stores[1].provenance) << "\n";
  const core::StoreDiff diff =
      core::diff_result_stores(stores[0].rows, stores[1].rows);
  std::cout << "only in " << paths[0] << ": " << diff.only_a.size()
            << "\nonly in " << paths[1] << ": " << diff.only_b.size()
            << "\nchanged payloads: " << diff.changed.size() << "\n";
  for (const core::CampaignRow& row : diff.only_a)
    std::cout << "  < " << core::to_json(row.spec).dump() << "\n";
  for (const core::CampaignRow& row : diff.only_b)
    std::cout << "  > " << core::to_json(row.spec).dump() << "\n";
  for (const auto& [a, b] : diff.changed) {
    std::cout << "  " << core::to_json(a.spec).dump() << "\n    - "
              << core::to_json(a).at("result").dump() << "\n    + "
              << core::to_json(b).at("result").dump() << "\n";
    if (core::to_json(a.spec).dump() != core::to_json(b.spec).dump())
      std::cout << "    spec differs: " << core::to_json(b.spec).dump()
                << "\n";
  }
  return diff.identical() ? 0 : 1;
}

int run_merge(const std::vector<std::string>& paths,
              const std::string& out_path) {
  if (paths.size() < 2) {
    std::cerr << "--merge needs at least two store paths\n";
    return 2;
  }
  std::vector<core::ResultStore> stores;
  if (!read_stores(paths, stores)) return 2;
  core::StoreMerge merge;
  try {
    merge = core::merge_result_stores(stores);
  } catch (const std::exception& e) {
    std::cerr << "merge failed: " << e.what() << "\n";
    return 1;
  }
  if (!merge.ok()) {
    std::cerr << "merge conflict: " << merge.conflicts.size()
              << " fingerprint(s) carry different payloads\n";
    for (const auto& [kept, clashing] : merge.conflicts)
      std::cerr << "  " << core::hex_u64(kept.fingerprint) << "\n    - "
                << core::to_json(kept).at("result").dump() << "\n    + "
                << core::to_json(clashing).at("result").dump() << "\n";
    return 1;
  }
  if (out_path.empty()) {
    std::cout << core::provenance_line(merge.provenance) << "\n";
    for (const core::CampaignRow& row : merge.rows)
      std::cout << core::row_line(row) << "\n";
  } else {
    core::ResultStore out;
    out.provenance = merge.provenance;
    out.rows = merge.rows;
    const std::size_t row_count = out.rows.size();
    core::write_result_store(out_path, std::move(out));
    std::cout << "merged " << paths.size() << " stores, " << row_count
              << " rows -> " << out_path << "\n";
  }
  return 0;
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

  if (cli.has("diff")) return run_diff(flag_paths(cli, "diff"));
  if (cli.has("merge"))
    return run_merge(flag_paths(cli, "merge"), cli.get("out", ""));

  const std::string spec_path = cli.get("spec", "");
  if (spec_path.empty()) {
    std::cerr << flags.help_text();
    return 2;
  }

  std::ifstream in(spec_path);
  if (!in) {
    std::cerr << "cannot open spec: " << spec_path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  core::CampaignSpec campaign;
  try {
    campaign = core::campaign_spec_from_json(util::Json::parse(buffer.str()));
  } catch (const std::exception& e) {
    std::cerr << spec_path << ": " << e.what() << "\n";
    return 2;
  }

  core::CampaignOptions options;
  options.threads = static_cast<int>(cli.get_int("threads", 0));
  options.batch_width = static_cast<int>(cli.get_int("batch", 0));
  options.out_path = cli.get("out", "");
  options.resume = cli.get_bool("resume", false);
  if (!util::parse_shard(cli.get("shard", ""), options.shard_index,
                         options.shard_count)) {
    std::cerr << "bad --shard (want i/m with 0 <= i < m): "
              << cli.get("shard", "") << "\n";
    return 2;
  }
  options.progress_path = cli.get("progress", "");

  // Streaming aggregation: fold rows cell-group by cell-group as tasks
  // complete.  Without --out the rows are discarded right after the fold,
  // so the run's memory stays O(workers) however large the grid.
  std::optional<core::StreamingAggregator> stream;
  if (cli.has("stream-aggregate")) {
    const std::string axes_arg = cli.get("stream-aggregate", "");
    std::vector<std::string> axes;
    if (axes_arg != "true" && axes_arg != "1") {
      std::string current;
      for (const char c : axes_arg + ",") {
        if (c == ',') {
          if (!current.empty()) axes.push_back(current);
          current.clear();
        } else {
          current += c;
        }
      }
    }
    try {
      stream.emplace(axes,
                     core::metric_from_string(
                         cli.get("metric", "explored_round")));
    } catch (const std::exception& e) {
      std::cerr << "bad --stream-aggregate: " << e.what() << "\n";
      return 2;
    }
    options.stream = &*stream;
  }

  if (cli.get_bool("telemetry", false)) {
    if (options.out_path.empty()) {
      std::cerr << "--telemetry needs --out (sidecars live next to the "
                   "store)\n";
      return 2;
    }
    try {
      core::telemetry().enable(options.out_path);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }

  // Deterministic fault-injection harness (orchestrator/CI testing): the
  // DRING_FAULT_* env vars arm a crash / hang / torn-store fault for this
  // attempt, drawn purely from (seed, shard, attempt) — see
  // core/orchestrate.hpp.  Crash and hang fire mid-sweep (after half the
  // cells) so the failure happens while work is in flight; trunc fires
  // after the store write, simulating output torn in transit.
  core::FaultKind fault = core::FaultKind::None;
  int fault_attempt = 1;
  if (const char* inject = std::getenv(core::kFaultInjectEnv);
      inject && *inject) {
    std::uint64_t fault_seed = 0;
    if (const char* s = std::getenv(core::kFaultSeedEnv))
      fault_seed = std::strtoull(s, nullptr, 0);
    if (const char* a = std::getenv(core::kFaultAttemptEnv))
      fault_attempt = std::atoi(a);
    core::FaultPlan plan;
    try {
      plan = core::parse_fault_plan(inject, fault_seed);
    } catch (const std::exception& e) {
      std::cerr << "bad " << core::kFaultInjectEnv << ": " << e.what() << "\n";
      return 2;
    }
    fault = core::fault_draw(
        plan, static_cast<std::uint64_t>(options.shard_index), fault_attempt);
    if (fault != core::FaultKind::None)
      core::log_line(core::LogLevel::kInfo,
                     "fault injection armed: " +
                         std::string(core::to_string(fault)) + " (shard " +
                         std::to_string(options.shard_index) + ", attempt " +
                         std::to_string(fault_attempt) + ")");
    if (fault == core::FaultKind::Crash || fault == core::FaultKind::Hang) {
      const bool hang = fault == core::FaultKind::Hang;
      options.on_progress = [hang](std::size_t done, std::size_t total) {
        if (done < std::max<std::size_t>(1, total / 2)) return;
        if (hang) {
          // Stop making progress without exiting: the heartbeat goes
          // stale and the supervisor must notice and kill us.
          std::this_thread::sleep_for(std::chrono::hours(1));
          std::_Exit(core::kFaultExitCrash);
        }
        std::_Exit(core::kFaultExitCrash);  // no store write, no cleanup
      };
    }
  }

  if (cli.get_bool("dry-run", false)) {
    const std::vector<core::ScenarioSpec> all = core::expand(campaign);
    std::vector<std::uint64_t> fingerprints;
    fingerprints.reserve(all.size());
    for (const auto& spec : all) fingerprints.push_back(core::fingerprint(spec));
    std::vector<std::size_t> cells;
    std::vector<std::size_t> rep;
    try {
      cells = core::shard_filter(fingerprints, options.shard_index,
                                 options.shard_count);
      rep = core::behaviour_representatives(all, cells);
    } catch (const std::exception& e) {
      std::cerr << "dry run failed: " << e.what() << "\n";
      return 1;
    }
    std::size_t distinct = 0;
    for (std::size_t p = 0; p < rep.size(); ++p)
      if (rep[p] == p) ++distinct;
    std::cout << "campaign '" << campaign.name << "': " << cells.size()
              << " scenarios, " << distinct << " distinct behaviours";
    if (options.shard_count > 1)
      std::cout << " on shard " << options.shard_index << "/"
                << options.shard_count;
    std::cout << "\n";
    // Enough context to sanity-check a sharded cross-machine dispatch
    // before burning core hours: which fingerprints land here, and where
    // the rows would go.
    if (!cells.empty()) {
      std::uint64_t lo = fingerprints[cells.front()];
      std::uint64_t hi = lo;
      for (const std::size_t i : cells) {
        lo = std::min(lo, fingerprints[i]);
        hi = std::max(hi, fingerprints[i]);
      }
      std::cout << "  fingerprints: " << core::hex_u64(lo) << " .. "
                << core::hex_u64(hi) << " (mod " << options.shard_count
                << " == " << options.shard_index << ")\n";
    }
    std::cout << "  store: "
              << (options.out_path.empty() ? "(none)" : options.out_path)
              << (options.resume ? " (resume: run only missing rows)" : "")
              << "\n";
    for (const std::size_t i : cells)
      std::cout << core::to_json(all[i]).dump() << "\n";
    return 0;
  }

  // A fresh run replaces the store file; make losing prior rows an
  // explicit choice, not a surprise.
  if (!options.resume && !options.out_path.empty()) {
    std::ifstream existing(options.out_path);
    if (existing && existing.peek() != std::ifstream::traits_type::eof())
      core::log_line(core::LogLevel::kInfo,
                     "note: replacing existing store " + options.out_path +
                         " (use --resume to keep its rows)");
  }

  core::CampaignReport report;
  try {
    report = core::run_campaign(campaign, options);
  } catch (const std::exception& e) {
    std::cerr << "campaign failed: " << e.what() << "\n";
    return 1;
  }

  if (report.recovery.dropped_partial)
    core::log_line(core::LogLevel::kInfo,
                   "note: " + options.out_path + " line " +
                       std::to_string(report.recovery.line_no) +
                       " was a torn trailing row (interrupted write): " +
                       report.recovery.snippet +
                       " — dropped it and re-ran that cell");

  // Injected torn output: tear the freshly-written store mid-row and die
  // non-zero, as if the process had been killed while its bytes were in
  // transit.  The next attempt's --resume must recover (drop the torn
  // row, re-run exactly that cell).
  if (fault == core::FaultKind::Trunc && !options.out_path.empty()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    const auto size = fs::file_size(options.out_path, ec);
    // Find the last line's length so the cut always lands inside it, and
    // only tear actual rows — never the provenance header (a headerless
    // store is unrecoverable corruption, not a torn tail).
    std::size_t last_len = 0, lines = 0;
    {
      std::ifstream in(options.out_path);
      std::string line;
      while (std::getline(in, line)) {
        last_len = line.size();
        ++lines;
      }
    }
    if (!ec && lines >= 2 && last_len > 2) {
      const std::uint64_t cut =
          2 + static_cast<std::uint64_t>(
                  13 * options.shard_index + 7 * fault_attempt) %
                  std::min<std::uint64_t>(last_len - 1, 39);
      fs::resize_file(options.out_path, size - cut, ec);
      core::log_line(core::LogLevel::kInfo,
                     "fault injection: tore " + std::to_string(cut) +
                         " bytes off " + options.out_path);
    }
    std::_Exit(core::kFaultExitTrunc);
  }

  std::cout << "campaign '" << campaign.name << "': " << report.total
            << " scenarios, ";
  if (options.shard_count > 1)
    std::cout << report.sharded_out << " on other shards, ";
  std::cout << report.executed << " executed, " << report.skipped
            << " resumed from "
            << (options.out_path.empty() ? "(no store)" : options.out_path)
            << "\n";

  // Console summary of the rows executed in this invocation.
  if (!report.rows.empty()) {
    int explored = 0, premature = 0, violations = 0;
    Round worst_rounds = 0;
    std::string worst_spec;
    for (const core::CampaignRow& row : report.rows) {
      if (row.outcome.explored) ++explored;
      if (row.outcome.premature_termination) ++premature;
      violations += row.outcome.violations;
      if (row.outcome.rounds > worst_rounds) {
        worst_rounds = row.outcome.rounds;
        worst_spec = core::to_json(row.spec).dump();
      }
    }
    util::Table t({"executed", "explored", "premature", "violations",
                   "worst rounds"});
    t.add_row({std::to_string(report.rows.size()), std::to_string(explored),
               std::to_string(premature), std::to_string(violations),
               std::to_string(worst_rounds)});
    t.print(std::cout);
    if (!worst_spec.empty())
      std::cout << "worst-case scenario: " << worst_spec << "\n";
  }
  if (stream) {
    std::cout << "\n" << stream->render(core::ReportFormat::Markdown);
  }
  if (core::telemetry().enabled()) {
    core::log_line(core::LogLevel::kDebug,
                   "telemetry sidecars: " + core::telemetry().events_path() +
                       ", " + core::telemetry().metrics_path());
    core::telemetry().shutdown();  // flush events, write <out>.metrics.json
  }
  return 0;
}
