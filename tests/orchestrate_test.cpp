// Failure-path coverage for the fault-tolerant campaign orchestrator:
// retry/backoff schedule math, the deterministic fault-injection plan,
// subprocess supervision (timeout -> kill -> reschedule, heartbeats),
// straggler speculation idempotence, partial-failure manifests, and the
// headline guarantee — under injected crash/hang/trunc faults the merged
// store converges byte-identically to the single-process store, and a
// --resume run completes exactly the holes a failed run left.
//
// End-to-end tests spawn the real dring_campaign binary (built next to
// this test executable); they skip when it is absent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/campaign.hpp"
#include "core/orchestrate.hpp"
#include "core/scenario_spec.hpp"
#include "core/telemetry.hpp"
#include "util/json.hpp"
#include "util/subprocess.hpp"

namespace dring::core {
namespace {

namespace fs = std::filesystem;

// --- backoff schedule math -----------------------------------------------------

TEST(Backoff, FirstAttemptIsImmediate) {
  BackoffPolicy policy;
  EXPECT_EQ(policy.delay_ms(0, 1), 0);
  EXPECT_EQ(policy.delay_ms(7, 1), 0);
  EXPECT_EQ(policy.delay_ms(0, 0), 0);
}

TEST(Backoff, ExponentialDoublingWithCap) {
  BackoffPolicy policy;
  policy.base_ms = 100;
  policy.cap_ms = 750;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.delay_ms(3, 2), 100);
  EXPECT_EQ(policy.delay_ms(3, 3), 200);
  EXPECT_EQ(policy.delay_ms(3, 4), 400);
  EXPECT_EQ(policy.delay_ms(3, 5), 750);  // 800 capped
  EXPECT_EQ(policy.delay_ms(3, 6), 750);
  EXPECT_EQ(policy.delay_ms(3, 60), 750);  // deep attempts stay capped
}

TEST(Backoff, JitterIsBoundedDeterministicAndPerShard) {
  BackoffPolicy policy;
  policy.base_ms = 1000;
  policy.cap_ms = 100000;
  policy.jitter = 0.5;
  policy.seed = 42;
  std::set<long long> seen;
  for (int shard = 0; shard < 8; ++shard) {
    for (int attempt = 2; attempt <= 5; ++attempt) {
      const long long raw = 1000LL << (attempt - 2);
      const long long delay = policy.delay_ms(shard, attempt);
      EXPECT_GE(delay, raw / 2) << shard << "/" << attempt;
      EXPECT_LE(delay, raw) << shard << "/" << attempt;
      // A pure function of (seed, shard, attempt).
      EXPECT_EQ(delay, policy.delay_ms(shard, attempt));
      seen.insert(delay);
    }
  }
  // The jitter actually spreads the fleet (not everyone retries at raw).
  EXPECT_GT(seen.size(), 8u);
}

// --- fault plan ----------------------------------------------------------------

TEST(FaultPlan, ParsesSpecsAndRejectsGarbage) {
  const FaultPlan plan = parse_fault_plan("crash:0.4,hang:0.2,trunc:0.1", 9);
  EXPECT_DOUBLE_EQ(plan.crash, 0.4);
  EXPECT_DOUBLE_EQ(plan.hang, 0.2);
  EXPECT_DOUBLE_EQ(plan.trunc, 0.1);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_TRUE(plan.any());

  EXPECT_FALSE(parse_fault_plan("", 0).any());
  EXPECT_DOUBLE_EQ(parse_fault_plan("hang:1", 0).hang, 1.0);

  EXPECT_THROW(parse_fault_plan("crash", 0), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash:1.5", 0), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash:-0.1", 0), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("boom:0.1", 0), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash:0.2,crash:0.1", 0),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash:0.6,hang:0.6", 0),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash:abc", 0), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash:0.5x", 0), std::invalid_argument);
}

TEST(FaultPlan, DrawIsDeterministicAndHonorsProbabilities) {
  FaultPlan none;
  EXPECT_EQ(fault_draw(none, 3, 1), FaultKind::None);

  FaultPlan certain;
  certain.crash = 1.0;
  for (int attempt = 1; attempt <= 5; ++attempt)
    EXPECT_EQ(fault_draw(certain, 0, attempt), FaultKind::Crash);

  const FaultPlan plan = parse_fault_plan("crash:0.3,hang:0.2,trunc:0.2", 5);
  int counts[4] = {0, 0, 0, 0};
  for (std::uint64_t key = 0; key < 40; ++key) {
    for (int attempt = 1; attempt <= 25; ++attempt) {
      const FaultKind kind = fault_draw(plan, key, attempt);
      EXPECT_EQ(kind, fault_draw(plan, key, attempt));  // pure function
      counts[static_cast<int>(kind)]++;
    }
  }
  // 1000 draws; each kind lands within a loose band of its probability.
  EXPECT_GT(counts[static_cast<int>(FaultKind::None)], 200);
  EXPECT_GT(counts[static_cast<int>(FaultKind::Crash)], 200);
  EXPECT_GT(counts[static_cast<int>(FaultKind::Hang)], 100);
  EXPECT_GT(counts[static_cast<int>(FaultKind::Trunc)], 100);

  // Retrying a sub-certain plan converges: every key reaches a clean
  // attempt reasonably fast.
  for (std::uint64_t key = 0; key < 40; ++key) {
    int first_clean = -1;
    for (int attempt = 1; attempt <= 50 && first_clean < 0; ++attempt)
      if (fault_draw(plan, key, attempt) == FaultKind::None)
        first_clean = attempt;
    EXPECT_GT(first_clean, 0) << "key " << key;
  }
}

// --- subprocess ----------------------------------------------------------------

TEST(Subprocess, ExitCodeEnvAndRedirect) {
  const std::string out = testing::TempDir() + "subprocess_out.txt";
  std::remove(out.c_str());
  util::SpawnSpec spec;
  spec.argv = {"/bin/sh", "-c", "printf '%s' \"$DRING_TEST_VALUE\"; exit 7"};
  spec.env = {{"DRING_TEST_VALUE", "hello-fleet"}};
  spec.output_path = out;
  util::Subprocess child = util::Subprocess::spawn(spec);
  EXPECT_EQ(child.exit_code_blocking(), 7);
  EXPECT_FALSE(child.signaled());
  std::ifstream in(out);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), "hello-fleet");
}

TEST(Subprocess, KillHardReportsSignalDeath) {
  util::SpawnSpec spec;
  // `exec`: the shell becomes the sleep, so the kill leaves no orphaned
  // grandchild holding the test's output pipe open for 30 s.
  spec.argv = {"/bin/sh", "-c", "exec sleep 30"};
  util::Subprocess child = util::Subprocess::spawn(spec);
  EXPECT_TRUE(child.running());
  child.kill_hard();
  EXPECT_EQ(child.exit_code_blocking(), 128 + 9);
  EXPECT_TRUE(child.signaled());
  EXPECT_FALSE(child.running());
}

// --- end-to-end orchestration --------------------------------------------------

std::string campaign_binary() {
  const std::string dir = util::executable_dir();
  if (dir.empty()) return "";
  const std::string path = dir + "/dring_campaign";
  return fs::exists(path) ? path : "";
}

/// The shared fleet-test campaign: 16 cheap cells.
CampaignSpec fleet_campaign() {
  CampaignSpec campaign;
  campaign.name = "fleet";
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

/// A fresh work area holding the spec file and the reference store
/// (written by the in-process single-path run — the bytes every fleet
/// configuration must reproduce).
struct FleetFixture {
  std::string dir;
  std::string spec_path;
  std::string ref_path;

  explicit FleetFixture(const std::string& name) {
    dir = testing::TempDir() + "orch_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    spec_path = dir + "/campaign.json";
    std::ofstream(spec_path) << to_json(fleet_campaign()).dump() << "\n";
    ref_path = dir + "/reference.jsonl";
    CampaignOptions options;
    options.threads = 2;
    options.out_path = ref_path;
    run_campaign(fleet_campaign(), options);
  }

  OrchestrateOptions base_options(int shards, int workers) const {
    OrchestrateOptions options;
    options.spec_path = spec_path;
    options.shards = shards;
    options.workers = workers;
    options.threads_per_worker = 1;
    options.work_dir = dir + "/work";
    options.out_path = dir + "/merged.jsonl";
    options.campaign_binary = campaign_binary();
    options.poll_s = 0.01;
    options.backoff.base_ms = 10;
    options.backoff.cap_ms = 50;
    return options;
  }
};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Attempt on which `shard` first runs clean under `plan` (the number of
/// attempts the orchestrator will launch for it), or -1 when it exhausts
/// `max_attempts` first.  The orchestrator's schedule is a pure function
/// of the plan, so tests predict outcomes exactly.
int first_clean_attempt(const FaultPlan& plan, int shard, int max_attempts) {
  for (int attempt = 1; attempt <= max_attempts; ++attempt)
    if (fault_draw(plan, static_cast<std::uint64_t>(shard), attempt) ==
        FaultKind::None)
      return attempt;
  return -1;
}

TEST(Orchestrate, FaultFreeFleetMatchesSingleProcess) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  FleetFixture fx("clean");
  OrchestrateOptions options = fx.base_options(3, 3);
  const OrchestrationResult result = run_orchestration(options);
  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_EQ(result.merged_rows, 16u);
  EXPECT_EQ(file_bytes(options.out_path), file_bytes(fx.ref_path));
  // One attempt per shard, nothing speculative.
  for (const ShardOutcome& shard : result.shards) {
    EXPECT_TRUE(shard.completed);
    EXPECT_EQ(shard.attempts, 1);
    EXPECT_EQ(shard.failures, 0);
  }
  // The manifest records the clean run too.
  const util::Json manifest =
      util::Json::parse(file_bytes(result.manifest_path));
  EXPECT_EQ(manifest.at("campaign").as_string(), "fleet");
  EXPECT_EQ(manifest.at("missing").as_array().size(), 0u);
  EXPECT_EQ(manifest.at("completed").as_array().size(), 3u);
}

TEST(Orchestrate, ConvergesByteIdenticallyUnderInjectedFaults) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  // Pick, deterministically, a seed whose schedule (a) converges within
  // the attempt cap on every shard, (b) exercises crash AND trunc, and
  // (c) hangs exactly once (each hang costs ~stale_s of wall clock).
  const int kShards = 3, kMaxAttempts = 6;
  std::uint64_t seed = 0;
  FaultPlan plan;
  bool found = false;
  for (std::uint64_t candidate = 0; candidate < 500 && !found; ++candidate) {
    plan = parse_fault_plan("crash:0.35,hang:0.12,trunc:0.3", candidate);
    bool converges = true;
    int crashes = 0, hangs = 0, truncs = 0;
    for (int shard = 0; shard < kShards; ++shard) {
      const int clean = first_clean_attempt(plan, shard, kMaxAttempts);
      if (clean < 0) {
        converges = false;
        break;
      }
      for (int attempt = 1; attempt < clean; ++attempt) {
        const FaultKind kind =
            fault_draw(plan, static_cast<std::uint64_t>(shard), attempt);
        crashes += kind == FaultKind::Crash;
        hangs += kind == FaultKind::Hang;
        truncs += kind == FaultKind::Trunc;
      }
    }
    if (converges && crashes >= 1 && truncs >= 1 && hangs == 1) {
      seed = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no converging fault seed in the search range";

  FleetFixture fx("faulty");
  OrchestrateOptions options = fx.base_options(kShards, kShards);
  options.max_attempts = kMaxAttempts;
  options.inject = "crash:0.35,hang:0.12,trunc:0.3";
  options.inject_seed = seed;
  options.stale_s = 1.5;  // the injected hang is caught by the heartbeat
  const OrchestrationResult result = run_orchestration(options);

  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_TRUE(result.missing.empty());
  // Headline guarantee: byte-identical to the fault-free single process.
  EXPECT_EQ(file_bytes(options.out_path), file_bytes(fx.ref_path));
  // The schedule is deterministic, so attempt counts match the
  // prediction exactly — retries happened and stopped when foretold.
  int total_attempts = 0;
  for (const ShardOutcome& shard : result.shards) {
    EXPECT_TRUE(shard.completed);
    EXPECT_EQ(shard.attempts,
              first_clean_attempt(plan, shard.shard, kMaxAttempts))
        << "shard " << shard.shard;
    total_attempts += shard.attempts;
  }
  EXPECT_GT(total_attempts, kShards);  // faults actually fired
}

TEST(Orchestrate, ExhaustionWritesManifestAndResumeFillsTheHoles) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  // Find a seed where, with a cap of 2 attempts, at least one shard
  // completes and at least one exhausts — the partial-merge case.
  const int kShards = 3, kMaxAttempts = 2;
  std::uint64_t seed = 0;
  std::set<int> expect_missing;
  bool found = false;
  for (std::uint64_t candidate = 0; candidate < 500 && !found; ++candidate) {
    const FaultPlan plan = parse_fault_plan("crash:0.75", candidate);
    std::set<int> missing;
    for (int shard = 0; shard < kShards; ++shard)
      if (first_clean_attempt(plan, shard, kMaxAttempts) < 0)
        missing.insert(shard);
    if (!missing.empty() && missing.size() < kShards) {
      seed = candidate;
      expect_missing = missing;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  FleetFixture fx("holes");
  OrchestrateOptions options = fx.base_options(kShards, kShards);
  options.max_attempts = kMaxAttempts;
  options.inject = "crash:0.75";
  options.inject_seed = seed;
  const OrchestrationResult result = run_orchestration(options);

  // Distinct exit code, exact hole list, graceful partial merge.
  EXPECT_EQ(result.exit_code, kExitMissingShards);
  EXPECT_EQ(std::set<int>(result.missing.begin(), result.missing.end()),
            expect_missing);
  EXPECT_FALSE(result.merged_path.empty());
  EXPECT_GT(result.merged_rows, 0u);
  EXPECT_LT(result.merged_rows, 16u);

  const util::Json manifest =
      util::Json::parse(file_bytes(result.manifest_path));
  std::set<int> manifest_missing;
  for (const util::Json& shard : manifest.at("missing").as_array())
    manifest_missing.insert(static_cast<int>(shard.as_int()));
  EXPECT_EQ(manifest_missing, expect_missing);
  for (const int shard : expect_missing) {
    EXPECT_EQ(manifest.at("attempts").at(std::to_string(shard)).as_int(),
              kMaxAttempts);
    // No store entry for a hole.
    EXPECT_FALSE(manifest.at("stores").has(std::to_string(shard)));
  }
  EXPECT_EQ(manifest.at("resume_hint").as_string().find("--resume") !=
                std::string::npos,
            true);

  // Resume-the-holes: same work dir, no injection — only the missing
  // shards run, and the merged store converges to the reference bytes.
  OrchestrateOptions repair = fx.base_options(kShards, kShards);
  repair.resume = true;
  const OrchestrationResult repaired = run_orchestration(repair);
  EXPECT_EQ(repaired.exit_code, kExitOk);
  EXPECT_TRUE(repaired.missing.empty());
  EXPECT_EQ(file_bytes(repair.out_path), file_bytes(fx.ref_path));
}

TEST(Orchestrate, TimeoutKillsAndReschedules) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  FleetFixture fx("timeout");
  OrchestrateOptions options = fx.base_options(1, 1);
  options.max_attempts = 2;
  options.inject = "hang:1.0";  // every attempt wedges mid-sweep
  options.inject_seed = 1;
  options.stale_s = 0;     // heartbeat watchdog off: exercise the hard
  options.timeout_s = 1.0; // per-attempt timeout instead
  const OrchestrationResult result = run_orchestration(options);
  EXPECT_EQ(result.exit_code, kExitMissingShards);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_FALSE(result.shards[0].completed);
  EXPECT_EQ(result.shards[0].failures, 2);  // killed, rescheduled, killed
  EXPECT_NE(result.shards[0].last_error.find("timeout"), std::string::npos)
      << result.shards[0].last_error;
}

TEST(Orchestrate, StaleHeartbeatKillsHungWorker) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  FleetFixture fx("stale");
  OrchestrateOptions options = fx.base_options(1, 1);
  options.max_attempts = 1;
  options.inject = "hang:1.0";
  options.inject_seed = 1;
  options.stale_s = 1.0;
  const OrchestrationResult result = run_orchestration(options);
  EXPECT_EQ(result.exit_code, kExitMissingShards);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_NE(result.shards[0].last_error.find("stale"), std::string::npos)
      << result.shards[0].last_error;
}

TEST(Orchestrate, StragglerSpeculationIsIdempotent) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  // One shard hangs on its first attempt (and would hang forever — the
  // watchdogs are off); the only rescue is the speculative duplicate,
  // whose own attempt draws clean.  Pick such a seed deterministically.
  const std::string inject = "hang:0.5";
  std::uint64_t seed = 0;
  bool found = false;
  for (std::uint64_t candidate = 0; candidate < 500 && !found; ++candidate) {
    const FaultPlan plan = parse_fault_plan(inject, candidate);
    if (fault_draw(plan, 0, 1) == FaultKind::None &&
        fault_draw(plan, 1, 1) == FaultKind::Hang &&
        fault_draw(plan, 1, 2) == FaultKind::None) {
      seed = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  FleetFixture fx("straggler");
  OrchestrateOptions options = fx.base_options(2, 3);
  options.max_attempts = 3;
  options.inject = inject;
  options.inject_seed = seed;
  options.stale_s = 0;       // no watchdog: speculation must do the rescue
  options.timeout_s = 30;    // safety net so a regression can't wedge CI
  options.straggler_factor = 0.25;
  options.straggler_quorum = 0.4;
  const OrchestrationResult result = run_orchestration(options);

  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_TRUE(result.shards[1].speculated);
  EXPECT_EQ(result.shards[1].attempts, 2);  // the hung one + the rescue
  // Idempotence: two attempts racing on one shard still produce exactly
  // the single-process bytes after the merge.
  EXPECT_EQ(file_bytes(options.out_path), file_bytes(fx.ref_path));
}

TEST(Orchestrate, HeartbeatProgressFileTracksCompletion) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  FleetFixture fx("heartbeat");
  const std::string store = fx.dir + "/direct.jsonl";
  const std::string progress = store + ".progress";
  util::SpawnSpec spec;
  spec.argv = {campaign_binary(), "--spec", fx.spec_path, "--out", store,
               "--threads", "2", "--progress", progress};
  spec.output_path = fx.dir + "/direct.log";
  util::Subprocess child = util::Subprocess::spawn(spec);
  EXPECT_EQ(child.exit_code_blocking(), 0);
  std::ifstream in(progress);
  std::size_t done = 0, total = 0;
  in >> done >> total;
  EXPECT_EQ(done, 16u);
  EXPECT_EQ(total, 16u);
}

TEST(Orchestrate, RejectsBadGeometryAndMissingSpec) {
  OrchestrateOptions options;
  options.spec_path = testing::TempDir() + "does_not_exist.json";
  options.work_dir = testing::TempDir() + "orch_bad";
  EXPECT_THROW(run_orchestration(options), std::runtime_error);
  options.shards = 0;
  EXPECT_THROW(run_orchestration(options), std::invalid_argument);
}

TEST(Orchestrate, ManifestJsonNamesHolesAndStores) {
  OrchestrateOptions options;
  options.spec_path = "spec.json";
  options.shards = 2;
  options.work_dir = "/w";
  OrchestrationResult result;
  ShardOutcome done;
  done.shard = 0;
  done.completed = true;
  done.attempts = 1;
  done.store_path = "/w/shard_0of2.jsonl";
  ShardOutcome hole;
  hole.shard = 1;
  hole.completed = false;
  hole.attempts = 3;
  result.shards = {done, hole};
  result.missing = {1};
  result.merged_path = "/w/merged.jsonl";
  result.merged_rows = 8;
  const util::Json j = manifest_json(options, result, "demo");
  EXPECT_EQ(j.at("campaign").as_string(), "demo");
  EXPECT_EQ(j.at("shards").as_int(), 2);
  EXPECT_EQ(j.at("completed").as_array().size(), 1u);
  EXPECT_EQ(j.at("missing").as_array()[0].as_int(), 1);
  EXPECT_EQ(j.at("attempts").at("1").as_int(), 3);
  EXPECT_EQ(j.at("stores").at("0").as_string(), "/w/shard_0of2.jsonl");
  EXPECT_NE(j.at("resume_hint").as_string().find("--resume"),
            std::string::npos);
}

// --- fault-exit stderr capture -------------------------------------------------

TEST(Subprocess, CapturesStderrOnFaultExitCodes) {
  // The orchestrator reads worker attempt logs post-mortem; stderr from a
  // worker dying with the fault codes must land in output_path.
  for (const int code : {kFaultExitCrash, kFaultExitTrunc}) {
    const std::string out = testing::TempDir() + "fault_stderr_" +
                            std::to_string(code) + ".log";
    std::remove(out.c_str());
    util::SpawnSpec spec;
    spec.argv = {"/bin/sh", "-c",
                 "echo diagnostic-before-death >&2; exit " +
                     std::to_string(code)};
    spec.output_path = out;
    util::Subprocess child = util::Subprocess::spawn(spec);
    EXPECT_EQ(child.exit_code_blocking(), code);
    EXPECT_FALSE(child.signaled());
    EXPECT_NE(file_bytes(out).find("diagnostic-before-death"),
              std::string::npos)
        << "exit " << code;
  }
}

TEST(Subprocess, CapturesWorkerStderrOnInjectedCrashAndTrunc) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  FleetFixture fx("fault_stderr");

  const auto run_with_fault = [&](const std::string& inject,
                                  const std::string& tag) {
    const std::string store = fx.dir + "/" + tag + ".jsonl";
    const std::string log = store + ".log";
    util::SpawnSpec spec;
    spec.argv = {campaign_binary(), "--spec", fx.spec_path,
                 "--out", store, "--resume"};
    spec.env = {{kFaultInjectEnv, inject}, {kFaultSeedEnv, "0"},
                {kFaultAttemptEnv, "1"}};
    spec.output_path = log;
    util::Subprocess child = util::Subprocess::spawn(spec);
    const int code = child.exit_code_blocking();
    return std::make_pair(code, file_bytes(log));
  };

  // crash:1.0 -> mid-sweep _Exit(70); the armed-fault note reached the log.
  const auto [crash_code, crash_log] = run_with_fault("crash:1.0", "crash");
  EXPECT_EQ(crash_code, kFaultExitCrash);
  EXPECT_NE(crash_log.find("fault injection armed: crash"),
            std::string::npos);

  // trunc:1.0 -> store torn after the write, _Exit(71), tear note logged.
  const auto [trunc_code, trunc_log] = run_with_fault("trunc:1.0", "trunc");
  EXPECT_EQ(trunc_code, kFaultExitTrunc);
  EXPECT_NE(trunc_log.find("fault injection armed: trunc"),
            std::string::npos);
  EXPECT_NE(trunc_log.find("tore"), std::string::npos);
}

// --- telemetry end-to-end ------------------------------------------------------

TEST(Orchestrate, TelemetryTimelineIsDeterministicUnderFaults) {
  if (campaign_binary().empty()) GTEST_SKIP() << "dring_campaign not built";
  // A crash/trunc-only schedule (no hangs: kill timing is wall-clock, and
  // no speculation) makes the full per-shard event sequence a pure
  // function of the plan — the property this test pins.
  const int kShards = 3, kMaxAttempts = 6;
  const std::string kInject = "crash:0.4,trunc:0.3";
  std::uint64_t seed = 0;
  FaultPlan plan;
  bool found = false;
  for (std::uint64_t candidate = 0; candidate < 500 && !found; ++candidate) {
    plan = parse_fault_plan(kInject, candidate);
    bool converges = true;
    int faults = 0;
    for (int shard = 0; shard < kShards; ++shard) {
      const int clean = first_clean_attempt(plan, shard, kMaxAttempts);
      if (clean < 0) {
        converges = false;
        break;
      }
      faults += clean - 1;
    }
    if (converges && faults >= 2) {
      seed = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no converging fault seed in the search range";

  const auto run_once = [&](const std::string& name) {
    FleetFixture fx(name);
    OrchestrateOptions options = fx.base_options(kShards, kShards);
    options.max_attempts = kMaxAttempts;
    options.inject = kInject;
    options.inject_seed = seed;
    options.telemetry = true;  // workers write their own sidecars
    telemetry().enable(options.out_path);
    const OrchestrationResult result = run_orchestration(options);
    telemetry().shutdown();
    EXPECT_EQ(result.exit_code, kExitOk);
    // Telemetry on: merged bytes still match the fault-free reference.
    EXPECT_EQ(file_bytes(options.out_path), file_bytes(fx.ref_path));
    // Worker sidecars landed next to the shard stores.
    EXPECT_TRUE(fs::exists(shard_store_path(options, 0) + ".events.jsonl"));
    EXPECT_TRUE(fs::exists(shard_store_path(options, 0) + ".metrics.json"));
    return render_timeline(
        read_events_file(options.out_path + ".events.jsonl"));
  };

  const std::string timeline = run_once("telemetry_a");

  // The rendered timeline narrates the predicted schedule: every faulty
  // attempt dispatches with its fault named, exits non-zero, retries, and
  // the clean attempt completes the shard.
  for (int shard = 0; shard < kShards; ++shard) {
    const int clean = first_clean_attempt(plan, shard, kMaxAttempts);
    EXPECT_NE(timeline.find("## shard " + std::to_string(shard)),
              std::string::npos);
    for (int attempt = 1; attempt < clean; ++attempt) {
      const FaultKind kind =
          fault_draw(plan, static_cast<std::uint64_t>(shard), attempt);
      EXPECT_NE(timeline.find("orchestrate.dispatch attempt=" +
                              std::to_string(attempt) + " fault=" +
                              to_string(kind)),
                std::string::npos)
          << "shard " << shard << " attempt " << attempt;
      const int code =
          kind == FaultKind::Trunc ? kFaultExitTrunc : kFaultExitCrash;
      EXPECT_NE(timeline.find("attempt=" + std::to_string(attempt) +
                              " code=" + std::to_string(code)),
                std::string::npos)
          << "shard " << shard << " attempt " << attempt;
    }
    EXPECT_NE(timeline.find("orchestrate.shard_complete attempt=" +
                            std::to_string(clean)),
              std::string::npos)
        << "shard " << shard;
  }
  EXPECT_NE(timeline.find("orchestrate.merge rows=16"), std::string::npos);

  // Determinism: a second full run renders byte-identically.
  EXPECT_EQ(run_once("telemetry_b"), timeline);
}

}  // namespace
}  // namespace dring::core
