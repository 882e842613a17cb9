// Integration tests of the FSYNC algorithms (Section 3 of the paper):
// exploration completes, termination is never premature, and the paper's
// round bounds hold — across ring sizes, start placements, orientation
// assignments and adversaries.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/basic_adversaries.hpp"
#include "adversary/proof_adversaries.hpp"
#include "algo/id_encoding.hpp"
#include "core/runner.hpp"

namespace dring {
namespace {

using algo::AlgorithmId;
using core::default_config;
using core::ExplorationConfig;
using core::run_exploration;

void expect_clean(const sim::RunResult& r, const std::string& context) {
  EXPECT_TRUE(r.explored) << context << ": not explored (" << r.stop_reason
                          << ")";
  EXPECT_FALSE(r.premature_termination)
      << context << ": premature termination";
  EXPECT_TRUE(r.violations.empty()) << context << ": " << r.violations[0];
}

// ---------------------------------------------------------------------------
// KnownNNoChirality (Theorem 3)
// ---------------------------------------------------------------------------

// Parameter structs stay padding-free (the static_asserts pin it): gtest
// prints an unprintable parameter's raw bytes into its test id, and padding
// bytes are indeterminate, so a padded struct yields ids that change from
// one build or run to the next.  Fields are widened to fill the gaps.
struct KnownNCase {
  std::int64_t n;
  std::uint64_t seed;
};
static_assert(sizeof(KnownNCase) == 16);

class KnownNSweep : public ::testing::TestWithParam<KnownNCase> {};

TEST_P(KnownNSweep, ExploresAndTerminatesWithin3NMinus6) {
  const auto [n, seed] = GetParam();
  ExplorationConfig cfg = default_config(AlgorithmId::KnownNNoChirality, n);
  cfg.stop.max_rounds = 10 * n;

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.7, 1.0, seed);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean(r, "KnownN n=" + std::to_string(n));
  EXPECT_TRUE(r.all_terminated);
  // Termination fires at the first activation with Ttime >= 3N-6, i.e. by
  // round 3N-5; exploration itself completes by 3N-6.
  EXPECT_LE(r.explored_round, 3 * n - 6);
  for (const sim::AgentResult& a : r.agents)
    EXPECT_LE(a.termination_round, 3 * n - 5);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, KnownNSweep,
    ::testing::Values(KnownNCase{4, 0}, KnownNCase{4, 1}, KnownNCase{5, 0},
                      KnownNCase{5, 2}, KnownNCase{6, 0}, KnownNCase{6, 3},
                      KnownNCase{8, 0}, KnownNCase{8, 4}, KnownNCase{8, 5},
                      KnownNCase{11, 0}, KnownNCase{11, 6}, KnownNCase{16, 0},
                      KnownNCase{16, 7}, KnownNCase{16, 8}, KnownNCase{23, 9},
                      KnownNCase{32, 10}, KnownNCase{32, 11}));

TEST(KnownN, WorksWithLooseUpperBound) {
  for (NodeId n : {5, 8, 12}) {
    ExplorationConfig cfg = default_config(AlgorithmId::KnownNNoChirality, n);
    cfg.upper_bound = 2 * n + 3;  // loose bound N > n
    cfg.stop.max_rounds = 10 * *cfg.upper_bound;
    adversary::TargetedRandomAdversary adv(0.7, 1.0, 99 + n);
    const sim::RunResult r = run_exploration(cfg, &adv);
    expect_clean(r, "loose bound n=" + std::to_string(n));
    EXPECT_TRUE(r.all_terminated);
    for (const sim::AgentResult& a : r.agents)
      EXPECT_LE(a.termination_round, 3 * *cfg.upper_bound - 5);
  }
}

TEST(KnownN, SameStartNode) {
  for (NodeId n : {5, 9}) {
    for (bool same_orientation : {true, false}) {
      ExplorationConfig cfg = default_config(AlgorithmId::KnownNNoChirality, n);
      cfg.start_nodes = {2, 2};
      cfg.orientations = {agent::kChiralOrientation,
                          same_orientation ? agent::kChiralOrientation
                                           : agent::kMirroredOrientation};
      cfg.stop.max_rounds = 10 * n;
      adversary::TargetedRandomAdversary adv(0.5, 1.0, 7);
      const sim::RunResult r = run_exploration(cfg, &adv);
      expect_clean(r, "same-start n=" + std::to_string(n));
      EXPECT_TRUE(r.all_terminated);
    }
  }
}

TEST(KnownN, MixedOrientationsAllPlacements) {
  const NodeId n = 7;
  for (NodeId start_b = 0; start_b < n; ++start_b) {
    ExplorationConfig cfg = default_config(AlgorithmId::KnownNNoChirality, n);
    cfg.start_nodes = {0, start_b};
    cfg.orientations = {agent::kChiralOrientation, agent::kMirroredOrientation};
    cfg.stop.max_rounds = 10 * n;
    adversary::TargetedRandomAdversary adv(0.6, 1.0, 100 + start_b);
    const sim::RunResult r = run_exploration(cfg, &adv);
    expect_clean(r, "placement b=" + std::to_string(start_b));
  }
}

// Figure 2: the exact schedule on which exploration takes 3n-6 rounds,
// showing the bound of Theorem 3 is tight for N = n.
TEST(KnownN, Figure2WorstCaseScheduleIsTight) {
  for (NodeId n : {6, 8, 10, 13}) {
    const NodeId i = 2;  // a at v_i, b at v_{i+1}
    ExplorationConfig cfg = default_config(AlgorithmId::KnownNNoChirality, n);
    cfg.start_nodes = {i, static_cast<NodeId>(i + 1)};
    cfg.orientations = {agent::kChiralOrientation, agent::kChiralOrientation};
    cfg.stop.max_rounds = 10 * n;
    adversary::ScriptedEdgeAdversary adv(adversary::make_fig2_script(n, i),
                                         "fig2");
    const sim::RunResult r = run_exploration(cfg, &adv);
    expect_clean(r, "fig2 n=" + std::to_string(n));
    EXPECT_EQ(r.explored_round, 3 * n - 6) << "n=" << n;
  }
}

// Theorem 4 flavour: on a static ring the run must still take >= N-1
// rounds, since agents cannot distinguish the ring from a larger one.
TEST(KnownN, NeverFasterThanNMinus1OnStaticRing) {
  for (NodeId n : {5, 8, 12, 20}) {
    ExplorationConfig cfg = default_config(AlgorithmId::KnownNNoChirality, n);
    cfg.start_nodes = {0, 1};
    cfg.stop.max_rounds = 10 * n;
    sim::NullAdversary adv;
    const sim::RunResult r = run_exploration(cfg, &adv);
    expect_clean(r, "static n=" + std::to_string(n));
    for (const sim::AgentResult& a : r.agents)
      EXPECT_GE(a.termination_round, n - 1);
  }
}

// ---------------------------------------------------------------------------
// UnconsciousExploration (Theorem 5)
// ---------------------------------------------------------------------------

struct UnconsciousCase {
  std::int64_t n;
  std::uint64_t seed;
  std::uint64_t mirrored;  // 0 or 1
};
static_assert(sizeof(UnconsciousCase) == 24);

class UnconsciousSweep : public ::testing::TestWithParam<UnconsciousCase> {};

TEST_P(UnconsciousSweep, ExploresInLinearTime) {
  const auto [n, seed, mirrored] = GetParam();
  ExplorationConfig cfg =
      default_config(AlgorithmId::UnconsciousExploration, n);
  cfg.orientations = {agent::kChiralOrientation,
                      mirrored ? agent::kMirroredOrientation
                               : agent::kChiralOrientation};
  cfg.stop.max_rounds = 200 * n;  // generous O(n) envelope

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.7, 1.0, seed);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  EXPECT_TRUE(r.explored) << "n=" << n << " seed=" << seed;
  EXPECT_EQ(r.terminated_agents, 0);  // unconscious: nobody ever halts
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, UnconsciousSweep,
    ::testing::Values(UnconsciousCase{4, 0, false}, UnconsciousCase{4, 1, true},
                      UnconsciousCase{6, 0, true}, UnconsciousCase{6, 2, false},
                      UnconsciousCase{9, 3, true}, UnconsciousCase{9, 0, false},
                      UnconsciousCase{13, 4, true},
                      UnconsciousCase{13, 5, false},
                      UnconsciousCase{20, 6, true},
                      UnconsciousCase{20, 0, false},
                      UnconsciousCase{31, 7, true}));

TEST(Unconscious, SurvivesPerpetualBlockingOfOneAgent) {
  // Obs. 1 adversary pins agent 0; the other agent must still explore, and
  // the pinned agent's Bounce/Reverse machinery must not break.
  for (NodeId n : {6, 10}) {
    ExplorationConfig cfg =
        default_config(AlgorithmId::UnconsciousExploration, n);
    cfg.stop.max_rounds = 400 * n;
    adversary::BlockAgentAdversary adv(0);
    const sim::RunResult r = run_exploration(cfg, &adv);
    EXPECT_TRUE(r.explored) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// LandmarkWithChirality (Theorem 6)
// ---------------------------------------------------------------------------

struct LandmarkCase {
  NodeId n;
  NodeId start_a;
  std::int64_t start_b;
  std::uint64_t seed;
};
static_assert(sizeof(LandmarkCase) == 24);

class LandmarkChiralitySweep
    : public ::testing::TestWithParam<LandmarkCase> {};

TEST_P(LandmarkChiralitySweep, ExploresAndBothTerminate) {
  const auto [n, sa, sb, seed] = GetParam();
  ExplorationConfig cfg = default_config(AlgorithmId::LandmarkWithChirality, n);
  cfg.start_nodes = {sa, static_cast<NodeId>(sb)};
  cfg.stop.max_rounds = 2000 * n;  // far beyond the O(n) bound

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.7, 1.0, seed);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean(r, "landmark n=" + std::to_string(n));
  EXPECT_TRUE(r.all_terminated)
      << "n=" << n << " starts=" << sa << "," << sb << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, LandmarkChiralitySweep,
    ::testing::Values(LandmarkCase{5, 0, 0, 0}, LandmarkCase{5, 1, 3, 1},
                      LandmarkCase{6, 2, 2, 2}, LandmarkCase{6, 0, 3, 0},
                      LandmarkCase{8, 1, 5, 3}, LandmarkCase{8, 4, 4, 4},
                      LandmarkCase{11, 0, 6, 5}, LandmarkCase{11, 3, 9, 6},
                      LandmarkCase{16, 2, 10, 7}, LandmarkCase{16, 8, 8, 8},
                      LandmarkCase{23, 5, 17, 9}, LandmarkCase{23, 0, 1, 10}));

TEST(LandmarkChirality, StaticRingTerminatesLinearly) {
  for (NodeId n : {6, 12, 24, 48}) {
    ExplorationConfig cfg =
        default_config(AlgorithmId::LandmarkWithChirality, n);
    cfg.start_nodes = {1, static_cast<NodeId>(n / 2)};
    cfg.stop.max_rounds = 2000 * n;
    sim::NullAdversary adv;
    const sim::RunResult r = run_exploration(cfg, &adv);
    expect_clean(r, "static landmark n=" + std::to_string(n));
    EXPECT_TRUE(r.all_terminated);
    // O(n): Lemma 1 gives 7n-1 when the agents never catch each other;
    // allow the full constant of Theorem 6 (19n + slack) for catch runs.
    for (const sim::AgentResult& a : r.agents)
      EXPECT_LE(a.termination_round, 20 * n + 10) << "n=" << n;
  }
}

TEST(LandmarkChirality, PerpetualBlockOfOneAgent) {
  // One agent pinned forever: the other must explore; Lemma 2 says any
  // termination only happens after exploration.
  for (NodeId n : {6, 11}) {
    ExplorationConfig cfg =
        default_config(AlgorithmId::LandmarkWithChirality, n);
    cfg.start_nodes = {2, static_cast<NodeId>(n - 1)};
    cfg.stop.max_rounds = 4000 * n;
    adversary::BlockAgentAdversary adv(0);
    const sim::RunResult r = run_exploration(cfg, &adv);
    EXPECT_TRUE(r.explored) << "n=" << n;
    EXPECT_FALSE(r.premature_termination);
  }
}

// ---------------------------------------------------------------------------
// StartFromLandmarkNoChirality (Theorem 7) / LandmarkNoChirality (Theorem 8)
// ---------------------------------------------------------------------------

struct NoChiralityCase {
  NodeId n;
  std::uint32_t mirrored;  // 0 or 1: opposite orientations (the hard
                           // symmetric case)
  std::uint64_t seed;      // 0 = static ring
};
static_assert(sizeof(NoChiralityCase) == 16);

class StartFromLandmarkSweep
    : public ::testing::TestWithParam<NoChiralityCase> {};

TEST_P(StartFromLandmarkSweep, ExploresAndBothTerminate) {
  const auto [n, mirrored, seed] = GetParam();
  ExplorationConfig cfg =
      default_config(AlgorithmId::StartFromLandmarkNoChirality, n);
  cfg.orientations = {agent::kChiralOrientation,
                      mirrored ? agent::kMirroredOrientation
                               : agent::kChiralOrientation};
  cfg.stop.max_rounds = 40 * algo::no_chirality_time_bound(n);

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.6, 1.0, seed);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean(r, "start-from-landmark n=" + std::to_string(n));
  EXPECT_TRUE(r.all_terminated) << "n=" << n << " mirrored=" << mirrored
                                << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, StartFromLandmarkSweep,
    ::testing::Values(NoChiralityCase{5, true, 0}, NoChiralityCase{5, false, 1},
                      NoChiralityCase{6, true, 2}, NoChiralityCase{6, false, 0},
                      NoChiralityCase{8, true, 3}, NoChiralityCase{8, true, 4},
                      NoChiralityCase{11, true, 0},
                      NoChiralityCase{11, false, 5},
                      NoChiralityCase{16, true, 6}));

class LandmarkNoChiralitySweep
    : public ::testing::TestWithParam<NoChiralityCase> {};

TEST_P(LandmarkNoChiralitySweep, ArbitraryStartsExploreAndTerminate) {
  const auto [n, mirrored, seed] = GetParam();
  ExplorationConfig cfg = default_config(AlgorithmId::LandmarkNoChirality, n);
  cfg.start_nodes = {static_cast<NodeId>(1 % n),
                     static_cast<NodeId>((n / 2 + 1) % n)};
  cfg.orientations = {agent::kChiralOrientation,
                      mirrored ? agent::kMirroredOrientation
                               : agent::kChiralOrientation};
  cfg.stop.max_rounds = 80 * algo::no_chirality_time_bound(n);

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.6, 1.0, seed);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean(r, "landmark-no-chirality n=" + std::to_string(n));
  EXPECT_TRUE(r.all_terminated) << "n=" << n << " mirrored=" << mirrored
                                << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, LandmarkNoChiralitySweep,
    ::testing::Values(NoChiralityCase{5, true, 0}, NoChiralityCase{5, false, 2},
                      NoChiralityCase{6, true, 0}, NoChiralityCase{6, true, 3},
                      NoChiralityCase{8, false, 4}, NoChiralityCase{8, true, 5},
                      NoChiralityCase{11, true, 0},
                      NoChiralityCase{16, true, 6}));

// ---------------------------------------------------------------------------
// FSYNC impossibility replays (Theorems 1 and 2, Observations 1 and 2)
// ---------------------------------------------------------------------------

TEST(Impossibility, Obs1BlockedAgentNeverLeaves) {
  ExplorationConfig cfg = default_config(AlgorithmId::KnownNNoChirality, 8);
  cfg.num_agents = 1;
  cfg.start_nodes = {3};
  cfg.orientations = {agent::kChiralOrientation};
  cfg.stop.max_rounds = 5000;
  cfg.stop.stop_when_all_terminated = false;
  adversary::BlockAgentAdversary adv(0);
  const sim::RunResult r = run_exploration(cfg, &adv);
  EXPECT_FALSE(r.explored);
  EXPECT_EQ(r.agents[0].moves, 0);  // never moved at all
}

TEST(Impossibility, Obs2PreventsMeetingForever) {
  // Unconscious exploration visits everything, but under the
  // meeting-prevention adversary the agents never share a node.
  ExplorationConfig cfg =
      default_config(AlgorithmId::UnconsciousExploration, 9);
  cfg.start_nodes = {0, 4};
  cfg.engine.record_trace = true;
  cfg.stop.max_rounds = 3000;
  cfg.stop.stop_when_explored = false;
  cfg.stop.stop_when_all_terminated = false;
  adversary::PreventMeetingAdversary adv;

  auto engine = core::make_engine(cfg, &adv);
  engine->run(cfg.stop);
  for (const sim::RoundTrace& rt : engine->trace()) {
    ASSERT_EQ(rt.agents.size(), 2u);
    const auto& a = rt.agents[0];
    const auto& b = rt.agents[1];
    const bool both_in_node_proper =
        !a.on_port && !b.on_port && a.node == b.node;
    EXPECT_FALSE(both_in_node_proper) << "met at round " << rt.round;
  }
}

// Theorem 1/2 flavour: without any knowledge the agents cannot terminate;
// running the bound-based algorithm with a *wrong* (too small) "bound"
// on a larger ring makes it terminate prematurely — exactly the
// indistinguishability argument of the proof.
TEST(Impossibility, WrongBoundCausesPrematureTermination) {
  const NodeId n = 16;
  ExplorationConfig cfg = default_config(AlgorithmId::KnownNNoChirality, n);
  cfg.upper_bound = 6;  // lie: N < n
  cfg.start_nodes = {0, 1};
  cfg.orientations = {agent::kChiralOrientation, agent::kChiralOrientation};
  cfg.stop.max_rounds = 400;
  sim::NullAdversary adv;
  const sim::RunResult r = run_exploration(cfg, &adv);
  EXPECT_TRUE(r.premature_termination);
  EXPECT_FALSE(r.explored);
}

}  // namespace
}  // namespace dring
