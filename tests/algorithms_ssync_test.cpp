// Integration tests of the SSYNC algorithms (Section 4 of the paper):
// the PT family (Theorems 12, 14, 16, 17), ET unconscious exploration
// (Theorem 18) and ETBoundNoChirality (Theorem 20), plus replays of the
// SSYNC impossibility constructions (Theorems 9, 10, 19) and of the
// sliding-window move-forcing adversary (Theorems 11/12/13/15).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "adversary/basic_adversaries.hpp"
#include "adversary/proof_adversaries.hpp"
#include "core/runner.hpp"

namespace dring {
namespace {

using algo::AlgorithmId;
using core::default_config;
using core::ExplorationConfig;
using core::run_exploration;

void expect_clean_partial(const sim::RunResult& r, const std::string& ctx) {
  EXPECT_TRUE(r.explored) << ctx << ": not explored (" << r.stop_reason << ")";
  EXPECT_FALSE(r.premature_termination) << ctx << ": premature termination";
  EXPECT_TRUE(r.violations.empty()) << ctx << ": " << r.violations[0];
  EXPECT_GE(r.terminated_agents, 1) << ctx << ": nobody terminated";
}

// Padding-free, so the raw-byte test ids gtest prints are deterministic
// (see algorithms_fsync_test.cpp).
struct SsyncCase {
  std::int64_t n;
  std::uint64_t seed;
  double act_p;  // activation probability
};
static_assert(sizeof(SsyncCase) == 24);

// Id suffix "n<N>_seed<S>" for the two PT chirality suites.  Their suite
// and test names are long, so the byte-dump id shows only n within its
// first 100 characters, where test reports often cut a name, and two
// cases with the same ring size would read as one test.
std::string ssync_case_name(const ::testing::TestParamInfo<SsyncCase>& info) {
  return "n" + std::to_string(info.param.n) + "_seed" +
         std::to_string(info.param.seed);
}

// ---------------------------------------------------------------------------
// PTBoundWithChirality (Theorem 12)
// ---------------------------------------------------------------------------

class PTBoundChiralitySweep : public ::testing::TestWithParam<SsyncCase> {};

TEST_P(PTBoundChiralitySweep, ExploresWithPartialTermination) {
  const auto [n, seed, act_p] = GetParam();
  ExplorationConfig cfg = default_config(AlgorithmId::PTBoundWithChirality, n);
  cfg.stop.max_rounds = 4000LL * n * n;

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.6, act_p,
                                                               seed * 31 + n);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean_partial(r, "PTBound n=" + std::to_string(n));
  // O(N^2) moves with a small constant (Theorem 12).
  EXPECT_LE(r.total_moves, 20LL * n * n + 100);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PTBoundChiralitySweep,
    ::testing::Values(SsyncCase{4, 0, 1.0}, SsyncCase{4, 1, 0.7},
                      SsyncCase{5, 2, 0.5}, SsyncCase{6, 0, 1.0},
                      SsyncCase{6, 3, 0.6}, SsyncCase{8, 4, 0.8},
                      SsyncCase{8, 5, 0.4}, SsyncCase{11, 6, 0.6},
                      SsyncCase{16, 7, 0.7}, SsyncCase{16, 8, 0.3},
                      SsyncCase{23, 9, 0.5}),
    ssync_case_name);

TEST(PTBoundChirality, LooseBoundStillWorks) {
  for (NodeId n : {5, 9}) {
    ExplorationConfig cfg =
        default_config(AlgorithmId::PTBoundWithChirality, n);
    cfg.upper_bound = 2 * n + 1;
    cfg.stop.max_rounds = 4000LL * n * n;
    adversary::TargetedRandomAdversary adv(0.5, 0.7, 11 + n);
    const sim::RunResult r = run_exploration(cfg, &adv);
    expect_clean_partial(r, "loose PTBound n=" + std::to_string(n));
  }
}

// ---------------------------------------------------------------------------
// PTLandmarkWithChirality (Theorem 14)
// ---------------------------------------------------------------------------

class PTLandmarkChiralitySweep : public ::testing::TestWithParam<SsyncCase> {};

TEST_P(PTLandmarkChiralitySweep, ExploresWithPartialTermination) {
  const auto [n, seed, act_p] = GetParam();
  ExplorationConfig cfg =
      default_config(AlgorithmId::PTLandmarkWithChirality, n);
  cfg.stop.max_rounds = 4000LL * n * n;

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.6, act_p,
                                                               seed * 17 + n);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean_partial(r, "PTLandmark n=" + std::to_string(n));
  EXPECT_LE(r.total_moves, 20LL * n * n + 100);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PTLandmarkChiralitySweep,
    ::testing::Values(SsyncCase{4, 0, 1.0}, SsyncCase{5, 1, 0.6},
                      SsyncCase{6, 2, 0.8}, SsyncCase{8, 0, 1.0},
                      SsyncCase{8, 3, 0.5}, SsyncCase{11, 4, 0.7},
                      SsyncCase{16, 5, 0.4}, SsyncCase{23, 6, 0.6}),
    ssync_case_name);

// ---------------------------------------------------------------------------
// PTBoundNoChirality / PTLandmarkNoChirality (Theorems 16 and 17)
// ---------------------------------------------------------------------------

class PTThreeAgentsSweep : public ::testing::TestWithParam<SsyncCase> {};

TEST_P(PTThreeAgentsSweep, BoundVariantExplores) {
  const auto [n, seed, act_p] = GetParam();
  ExplorationConfig cfg = default_config(AlgorithmId::PTBoundNoChirality, n);
  cfg.stop.max_rounds = 4000LL * n * n;

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.6, act_p,
                                                               seed * 13 + n);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean_partial(r, "PT3Bound n=" + std::to_string(n));
  EXPECT_LE(r.total_moves, 40LL * n * n + 200);
}

TEST_P(PTThreeAgentsSweep, LandmarkVariantExplores) {
  const auto [n, seed, act_p] = GetParam();
  ExplorationConfig cfg =
      default_config(AlgorithmId::PTLandmarkNoChirality, n);
  cfg.stop.max_rounds = 4000LL * n * n;

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.6, act_p,
                                                               seed * 7 + n);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean_partial(r, "PT3Landmark n=" + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PTThreeAgentsSweep,
    ::testing::Values(SsyncCase{4, 0, 1.0}, SsyncCase{5, 1, 0.7},
                      SsyncCase{6, 2, 0.5}, SsyncCase{8, 0, 1.0},
                      SsyncCase{8, 3, 0.6}, SsyncCase{11, 4, 0.8},
                      SsyncCase{16, 5, 0.5}, SsyncCase{23, 6, 0.7}));

TEST(PTThreeAgents, AllOrientationAssignments) {
  // 3 agents, all 8 orientation assignments, hostile dynamics.
  const NodeId n = 7;
  for (int mask = 0; mask < 8; ++mask) {
    ExplorationConfig cfg = default_config(AlgorithmId::PTBoundNoChirality, n);
    cfg.orientations.clear();
    for (int i = 0; i < 3; ++i)
      cfg.orientations.push_back((mask >> i) & 1
                                     ? agent::kMirroredOrientation
                                     : agent::kChiralOrientation);
    cfg.stop.max_rounds = 4000LL * n * n;
    adversary::TargetedRandomAdversary adv(0.6, 0.7, 555 + mask);
    const sim::RunResult r = run_exploration(cfg, &adv);
    expect_clean_partial(r, "mask=" + std::to_string(mask));
  }
}

// ---------------------------------------------------------------------------
// ETUnconscious (Theorem 18)
// ---------------------------------------------------------------------------

class ETUnconsciousSweep : public ::testing::TestWithParam<SsyncCase> {};

TEST_P(ETUnconsciousSweep, EventuallyExploresWithoutTerminating) {
  const auto [n, seed, act_p] = GetParam();
  ExplorationConfig cfg = default_config(AlgorithmId::ETUnconscious, n);
  cfg.stop.max_rounds = 100'000LL + 1000LL * n;

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.5, act_p,
                                                               seed * 41 + n);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  EXPECT_TRUE(r.explored) << "n=" << n << " seed=" << seed;
  EXPECT_EQ(r.terminated_agents, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ETUnconsciousSweep,
    ::testing::Values(SsyncCase{4, 0, 1.0}, SsyncCase{5, 1, 0.6},
                      SsyncCase{8, 2, 0.7}, SsyncCase{11, 3, 0.5},
                      SsyncCase{16, 4, 0.8}));

// ---------------------------------------------------------------------------
// ETBoundNoChirality (Theorem 20)
// ---------------------------------------------------------------------------

class ETBoundSweep : public ::testing::TestWithParam<SsyncCase> {};

TEST_P(ETBoundSweep, ExploresWithPartialTermination) {
  const auto [n, seed, act_p] = GetParam();
  ExplorationConfig cfg = default_config(AlgorithmId::ETBoundNoChirality, n);
  cfg.stop.max_rounds = 200'000LL + 4000LL * n * n;

  std::unique_ptr<sim::Adversary> adv;
  if (seed == 0) {
    adv = std::make_unique<sim::NullAdversary>();
  } else {
    adv = std::make_unique<adversary::TargetedRandomAdversary>(0.5, act_p,
                                                               seed * 29 + n);
  }
  const sim::RunResult r = run_exploration(cfg, adv.get());
  expect_clean_partial(r, "ETBound n=" + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ETBoundSweep,
    ::testing::Values(SsyncCase{4, 0, 1.0}, SsyncCase{5, 1, 0.7},
                      SsyncCase{6, 2, 0.5}, SsyncCase{8, 3, 0.6},
                      SsyncCase{11, 4, 0.8}, SsyncCase{16, 5, 0.6}));

// ---------------------------------------------------------------------------
// Theorem 9: NS impossibility replay
// ---------------------------------------------------------------------------

TEST(SsyncImpossibility, NsFirstMoverStopsEveryAlgorithm) {
  // Under the Theorem 9 scheduler no agent ever moves, for ANY protocol;
  // we replay it against the strongest algorithms in the library.
  for (const AlgorithmId id :
       {AlgorithmId::PTBoundWithChirality, AlgorithmId::PTBoundNoChirality,
        AlgorithmId::ETBoundNoChirality}) {
    const NodeId n = 8;
    ExplorationConfig cfg = default_config(id, n);
    cfg.model = sim::Model::SSYNC_NS;  // the NS model (Theorem 9's setting)
    cfg.engine.fairness_window = 1'000'000;  // the scheduler is fair itself
    cfg.stop.max_rounds = 20'000;
    cfg.stop.stop_when_all_terminated = false;
    cfg.stop.stop_when_explored_and_one_terminated = false;
    adversary::NsFirstMoverAdversary adv;
    const sim::RunResult r = run_exploration(cfg, &adv);
    EXPECT_FALSE(r.explored) << algo::info(id).name;
    EXPECT_EQ(r.total_moves, 0) << algo::info(id).name;
  }
}

// ---------------------------------------------------------------------------
// Theorem 10: PT, two agents, no chirality — head-on pin demonstration
// ---------------------------------------------------------------------------

TEST(SsyncImpossibility, HeadOnPinStarvesTwoAgentsWithoutChirality) {
  const NodeId n = 9;
  ExplorationConfig cfg = default_config(AlgorithmId::PTLandmarkWithChirality, n);
  // Violate the chirality assumption: mirrored orientations, so the two
  // agents approach head-on and the Theorem 10 adversary pins them.
  cfg.orientations = {agent::kChiralOrientation, agent::kMirroredOrientation};
  cfg.start_nodes = {2, 7};
  cfg.stop.max_rounds = 30'000;
  cfg.stop.stop_when_all_terminated = false;
  cfg.stop.stop_when_explored_and_one_terminated = false;
  adversary::HeadOnPinAdversary adv(0, 1);
  const sim::RunResult r = run_exploration(cfg, &adv);
  EXPECT_FALSE(r.explored);
  EXPECT_TRUE(adv.pinned().has_value());
  EXPECT_EQ(r.terminated_agents, 0);
}

// ---------------------------------------------------------------------------
// Theorems 11/12/13: sliding-window behaviour — one agent terminates, the
// other waits forever; quadratically many moves are forced.
// ---------------------------------------------------------------------------

TEST(SlidingWindow, ForcesQuadraticMovesAndOnlyPartialTermination) {
  const NodeId n = 16;
  const NodeId x = n / 2;  // initial window size
  ExplorationConfig cfg = default_config(AlgorithmId::PTBoundWithChirality, n);
  // Leader (agent 0) at the window's left end, chaser (agent 1) at its
  // right end; both travel left = Ccw, so leader = higher index.
  cfg.start_nodes = {static_cast<NodeId>(x - 1), 0};
  cfg.orientations = {agent::kChiralOrientation, agent::kChiralOrientation};
  cfg.engine.fairness_window = 4096;
  cfg.stop.max_rounds = 500LL * n * n;
  cfg.stop.stop_when_explored_and_one_terminated = true;
  adversary::SlidingWindowAdversary adv(0, 1);
  const sim::RunResult r = run_exploration(cfg, &adv);

  EXPECT_TRUE(r.explored);
  EXPECT_FALSE(r.premature_termination);
  EXPECT_EQ(r.terminated_agents, 1);          // Theorem 11: only partial
  EXPECT_TRUE(r.agents[1].terminated);        // the chaser halts
  EXPECT_FALSE(r.agents[0].terminated);       // the leader waits forever
  EXPECT_GT(adv.shifts(), 0);
  // Theorem 13: at least x*(N-x)/2 forced moves (we use a safety factor).
  EXPECT_GE(r.total_moves, static_cast<long long>(x) * (n - x) / 2);
}

TEST(SlidingWindow, LandmarkVariantAlsoForcedQuadratic) {
  const NodeId n = 12;
  const NodeId x = n / 2;
  ExplorationConfig cfg =
      default_config(AlgorithmId::PTLandmarkWithChirality, n);
  cfg.landmark = 1;  // inside the initial window
  cfg.start_nodes = {static_cast<NodeId>(x - 1), 0};
  cfg.orientations = {agent::kChiralOrientation, agent::kChiralOrientation};
  cfg.engine.fairness_window = 4096;
  cfg.stop.max_rounds = 2000LL * n * n;
  adversary::SlidingWindowAdversary adv(0, 1);
  const sim::RunResult r = run_exploration(cfg, &adv);
  EXPECT_TRUE(r.explored);
  EXPECT_FALSE(r.premature_termination);
  EXPECT_GE(r.terminated_agents, 1);
  EXPECT_GE(r.total_moves, static_cast<long long>(x) * (n - x) / 2);
}

// ---------------------------------------------------------------------------
// Theorem 19: ET with only a bound — indistinguishability replay
// ---------------------------------------------------------------------------

TEST(SsyncImpossibility, SegmentSealMakesBoundedKnowledgeTerminateWrongly) {
  // Ring R2 of size 12; the agents believe n = 8 and live in the sealed
  // segment {0..7} delimited by edges 7 and 11.  The seal alternates which
  // edge is missing while passivating the agents pressing on the other —
  // exactly the Theorem 19 schedule.  The agents cannot distinguish R2
  // from the ring R1 of size 8 with one edge perpetually missing, so one
  // of them terminates while R2 is unexplored.
  const NodeId n2 = 12;
  ExplorationConfig cfg = default_config(AlgorithmId::ETBoundNoChirality, n2);
  cfg.exact_n = 8;  // what the agents believe (true in R1, false in R2)
  cfg.start_nodes = {1, 4, 6};
  cfg.engine.et_budget = 1'000'000;       // ET allows any finite schedule
  cfg.engine.fairness_window = 1'000'000; // seal scheduler is fair enough
  cfg.stop.max_rounds = 50'000;
  cfg.stop.stop_when_all_terminated = false;
  cfg.stop.stop_when_explored_and_one_terminated = false;
  adversary::SegmentSealAdversary adv(7, 11);
  const sim::RunResult r = run_exploration(cfg, &adv);
  EXPECT_FALSE(r.explored);
  EXPECT_GE(r.terminated_agents, 1);
  EXPECT_TRUE(r.premature_termination);  // terminated on the wrong "ring"
}

// The same configuration with the *correct* knowledge n = 12 must never
// terminate under the seal (nothing outside the segment is reachable, and
// Tnodes stays < 12): partial termination with a bound alone is impossible.
TEST(SsyncImpossibility, SegmentSealWithTrueSizeNeverTerminates) {
  const NodeId n2 = 12;
  ExplorationConfig cfg = default_config(AlgorithmId::ETBoundNoChirality, n2);
  cfg.start_nodes = {1, 4, 6};
  cfg.engine.et_budget = 1'000'000;
  cfg.engine.fairness_window = 1'000'000;
  cfg.stop.max_rounds = 50'000;
  cfg.stop.stop_when_all_terminated = false;
  cfg.stop.stop_when_explored_and_one_terminated = false;
  adversary::SegmentSealAdversary adv(7, 11);
  const sim::RunResult r = run_exploration(cfg, &adv);
  EXPECT_FALSE(r.explored);
  EXPECT_EQ(r.terminated_agents, 0);
  EXPECT_FALSE(r.premature_termination);
}

}  // namespace
}  // namespace dring
