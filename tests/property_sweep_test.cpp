// Property sweeps: the paper's correctness conditions checked over a
// large randomized scenario matrix.
//
// For every terminating algorithm, under its stated assumptions, for every
// scenario in (ring sizes x adversary families x seeds x placements x
// orientations):
//
//   P1  the ring is explored;
//   P2  no agent enters the terminal state before exploration is complete;
//   P3  the termination discipline matches the theorem (explicit for
//       FSYNC, >= 1 agent for SSYNC partial termination);
//   P4  the engine's model invariants hold (no verifier findings);
//   P5  runs are deterministic functions of the scenario.
//
// Unconscious protocols are checked for P1/P4 plus "nobody halts".
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "adversary/basic_adversaries.hpp"
#include "adversary/proof_adversaries.hpp"
#include "algo/id_encoding.hpp"
#include "core/runner.hpp"
#include "util/rng.hpp"

namespace dring {
namespace {

using algo::AlgorithmId;

// Padding-free, so the raw-byte dump at the end of each test id is
// deterministic (see algorithms_fsync_test.cpp).
struct Scenario {
  AlgorithmId algorithm;
  NodeId n;
  std::int64_t adversary_kind;  // 0 static, 1 fixed-edge, 2 random,
                                // 3 targeted, 4 rotation (SSYNC only;
                                // static for FSYNC)
  std::uint64_t seed;
};
static_assert(sizeof(Scenario) == 24);

std::string scenario_name(const Scenario& s) {
  static const char* kAdversaries[] = {"static", "fixed", "random",
                                       "targeted", "rotation"};
  std::ostringstream ss;
  ss << algo::info(s.algorithm).name << "/n" << s.n << "/"
     << kAdversaries[s.adversary_kind] << "/s" << s.seed;
  return ss.str();
}

std::unique_ptr<sim::Adversary> make_adversary(const Scenario& s,
                                               bool ssync) {
  switch (s.adversary_kind) {
    case 1:
      return std::make_unique<adversary::FixedEdgeAdversary>(
          static_cast<EdgeId>(s.seed % s.n));
    case 2:
      return std::make_unique<adversary::RandomAdversary>(0.55, 0.65,
                                                          s.seed * 2654435761);
    case 3:
      return std::make_unique<adversary::TargetedRandomAdversary>(
          0.7, 0.6, s.seed * 40503 + s.n);
    case 4:
      if (ssync)
        return std::make_unique<adversary::RotationActivationAdversary>(2);
      return std::make_unique<sim::NullAdversary>();
    default:
      return std::make_unique<sim::NullAdversary>();
  }
}

/// Randomize placements/orientations from the scenario seed, respecting
/// the algorithm's requirements (chirality; start-at-landmark).
void randomize(core::ExplorationConfig& cfg, const Scenario& s) {
  const algo::AlgorithmInfo& meta = algo::info(s.algorithm);
  util::Rng rng(s.seed * 11400714819323198485ULL + s.n);
  if (s.algorithm != AlgorithmId::StartFromLandmarkNoChirality) {
    for (auto& start : cfg.start_nodes)
      start = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(s.n)));
  }
  if (!meta.needs_chirality) {
    for (auto& o : cfg.orientations)
      o = rng.chance(0.5) ? agent::kChiralOrientation
                          : agent::kMirroredOrientation;
  }
}

sim::RunResult run_scenario(const Scenario& s) {
  const algo::AlgorithmInfo& meta = algo::info(s.algorithm);
  core::ExplorationConfig cfg = core::default_config(s.algorithm, s.n);
  randomize(cfg, s);
  // Generous budget: covers the Theorem 7/8 O(n log n) constants and the
  // quadratic SSYNC move bounds.
  cfg.stop.max_rounds =
      200'000LL + 200LL * algo::no_chirality_time_bound(s.n);
  auto adv = make_adversary(s, sim::is_ssync(meta.model));
  return core::run_exploration(cfg, adv.get());
}

class TerminatingSweep : public ::testing::TestWithParam<Scenario> {};

TEST_P(TerminatingSweep, CorrectnessProperties) {
  const Scenario& s = GetParam();
  const algo::AlgorithmInfo& meta = algo::info(s.algorithm);
  const sim::RunResult r = run_scenario(s);
  const std::string name = scenario_name(s);

  EXPECT_TRUE(r.explored) << name << " (" << r.stop_reason << ")";     // P1
  EXPECT_FALSE(r.premature_termination) << name;                       // P2
  if (meta.model == sim::Model::FSYNC) {                               // P3
    EXPECT_TRUE(r.all_terminated) << name;
  } else {
    EXPECT_GE(r.terminated_agents, 1) << name;
  }
  EXPECT_TRUE(r.violations.empty()) << name;                           // P4
}

class UnconsciousSweep2 : public ::testing::TestWithParam<Scenario> {};

TEST_P(UnconsciousSweep2, ExploresWithoutHalting) {
  const Scenario& s = GetParam();
  const sim::RunResult r = run_scenario(s);
  const std::string name = scenario_name(s);
  EXPECT_TRUE(r.explored) << name << " (" << r.stop_reason << ")";
  EXPECT_EQ(r.terminated_agents, 0) << name;
  EXPECT_TRUE(r.violations.empty()) << name;
}

TEST_P(TerminatingSweep, Deterministic) {  // P5
  const Scenario& s = GetParam();
  if (s.seed % 3 != 0) GTEST_SKIP() << "determinism spot-check subset";
  const sim::RunResult a = run_scenario(s);
  const sim::RunResult b = run_scenario(s);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.terminated_agents, b.terminated_agents);
}

std::vector<Scenario> terminating_matrix() {
  std::vector<Scenario> out;
  const AlgorithmId algos[] = {
      AlgorithmId::KnownNNoChirality,
      AlgorithmId::LandmarkWithChirality,
      AlgorithmId::StartFromLandmarkNoChirality,
      AlgorithmId::LandmarkNoChirality,
      AlgorithmId::PTBoundWithChirality,
      AlgorithmId::PTLandmarkWithChirality,
      AlgorithmId::PTBoundNoChirality,
      AlgorithmId::PTLandmarkNoChirality,
      AlgorithmId::ETBoundNoChirality,
  };
  const NodeId sizes[] = {4, 7, 12};
  std::uint64_t seed = 1;
  for (const AlgorithmId a : algos)
    for (const NodeId n : sizes)
      for (int adv = 0; adv <= 4; ++adv)
        out.push_back({a, n, adv, seed++});
  return out;
}

std::vector<Scenario> unconscious_matrix() {
  std::vector<Scenario> out;
  const AlgorithmId algos[] = {AlgorithmId::UnconsciousExploration,
                               AlgorithmId::ETUnconscious};
  const NodeId sizes[] = {4, 7, 12, 19};
  std::uint64_t seed = 1000;
  for (const AlgorithmId a : algos)
    for (const NodeId n : sizes)
      for (int adv = 0; adv <= 4; ++adv)
        out.push_back({a, n, adv, seed++});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, TerminatingSweep,
                         ::testing::ValuesIn(terminating_matrix()),
                         [](const auto& info) {
                           std::string name = scenario_name(info.param);
                           for (char& c : name)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(Matrix, UnconsciousSweep2,
                         ::testing::ValuesIn(unconscious_matrix()),
                         [](const auto& info) {
                           std::string name = scenario_name(info.param);
                           for (char& c : name)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

}  // namespace
}  // namespace dring
