// Registry of every algorithm in the paper, with the assumptions each one
// requires (Tables 2 and 4).  The core runner and the benches construct
// brains through this registry.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "agent/brain.hpp"
#include "sim/models.hpp"

namespace dring::algo {

enum class AlgorithmId {
  // FSYNC (Table 2).
  KnownNNoChirality,             // Th. 3: 2 agents, bound N, 3N-6 rounds
  UnconsciousExploration,        // Th. 5: 2 agents, nothing, O(n), no term.
  LandmarkWithChirality,         // Th. 6: 2 agents, landmark+chirality, O(n)
  StartFromLandmarkNoChirality,  // Th. 7: 2 agents from landmark, O(n log n)
  LandmarkNoChirality,           // Th. 8: 2 agents, landmark, O(n log n)
  // SSYNC (Table 4).
  PTBoundWithChirality,    // Th. 12: PT, 2 agents, chirality+bound, O(N^2)
  PTLandmarkWithChirality, // Th. 14: PT, 2 agents, chirality+landmark, O(n^2)
  PTBoundNoChirality,      // Th. 16: PT, 3 agents, bound, O(N^2)
  PTLandmarkNoChirality,   // Th. 17: PT, 3 agents, landmark, O(n^2)
  ETUnconscious,           // Th. 18: ET, 2 agents, chirality, unconscious
  ETBoundNoChirality,      // Th. 20: ET, 3 agents, exact n
};

/// Static description of an algorithm's published requirements and claims.
struct AlgorithmInfo {
  AlgorithmId id;
  std::string name;
  std::string theorem;       ///< e.g. "Th. 3"
  sim::Model model;          ///< model the result is stated for
  int num_agents;            ///< number of agents the theorem uses
  bool needs_upper_bound;    ///< requires knowledge of N >= n
  bool needs_exact_n;        ///< requires knowledge of n
  bool needs_landmark;       ///< requires a landmark node
  bool needs_chirality;      ///< requires common chirality
  bool terminating;          ///< false for unconscious protocols
  std::string complexity;    ///< paper-claimed cost
  /// The brain reads the scenario seed (a randomized protocol).  Every
  /// paper algorithm is deterministic, so all registry entries say false;
  /// campaigns replay one run for all seeds of a cell unless this or the
  /// adversary family's flag is set (core/scenario_spec.hpp).
  bool uses_seed = false;
};

/// All registered algorithms.
const std::vector<AlgorithmInfo>& all_algorithms();

/// Lookup by id.
const AlgorithmInfo& info(AlgorithmId id);

/// Lookup by name (exact match); throws std::invalid_argument if unknown.
const AlgorithmInfo& info_by_name(const std::string& name);

/// Instantiate a brain. `knowledge` must satisfy the algorithm's
/// requirements (validated; throws std::invalid_argument otherwise).
std::unique_ptr<agent::Brain> make_brain(AlgorithmId id,
                                         agent::Knowledge knowledge);

}  // namespace dring::algo
