// Declarative scenario descriptions and campaign grids.
//
// A ScenarioSpec is the data-only counterpart of an ExplorationConfig +
// adversary pair: algorithm by registry name, ring size, agent count k
// (0 = the theorem's count; k > the theorem's count opens the many-agent
// extension axis), an adversary family with parameters (including the
// T-interval-connectivity wrapper, T = 1 recovering the paper's model),
// a seed and a round cap.  Being plain data, a spec can be serialized to
// JSON, fingerprinted, expanded from a campaign grid, shipped to a worker
// pool, and diffed across commits — none of which a std::function-carrying
// ScenarioTask can do.
//
// A CampaignSpec is a grid over those axes; expand() takes the cartesian
// product into a flat std::vector<ScenarioSpec>.  Per-cell seeds derive
// from (salt, cell fingerprint, seed index), so adding values to an axis
// never changes the seeds — or fingerprints — of existing cells: growing a
// campaign and re-running with --resume only executes the new rows.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "util/json.hpp"

namespace dring::core {

/// Adversary family + parameters, as data.  Families:
///
///   "null"            no removals, everyone active
///   "random"          uniform removals (remove_prob) + SSYNC activation
///   "targeted-random" removes a mover's edge (target_prob), else uniform
///   "fixed-edge"      perpetually removes `edge`
///   "block-agent"     Obs. 1: always removes agent `victim`'s desired edge
///   "prevent-meeting" Obs. 2: removes an edge only to prevent a meeting
///   "ns-first-mover"  Th. 9: starves movers under NS
///   "rotation"        activates one agent at a time (`dwell` rounds each)
///   "fig2"            the exact Figure 2 worst-case schedule anchored at
///                     node `edge` (needs the scenario's ring size)
///   "sliding-window"  Th. 13/15 move-forcing window (leader 0, chaser 1)
///   "head-on-pin"     Th. 10: pin agents 0 and 1 on one edge forever
///   "segment-seal"    Th. 19: seal the segment between `edge` and `edge_b`
///   "edge-window"     remove `edge` during rounds [window_lo, window_hi]
///                     (the scripted single-interval schedules of the
///                     figure artifacts)
///
/// Any family can additionally be wrapped in the T-interval-connectivity
/// decorator by setting t_interval > 1 (adversary/t_interval.hpp).
struct AdversarySpec {
  std::string family = "null";
  double remove_prob = 0.5;      ///< "random"
  double target_prob = 0.5;      ///< "targeted-random"
  double activation_prob = 1.0;  ///< "random" / "targeted-random"
  EdgeId edge = 0;               ///< "fixed-edge"/"segment-seal"/"edge-window";
                                 ///< anchor node for "fig2"
  EdgeId edge_b = 0;             ///< "segment-seal": the second seal edge
  AgentId victim = 0;            ///< "block-agent"
  Round dwell = 1;               ///< "rotation"
  Round window_lo = 0;           ///< "edge-window": first removal round
  Round window_hi = 0;           ///< "edge-window": last removal round
  Round t_interval = 1;          ///< wrap in TIntervalAdversary when > 1

  friend bool operator==(const AdversarySpec&, const AdversarySpec&) = default;
};

/// One fully-determined scenario, as data.
struct ScenarioSpec {
  std::string algorithm = "KnownNNoChirality";  ///< registry name
  NodeId n = 8;
  /// 0 = the theorem's agent count. Larger values re-derive the default
  /// placements (even spread) and orientations (alternating when the
  /// algorithm does not require chirality) for k agents.
  int num_agents = 0;
  AdversarySpec adversary;
  std::uint64_t seed = 0;
  /// 0 = default budget (2000*n + 200000 rounds).
  Round max_rounds = 0;
  /// Optional synchrony-model override ("FSYNC", "SSYNC/NS", "SSYNC/PT",
  /// "SSYNC/ET"); empty = the algorithm's native model.
  std::string model;
  /// Explicit start nodes (empty = the theorem's default placement).
  /// Needed by the paper-artifact scenarios lifted from the proof
  /// constructions (Figure 2, the sliding-window dance).
  std::vector<NodeId> start_nodes;
  /// Per-agent orientations: one char per agent, 'c' = chiral (local left
  /// maps to global Ccw), 'm' = mirrored.  Empty = the algorithm's default
  /// orientation policy.
  std::string orientations;
  /// Landmark node override; applied only when the algorithm's default
  /// config places a landmark.  -1 = keep the default placement.
  NodeId landmark = -1;
  /// Engine fairness-window override (0 = the engine default).
  Round fairness_window = 0;
  /// Stop as soon as the ring is explored and one agent terminated — the
  /// partial-termination measurement mode of the table benches.
  bool stop_explored_one_terminated = false;
  /// Knowledge overrides: replace the theorem's default bound N = n /
  /// exact-n knowledge with a looser (or wrong) value.  Applied only when
  /// the algorithm carries that kind of knowledge — they never add
  /// knowledge the theorem does not assume.  0 = keep the default.  The
  /// impossibility artifacts (Th. 1/2, Th. 19) and the bound-looseness
  /// ablation are built on these.
  Round upper_bound = 0;
  Round exact_n = 0;
  /// ET-budget engine override (0 = the engine default).
  Round et_budget = 0;
  /// Stop-policy override: "" = the algorithm's default policy,
  /// "explored" = stop as soon as every node is visited (coverage
  /// measurement), "horizon" = never stop early — run the full
  /// max_rounds horizon (the expect-failure mode of the impossibility
  /// artifacts).
  std::string stop_mode;
  /// Free-form variant label for scenarios whose behaviour is not fully
  /// captured by the other fields (hand-built engines behind
  /// ArtifactScenario::run_custom: ablation guess policies, random-walk
  /// baselines, many-agent teams).  Participates in the fingerprint only;
  /// build_config ignores it.
  std::string variant;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// A parameter grid over the scenario axes. Empty axis vectors mean "the
/// single default value": agent_counts -> {0}, adversaries -> {null}, and
/// an empty t_intervals leaves each adversary's own t_interval untouched
/// (a non-empty axis overrides it for every adversary).
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<std::string> algorithms;
  std::vector<NodeId> sizes;
  std::vector<int> agent_counts;
  std::vector<AdversarySpec> adversaries;
  std::vector<Round> t_intervals;
  int seeds_per_cell = 1;
  std::uint64_t salt = 1;
  Round max_rounds = 0;  ///< forwarded to every ScenarioSpec
};

// --- spec -> executable ---------------------------------------------------

/// Materialize the engine configuration a spec describes (throws
/// std::invalid_argument on unknown algorithm/model names or bad counts).
ExplorationConfig build_config(const ScenarioSpec& spec);

/// Thread-safe factory for the spec's adversary (each call builds a fresh
/// private instance; see ScenarioTask::make_adversary).  `n` is the
/// scenario's ring size — required by the "fig2" family, ignored by the
/// others.
std::function<std::unique_ptr<sim::Adversary>()> make_adversary_factory(
    const AdversarySpec& spec, std::uint64_t seed, NodeId n = 0);

/// Full translation to a sweep task.
ScenarioTask to_task(const ScenarioSpec& spec);

/// The adversary family names make_adversary_factory accepts.
std::vector<std::string> adversary_families();

/// Whether the family's adversary reads the scenario seed ("random" and
/// "targeted-random" do).  Unknown families count as seed-reading.
bool adversary_uses_seed(const std::string& family);

// --- behaviour ------------------------------------------------------------

/// Group cells that replay one identical run.  A run reads its spec minus
/// two fields: the seed, unless the algorithm (AlgorithmInfo::uses_seed)
/// or the adversary family (adversary_uses_seed) reads it, and t_interval
/// under the "null" family, which never removes an edge.  The rest of the
/// spec is the cell's *behaviour key*.  For each position p of `cells`
/// (indices into `specs`) the result holds the position of the first cell
/// with p's key, so p is a representative iff result[p] == p.  Throws
/// std::invalid_argument on an unknown algorithm name.
std::vector<std::size_t> behaviour_representatives(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<std::size_t>& cells);

// --- identity -------------------------------------------------------------

/// Order-independent 64-bit identity of a spec: FNV-1a over the canonical
/// JSON dump, so equal specs fingerprint equally on every platform. The
/// JSONL result store keys resumability on this value.
std::uint64_t fingerprint(const ScenarioSpec& spec);

/// Canonical "0x%016x" rendering used for seeds, salts and fingerprints
/// throughout the JSON layer (64-bit values exceed JSON's exact-integer
/// range, so they travel as hex strings).
std::string hex_u64(std::uint64_t value);

// --- JSON -----------------------------------------------------------------

util::Json to_json(const AdversarySpec& spec);
util::Json to_json(const ScenarioSpec& spec);
util::Json to_json(const CampaignSpec& spec);
AdversarySpec adversary_spec_from_json(const util::Json& j);
ScenarioSpec scenario_spec_from_json(const util::Json& j);
CampaignSpec campaign_spec_from_json(const util::Json& j);

// --- grid expansion -------------------------------------------------------

/// Cartesian product of the campaign's axes, in a stable order
/// (algorithm, size, agent count, adversary, T, seed index). Seeds are a
/// pure function of (salt, cell identity, seed index) — independent of the
/// cell's position in the grid.
std::vector<ScenarioSpec> expand(const CampaignSpec& campaign);

}  // namespace dring::core
