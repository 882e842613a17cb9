#include "core/scenario_spec.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "adversary/basic_adversaries.hpp"
#include "adversary/proof_adversaries.hpp"
#include "adversary/t_interval.hpp"
#include "util/fingerprint.hpp"

namespace dring::core {

namespace {

sim::Model model_from_string(const std::string& s) {
  if (s == "FSYNC") return sim::Model::FSYNC;
  if (s == "SSYNC/NS") return sim::Model::SSYNC_NS;
  if (s == "SSYNC/PT") return sim::Model::SSYNC_PT;
  if (s == "SSYNC/ET") return sim::Model::SSYNC_ET;
  throw std::invalid_argument("unknown model: " + s);
}

/// Strict: "0x..." hex or plain decimal digits, nothing else.
std::uint64_t parse_u64(const util::Json& j) {
  if (!j.is_string()) return static_cast<std::uint64_t>(j.as_int());
  const std::string& s = j.as_string();
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
    return util::parse_hex_u64(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (s.empty() || ec != std::errc() || ptr != s.data() + s.size())
    throw std::invalid_argument("invalid u64: \"" + s + "\"");
  return value;
}

}  // namespace

std::string hex_u64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// --- spec -> executable --------------------------------------------------------

ExplorationConfig build_config(const ScenarioSpec& spec) {
  const algo::AlgorithmInfo& meta = algo::info_by_name(spec.algorithm);
  ExplorationConfig cfg = default_config(meta.id, spec.n, spec.num_agents);
  if (!spec.model.empty()) cfg.model = model_from_string(spec.model);
  cfg.stop.max_rounds =
      spec.max_rounds > 0 ? spec.max_rounds : 2000LL * spec.n + 200'000;
  if (!spec.start_nodes.empty()) cfg.start_nodes = spec.start_nodes;
  if (!spec.orientations.empty()) {
    cfg.orientations.clear();
    for (const char c : spec.orientations) {
      if (c == 'c')
        cfg.orientations.push_back(agent::kChiralOrientation);
      else if (c == 'm')
        cfg.orientations.push_back(agent::kMirroredOrientation);
      else
        throw std::invalid_argument(
            std::string("bad orientation char '") + c + "' (want 'c' or 'm')");
    }
  }
  // Like the table benches: the override moves an existing landmark, it
  // never adds one to a landmark-free algorithm.
  if (spec.landmark >= 0 && cfg.landmark) cfg.landmark = spec.landmark;
  // Knowledge overrides follow the same rule: they replace knowledge the
  // theorem already grants, never grant new knowledge.
  if (spec.upper_bound > 0 && cfg.upper_bound) cfg.upper_bound = spec.upper_bound;
  if (spec.exact_n > 0 && cfg.exact_n) cfg.exact_n = spec.exact_n;
  if (spec.fairness_window > 0) cfg.engine.fairness_window = spec.fairness_window;
  if (spec.et_budget > 0) cfg.engine.et_budget = spec.et_budget;
  if (spec.stop_mode == "explored") {
    cfg.stop.stop_when_explored = true;
    cfg.stop.stop_when_all_terminated = false;
    cfg.stop.stop_when_explored_and_one_terminated = false;
  } else if (spec.stop_mode == "horizon") {
    cfg.stop.stop_when_explored = false;
    cfg.stop.stop_when_all_terminated = false;
    cfg.stop.stop_when_explored_and_one_terminated = false;
  } else if (!spec.stop_mode.empty()) {
    throw std::invalid_argument("bad stop_mode '" + spec.stop_mode +
                                "' (want \"\", \"explored\" or \"horizon\")");
  }
  if (spec.stop_explored_one_terminated)
    cfg.stop.stop_when_explored_and_one_terminated = true;
  return cfg;
}

namespace {

using AdversaryPtr = std::unique_ptr<sim::Adversary>;
using AdversaryFactory = std::function<AdversaryPtr()>;

/// One adversary family: its spec name, whether its adversary reads the
/// scenario seed, and how to build the factory.  `uses_seed` sits next to
/// the builder on purpose — a family whose builder captures `seed` must
/// say so, or campaigns would replay one run for every seed of its cells.
struct AdversaryFamily {
  const char* name;
  bool uses_seed;
  AdversaryFactory (*make)(const AdversarySpec& spec, std::uint64_t seed,
                           NodeId n);
};

const AdversaryFamily kAdversaryFamilies[] = {
    {"null", false,
     [](const AdversarySpec&, std::uint64_t, NodeId) -> AdversaryFactory {
       return []() -> AdversaryPtr {
         return std::make_unique<sim::NullAdversary>();
       };
     }},
    {"random", true,
     [](const AdversarySpec& spec, std::uint64_t seed,
        NodeId) -> AdversaryFactory {
       const double rp = spec.remove_prob, ap = spec.activation_prob;
       return [rp, ap, seed]() -> AdversaryPtr {
         return std::make_unique<adversary::RandomAdversary>(rp, ap, seed);
       };
     }},
    {"targeted-random", true,
     [](const AdversarySpec& spec, std::uint64_t seed,
        NodeId) -> AdversaryFactory {
       const double tp = spec.target_prob, ap = spec.activation_prob;
       return [tp, ap, seed]() -> AdversaryPtr {
         return std::make_unique<adversary::TargetedRandomAdversary>(tp, ap,
                                                                     seed);
       };
     }},
    {"fixed-edge", false,
     [](const AdversarySpec& spec, std::uint64_t, NodeId) -> AdversaryFactory {
       const EdgeId e = spec.edge;
       return [e]() -> AdversaryPtr {
         return std::make_unique<adversary::FixedEdgeAdversary>(e);
       };
     }},
    {"block-agent", false,
     [](const AdversarySpec& spec, std::uint64_t, NodeId) -> AdversaryFactory {
       const AgentId v = spec.victim;
       return [v]() -> AdversaryPtr {
         return std::make_unique<adversary::BlockAgentAdversary>(v);
       };
     }},
    {"prevent-meeting", false,
     [](const AdversarySpec&, std::uint64_t, NodeId) -> AdversaryFactory {
       return []() -> AdversaryPtr {
         return std::make_unique<adversary::PreventMeetingAdversary>();
       };
     }},
    {"ns-first-mover", false,
     [](const AdversarySpec&, std::uint64_t, NodeId) -> AdversaryFactory {
       return []() -> AdversaryPtr {
         return std::make_unique<adversary::NsFirstMoverAdversary>();
       };
     }},
    {"rotation", false,
     [](const AdversarySpec& spec, std::uint64_t, NodeId) -> AdversaryFactory {
       const Round dwell = spec.dwell;
       return [dwell]() -> AdversaryPtr {
         return std::make_unique<adversary::RotationActivationAdversary>(
             dwell);
       };
     }},
    {"fig2", false,
     [](const AdversarySpec& spec, std::uint64_t, NodeId n) -> AdversaryFactory {
       if (n < 3)
         throw std::invalid_argument(
             "fig2 adversary needs the scenario's ring size");
       const NodeId anchor = static_cast<NodeId>(spec.edge);
       return [n, anchor]() -> AdversaryPtr {
         return std::make_unique<adversary::ScriptedEdgeAdversary>(
             adversary::make_fig2_script(n, anchor), "fig2");
       };
     }},
    {"sliding-window", false,
     [](const AdversarySpec&, std::uint64_t, NodeId) -> AdversaryFactory {
       return []() -> AdversaryPtr {
         return std::make_unique<adversary::SlidingWindowAdversary>(0, 1);
       };
     }},
    {"head-on-pin", false,
     [](const AdversarySpec&, std::uint64_t, NodeId) -> AdversaryFactory {
       return []() -> AdversaryPtr {
         return std::make_unique<adversary::HeadOnPinAdversary>(0, 1);
       };
     }},
    {"segment-seal", false,
     [](const AdversarySpec& spec, std::uint64_t, NodeId) -> AdversaryFactory {
       const EdgeId ea = spec.edge, eb = spec.edge_b;
       return [ea, eb]() -> AdversaryPtr {
         return std::make_unique<adversary::SegmentSealAdversary>(ea, eb);
       };
     }},
    {"edge-window", false,
     [](const AdversarySpec& spec, std::uint64_t, NodeId) -> AdversaryFactory {
       const EdgeId e = spec.edge;
       const Round lo = spec.window_lo, hi = spec.window_hi;
       return [e, lo, hi]() -> AdversaryPtr {
         return std::make_unique<adversary::ScriptedEdgeAdversary>(
             [e, lo, hi](Round r) -> std::optional<EdgeId> {
               return (r >= lo && r <= hi) ? std::optional<EdgeId>(e)
                                           : std::nullopt;
             },
             "edge-window");
       };
     }},
};

const AdversaryFamily* find_family(const std::string& name) {
  for (const AdversaryFamily& family : kAdversaryFamilies)
    if (name == family.name) return &family;
  return nullptr;
}

}  // namespace

std::vector<std::string> adversary_families() {
  std::vector<std::string> names;
  for (const AdversaryFamily& family : kAdversaryFamilies)
    names.emplace_back(family.name);
  return names;
}

bool adversary_uses_seed(const std::string& family) {
  const AdversaryFamily* entry = find_family(family);
  return !entry || entry->uses_seed;
}

std::function<std::unique_ptr<sim::Adversary>()> make_adversary_factory(
    const AdversarySpec& spec, std::uint64_t seed, NodeId n) {
  const AdversaryFamily* family = find_family(spec.family);
  if (!family)
    throw std::invalid_argument("unknown adversary family: " + spec.family);
  AdversaryFactory base = family->make(spec, seed, n);
  if (spec.t_interval <= 1) return base;
  const Round t = spec.t_interval;
  return [t, base]() -> AdversaryPtr {
    return std::make_unique<adversary::TIntervalAdversary>(t, base());
  };
}

ScenarioTask to_task(const ScenarioSpec& spec) {
  ScenarioTask task;
  task.cfg = build_config(spec);
  task.seed = spec.seed;
  task.make_adversary =
      make_adversary_factory(spec.adversary, spec.seed, spec.n);
  return task;
}

// --- identity ------------------------------------------------------------------

std::uint64_t fingerprint(const ScenarioSpec& spec) {
  return util::fnv1a(to_json(spec).dump());
}

std::vector<std::size_t> behaviour_representatives(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<std::size_t>& cells) {
  // The key is the spec itself with the fields the run cannot read reset:
  // plain struct equality, so a field added to ScenarioSpec later joins
  // the key without anyone remembering to add it.  The hash covers only
  // the fields that vary across a campaign grid; equality decides.
  struct KeyHash {
    std::size_t operator()(const ScenarioSpec& s) const {
      std::uint64_t h = std::hash<std::string>{}(s.algorithm);
      const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
      };
      mix(static_cast<std::uint64_t>(s.n));
      mix(static_cast<std::uint64_t>(s.num_agents));
      mix(std::hash<std::string>{}(s.adversary.family));
      mix(static_cast<std::uint64_t>(s.adversary.t_interval));
      mix(s.seed);
      mix(static_cast<std::uint64_t>(s.max_rounds));
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<ScenarioSpec, std::size_t, KeyHash> first;
  first.reserve(cells.size());
  std::vector<std::size_t> rep(cells.size());
  ScenarioSpec key;  // reused: assignment keeps its string capacity
  const algo::AlgorithmInfo* algorithm = nullptr;
  for (std::size_t p = 0; p < cells.size(); ++p) {
    key = specs[cells[p]];
    if (!algorithm || algorithm->name != key.algorithm)
      algorithm = &algo::info_by_name(key.algorithm);
    if (!algorithm->uses_seed && !adversary_uses_seed(key.adversary.family))
      key.seed = 0;
    // The T-interval guard only filters removals, and "null" requests none.
    if (key.adversary.family == "null") key.adversary.t_interval = 1;
    rep[p] = first.try_emplace(key, p).first->second;
  }
  return rep;
}

// --- JSON ----------------------------------------------------------------------

util::Json to_json(const AdversarySpec& spec) {
  util::Json j;
  j.set("family", spec.family);
  if (spec.family == "random") {
    j.set("remove_prob", spec.remove_prob);
    j.set("activation_prob", spec.activation_prob);
  } else if (spec.family == "targeted-random") {
    j.set("target_prob", spec.target_prob);
    j.set("activation_prob", spec.activation_prob);
  } else if (spec.family == "fixed-edge") {
    j.set("edge", static_cast<long long>(spec.edge));
  } else if (spec.family == "block-agent") {
    j.set("victim", static_cast<long long>(spec.victim));
  } else if (spec.family == "rotation") {
    j.set("dwell", static_cast<long long>(spec.dwell));
  } else if (spec.family == "fig2") {
    j.set("edge", static_cast<long long>(spec.edge));
  } else if (spec.family == "segment-seal") {
    j.set("edge", static_cast<long long>(spec.edge));
    j.set("edge_b", static_cast<long long>(spec.edge_b));
  } else if (spec.family == "edge-window") {
    j.set("edge", static_cast<long long>(spec.edge));
    j.set("window_lo", static_cast<long long>(spec.window_lo));
    j.set("window_hi", static_cast<long long>(spec.window_hi));
  }
  if (spec.t_interval > 1)
    j.set("t_interval", static_cast<long long>(spec.t_interval));
  return j;
}

AdversarySpec adversary_spec_from_json(const util::Json& j) {
  AdversarySpec spec;
  spec.family = j.get_string("family", "null");
  spec.remove_prob = j.get_double("remove_prob", spec.remove_prob);
  spec.target_prob = j.get_double("target_prob", spec.target_prob);
  spec.activation_prob =
      j.get_double("activation_prob", spec.activation_prob);
  spec.edge = static_cast<EdgeId>(j.get_int("edge", spec.edge));
  spec.edge_b = static_cast<EdgeId>(j.get_int("edge_b", spec.edge_b));
  spec.victim = static_cast<AgentId>(j.get_int("victim", spec.victim));
  spec.dwell = j.get_int("dwell", spec.dwell);
  spec.window_lo = j.get_int("window_lo", spec.window_lo);
  spec.window_hi = j.get_int("window_hi", spec.window_hi);
  spec.t_interval = j.get_int("t_interval", spec.t_interval);
  return spec;
}

util::Json to_json(const ScenarioSpec& spec) {
  util::Json j;
  j.set("algorithm", spec.algorithm);
  j.set("n", static_cast<long long>(spec.n));
  if (spec.num_agents > 0)
    j.set("agents", static_cast<long long>(spec.num_agents));
  j.set("adversary", to_json(spec.adversary));
  j.set("seed", hex_u64(spec.seed));
  if (spec.max_rounds > 0)
    j.set("max_rounds", static_cast<long long>(spec.max_rounds));
  if (!spec.model.empty()) j.set("model", spec.model);
  // Proof-construction overrides: every field is omitted at its default,
  // so the fingerprints of pre-existing specs are untouched.
  if (!spec.start_nodes.empty()) {
    util::Json::Array nodes;
    for (const NodeId node : spec.start_nodes)
      nodes.emplace_back(static_cast<long long>(node));
    j.set("start_nodes", util::Json(std::move(nodes)));
  }
  if (!spec.orientations.empty()) j.set("orientations", spec.orientations);
  if (spec.landmark >= 0)
    j.set("landmark", static_cast<long long>(spec.landmark));
  if (spec.fairness_window > 0)
    j.set("fairness_window", static_cast<long long>(spec.fairness_window));
  if (spec.stop_explored_one_terminated)
    j.set("stop_explored_one_terminated", true);
  if (spec.upper_bound > 0)
    j.set("upper_bound", static_cast<long long>(spec.upper_bound));
  if (spec.exact_n > 0) j.set("exact_n", static_cast<long long>(spec.exact_n));
  if (spec.et_budget > 0)
    j.set("et_budget", static_cast<long long>(spec.et_budget));
  if (!spec.stop_mode.empty()) j.set("stop_mode", spec.stop_mode);
  if (!spec.variant.empty()) j.set("variant", spec.variant);
  return j;
}

ScenarioSpec scenario_spec_from_json(const util::Json& j) {
  ScenarioSpec spec;
  spec.algorithm = j.at("algorithm").as_string();
  spec.n = static_cast<NodeId>(j.at("n").as_int());
  spec.num_agents = static_cast<int>(j.get_int("agents", 0));
  if (j.has("adversary"))
    spec.adversary = adversary_spec_from_json(j.at("adversary"));
  if (j.has("seed")) spec.seed = parse_u64(j.at("seed"));
  spec.max_rounds = j.get_int("max_rounds", 0);
  spec.model = j.get_string("model", "");
  if (j.has("start_nodes"))
    for (const util::Json& node : j.at("start_nodes").as_array())
      spec.start_nodes.push_back(static_cast<NodeId>(node.as_int()));
  spec.orientations = j.get_string("orientations", "");
  spec.landmark = static_cast<NodeId>(j.get_int("landmark", -1));
  spec.fairness_window = j.get_int("fairness_window", 0);
  spec.stop_explored_one_terminated =
      j.get_bool("stop_explored_one_terminated", false);
  spec.upper_bound = j.get_int("upper_bound", 0);
  spec.exact_n = j.get_int("exact_n", 0);
  spec.et_budget = j.get_int("et_budget", 0);
  spec.stop_mode = j.get_string("stop_mode", "");
  spec.variant = j.get_string("variant", "");
  return spec;
}

util::Json to_json(const CampaignSpec& spec) {
  util::Json j;
  j.set("name", spec.name);
  util::Json::Array algos, sizes, agents, advs, ts;
  for (const std::string& a : spec.algorithms) algos.emplace_back(a);
  for (const NodeId n : spec.sizes) sizes.emplace_back(static_cast<long long>(n));
  for (const int k : spec.agent_counts)
    agents.emplace_back(static_cast<long long>(k));
  for (const AdversarySpec& a : spec.adversaries) advs.push_back(to_json(a));
  for (const Round t : spec.t_intervals)
    ts.emplace_back(static_cast<long long>(t));
  j.set("algorithms", util::Json(std::move(algos)));
  j.set("sizes", util::Json(std::move(sizes)));
  if (!spec.agent_counts.empty()) j.set("agents", util::Json(std::move(agents)));
  j.set("adversaries", util::Json(std::move(advs)));
  if (!spec.t_intervals.empty())
    j.set("t_intervals", util::Json(std::move(ts)));
  j.set("seeds", static_cast<long long>(spec.seeds_per_cell));
  j.set("salt", hex_u64(spec.salt));
  if (spec.max_rounds > 0)
    j.set("max_rounds", static_cast<long long>(spec.max_rounds));
  return j;
}

CampaignSpec campaign_spec_from_json(const util::Json& j) {
  CampaignSpec spec;
  spec.name = j.get_string("name", "campaign");
  for (const util::Json& a : j.at("algorithms").as_array())
    spec.algorithms.push_back(a.as_string());
  for (const util::Json& n : j.at("sizes").as_array())
    spec.sizes.push_back(static_cast<NodeId>(n.as_int()));
  if (j.has("agents"))
    for (const util::Json& k : j.at("agents").as_array())
      spec.agent_counts.push_back(static_cast<int>(k.as_int()));
  if (j.has("adversaries"))
    for (const util::Json& a : j.at("adversaries").as_array())
      spec.adversaries.push_back(adversary_spec_from_json(a));
  if (j.has("t_intervals"))
    for (const util::Json& t : j.at("t_intervals").as_array())
      spec.t_intervals.push_back(t.as_int());
  spec.seeds_per_cell = static_cast<int>(j.get_int("seeds", 1));
  if (j.has("salt")) spec.salt = parse_u64(j.at("salt"));
  spec.max_rounds = j.get_int("max_rounds", 0);
  return spec;
}

// --- grid expansion ------------------------------------------------------------

std::vector<ScenarioSpec> expand(const CampaignSpec& campaign) {
  const std::vector<int> agent_counts =
      campaign.agent_counts.empty() ? std::vector<int>{0}
                                    : campaign.agent_counts;
  const std::vector<AdversarySpec> adversaries =
      campaign.adversaries.empty() ? std::vector<AdversarySpec>{{}}
                                   : campaign.adversaries;
  // Sentinel 0 = no axis: each adversary keeps its own t_interval (which
  // may have been set per-adversary in the spec).
  const std::vector<Round> t_intervals =
      campaign.t_intervals.empty() ? std::vector<Round>{0}
                                   : campaign.t_intervals;
  const int seeds = campaign.seeds_per_cell > 0 ? campaign.seeds_per_cell : 1;

  std::vector<ScenarioSpec> specs;
  for (const std::string& algorithm : campaign.algorithms) {
    for (const NodeId n : campaign.sizes) {
      for (const int k : agent_counts) {
        for (const AdversarySpec& adversary : adversaries) {
          for (const Round t : t_intervals) {
            ScenarioSpec cell;
            cell.algorithm = algorithm;
            cell.n = n;
            cell.num_agents = k;
            cell.adversary = adversary;
            if (t > 0) cell.adversary.t_interval = t;
            cell.max_rounds = campaign.max_rounds;
            // Seeds are derived from the cell's own identity (seed field
            // zeroed), not its grid position: growing an axis leaves every
            // existing cell's seeds — hence fingerprints — untouched.
            cell.seed = 0;
            const std::uint64_t cell_id = fingerprint(cell);
            for (int s = 0; s < seeds; ++s) {
              ScenarioSpec spec = cell;
              spec.seed = task_seed(campaign.salt ^ cell_id,
                                    static_cast<std::size_t>(s));
              specs.push_back(std::move(spec));
            }
          }
        }
      }
    }
  }
  return specs;
}

}  // namespace dring::core
