#include "sim/trace_io.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/fingerprint.hpp"

namespace dring::sim {

void write_trace_csv(const std::vector<RoundTrace>& trace, std::ostream& os) {
  os << "round,missing_edge,agent,node,on_port,port_side,active,terminated,"
        "state\n";
  for (const RoundTrace& rt : trace) {
    for (const AgentTrace& at : rt.agents) {
      os << rt.round << ','
         << (rt.missing ? std::to_string(*rt.missing) : "") << ',' << at.id
         << ',' << at.node << ',' << (at.on_port ? 1 : 0) << ','
         << (at.on_port ? to_string(at.port_side) : "") << ','
         << (at.active ? 1 : 0) << ',' << (at.terminated ? 1 : 0) << ','
         << at.state << '\n';
    }
  }
}

namespace {

struct TraceHasher : util::Fnv1a {
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool b) { byte(b ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s);
  }
};

}  // namespace

std::uint64_t trace_digest(const std::vector<RoundTrace>& trace) {
  TraceHasher d;
  d.u64(trace.size());
  for (const RoundTrace& rt : trace) {
    d.i64(rt.round);
    d.i64(rt.missing ? *rt.missing : -1);
    d.u64(rt.agents.size());
    for (const AgentTrace& at : rt.agents) {
      d.i64(at.id);
      d.i64(at.node);
      d.boolean(at.on_port);
      d.byte(at.on_port && at.port_side == GlobalDir::Cw ? 1 : 0);
      d.boolean(at.active);
      d.boolean(at.terminated);
      d.str(at.state);
      d.byte(static_cast<std::uint8_t>(at.intent.kind));
      d.byte(at.intent.kind == agent::Intent::Kind::Move &&
                     at.intent.dir == Dir::Right
                 ? 1
                 : 0);
    }
  }
  return d.h;
}

std::uint64_t result_digest(const RunResult& r) {
  TraceHasher d;
  d.boolean(r.explored);
  d.i64(r.explored_round);
  d.i64(r.rounds);
  d.i64(r.total_moves);
  d.i64(r.active_moves);
  d.i64(r.passive_moves);
  d.i64(r.terminated_agents);
  d.boolean(r.all_terminated);
  d.boolean(r.premature_termination);
  d.i64(r.fairness_interventions);
  d.str(r.stop_reason);
  d.u64(r.agents.size());
  for (const AgentResult& a : r.agents) {
    d.i64(a.id);
    d.boolean(a.terminated);
    d.i64(a.termination_round);
    d.i64(a.moves);
    d.i64(a.passive_moves);
    d.i64(a.final_node);
    d.str(a.final_state);
  }
  d.u64(r.violations.size());
  for (const std::string& v : r.violations) d.str(v);
  return d.h;
}

std::function<std::optional<EdgeId>(Round)> edge_schedule_of(
    const std::vector<RoundTrace>& trace) {
  auto schedule = std::make_shared<std::map<Round, EdgeId>>();
  for (const RoundTrace& rt : trace)
    if (rt.missing) (*schedule)[rt.round] = *rt.missing;
  return [schedule](Round r) -> std::optional<EdgeId> {
    const auto it = schedule->find(r);
    if (it == schedule->end()) return std::nullopt;
    return it->second;
  };
}

std::function<std::vector<bool>(Round)> activation_schedule_of(
    const std::vector<RoundTrace>& trace) {
  auto schedule = std::make_shared<std::map<Round, std::vector<bool>>>();
  for (const RoundTrace& rt : trace) {
    std::vector<bool> act(rt.agents.size());
    for (std::size_t i = 0; i < rt.agents.size(); ++i)
      act[i] = rt.agents[i].active;
    (*schedule)[rt.round] = std::move(act);
  }
  return [schedule](Round r) -> std::vector<bool> {
    const auto it = schedule->find(r);
    if (it == schedule->end()) return {};
    return it->second;
  };
}

}  // namespace dring::sim
