// Workload table, clocks, host probe, request mix and output checks.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/subprocess.hpp"

namespace bench {

using namespace dring;

// --- workloads ---------------------------------------------------------------

const Workload* find_workload(const std::string& name) {
  // Shares of --seconds per phase: setup, campaign, report, query.
  static const std::vector<Workload> kWorkloads = {
      {"mixed_grid", "mixed_grid", false, 0.08, 0.50, 0.17, 0.25},
      {"engine_grid", "engine_grid", false, 0.05, 0.60, 0.10, 0.25},
      {"serve_mix", "mixed_grid", true, 0.25, 0.20, 0.10, 0.45},
  };
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

// --- clocks ------------------------------------------------------------------

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

namespace {

/// Fixed integer work for the host probe (~60 ms on one 2 GHz core).
std::uint64_t spin() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 40'000'000; ++i)
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

}  // namespace

double host_parallel_capacity() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint64_t> sink(n);
  double t0 = now_s();
  sink[0] = spin();
  const double one = now_s() - t0;
  t0 = now_s();
  {
    std::vector<std::jthread> spinners;
    for (unsigned i = 0; i < n; ++i)
      spinners.emplace_back([&sink, i] { sink[i] = spin(); });
  }
  const double all = now_s() - t0;
  if (std::find(sink.begin(), sink.end(), 0) != sink.end())
    throw std::logic_error("host probe: spinner produced no work");
  note("host probe: 1 spinner " + std::to_string(one * 1e3) + " ms, " +
       std::to_string(n) + " spinners " + std::to_string(all * 1e3) + " ms");
  return static_cast<double>(n) * one / all;
}

double calibration_s() {
  static volatile std::uint64_t sink = 0;  // keeps the work observable
  const double t0 = now_s();
  std::uint64_t acc = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto draw = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 20;
  };
  std::unordered_map<std::uint64_t, std::string> map;
  for (int i = 0; i < 3000; ++i)
    map[draw()] = std::string(24 + draw() % 40, 'x');
  for (int i = 0; i < 3000; ++i)
    if (const auto it = map.find(draw()); it != map.end())
      acc += it->second.size();
  std::vector<std::string> strings;
  for (std::uint64_t i = 0; i < 2000; ++i)
    strings.emplace_back(40 + (x + i) % 64,
                         static_cast<char>('a' + (x + i) % 26));
  std::sort(strings.begin(), strings.end());
  sink = acc + map.size() + strings.back().size();
  return now_s() - t0;
}

double parallel_calibration_s() {
  const double t0 = now_s();
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([] { calibration_s(); });
  }
  return now_s() - t0;
}

// --- inputs ------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Grid make_grid(const Workload& w, const Options& o) {
  Grid grid;
  grid.spec_path = o.bench_dir + "/specs/" + w.grid + ".json";
  grid.reference_salt = core::campaign_spec_from_json(
                            util::Json::parse(read_file(grid.spec_path)))
                            .salt;
  grid.salt = w.fixed_store ? grid.reference_salt : o.seed;
  if (o.scale == "tiny") grid.seeds_override = 1;
  return grid;
}

core::CampaignSpec load_campaign(const Grid& grid, std::uint64_t salt) {
  core::CampaignSpec spec = core::campaign_spec_from_json(
      util::Json::parse(read_file(grid.spec_path)));
  spec.salt = salt;
  if (grid.seeds_override > 0) spec.seeds_per_cell = grid.seeds_override;
  return spec;
}

CampaignRun timed_campaign(const Grid& grid, std::uint64_t salt,
                           const std::string& store, int threads) {
  const double w0 = now_s(), c0 = cpu_s();
  core::CampaignOptions options;
  options.threads = threads;
  options.out_path = store;
  core::run_campaign(load_campaign(grid, salt), options);
  return {now_s() - w0, cpu_s() - c0};
}

// --- request mix -------------------------------------------------------------

const std::vector<ReportCombo>& report_combos() {
  static const std::vector<ReportCombo> kCombos = [] {
    const std::vector<std::vector<std::string>> group_bys = {
        {"algorithm", "n"},
        {"adversary", "t_interval"},
        {"agents"},
        {"algorithm", "adversary", "n"}};
    std::vector<ReportCombo> combos;
    for (const auto& keys : group_bys)
      for (const char* metric : {"explored_round", "rounds", "moves"})
        combos.push_back({false, keys, metric});
    combos.push_back({true, {"algorithm", "adversary"}, ""});
    return combos;
  }();
  return kCombos;
}

namespace {

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ",\"" : "\"") + items[i] + "\"";
  return out + "]";
}

}  // namespace

RequestMix::RequestMix(std::vector<std::uint64_t> stored_fps,
                       std::uint64_t seed)
    : stored_(std::move(stored_fps)),
      sorted_(stored_),
      state_(seed ^ 0x7265717565737473ULL) {
  if (stored_.empty()) throw std::invalid_argument("request mix: empty store");
  std::sort(sorted_.begin(), sorted_.end());
}

std::uint64_t RequestMix::draw() {  // splitmix64
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int RequestMix::deal(std::vector<int>& deck, std::size_t& at,
                     const std::vector<int>& fresh) {
  if (at == deck.size()) {
    deck = fresh;
    for (std::size_t i = deck.size(); i > 1; --i)  // Fisher-Yates
      std::swap(deck[i - 1], deck[draw() % i]);
    at = 0;
  }
  return deck[at++];
}

Request RequestMix::next() {
  // Every 100 requests hold exactly 90 points, 8 aggregates and 2
  // frontiers; points alternate stored/absent in shuffled pairs and the
  // aggregates walk shuffled rounds of all 12 combos.  The seed orders the
  // mix and picks the fingerprints, never its proportions.
  static const std::vector<int> kKinds = [] {
    std::vector<int> kinds(90, static_cast<int>(RequestKind::Point));
    kinds.insert(kinds.end(), 8, static_cast<int>(RequestKind::Aggregate));
    kinds.insert(kinds.end(), 2, static_cast<int>(RequestKind::Frontier));
    return kinds;
  }();
  const std::vector<ReportCombo>& combos = report_combos();
  Request r;
  r.kind = static_cast<RequestKind>(deal(kinds_, kinds_at_, kKinds));
  if (r.kind == RequestKind::Point) {
    r.stored = deal(stored_deck_, stored_at_, {0, 1}) == 1;
    if (r.stored) {
      r.fp = stored_[draw() % stored_.size()];
    } else {
      do r.fp = draw();
      while (std::binary_search(sorted_.begin(), sorted_.end(), r.fp));
    }
    r.line = "{\"fp\":\"" + core::hex_u64(r.fp) + "\",\"op\":\"point\"}";
  } else if (r.kind == RequestKind::Aggregate) {
    static const std::vector<int> kCombos = [&] {
      std::vector<int> all(combos.size() - 1);
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
      return all;
    }();
    r.combo = deal(combos_, combos_at_, kCombos);
    const ReportCombo& c = combos[static_cast<std::size_t>(r.combo)];
    r.line = "{\"format\":\"md\",\"group_by\":" + json_list(c.group_by) +
             ",\"metric\":\"" + c.metric + "\",\"op\":\"aggregate\"}";
  } else {
    r.combo = static_cast<int>(combos.size() - 1);
    r.line = "{\"axis\":\"n\",\"format\":\"md\",\"group_by\":" +
             json_list(combos.back().group_by) +
             ",\"op\":\"frontier\",\"threshold\":0.5}";
  }
  return r;
}

// --- output checks -----------------------------------------------------------

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t store_row_digest(const std::string& store_bytes) {
  const std::size_t eol = store_bytes.find('\n');
  if (eol == std::string::npos ||
      store_bytes.compare(0, eol,
                          core::provenance_line(core::current_provenance())) !=
          0)
    return 0;
  return fnv1a(std::string_view(store_bytes).substr(eol + 1));
}

References load_references(const std::string& bench_dir) {
  const util::Json j =
      util::Json::parse(read_file(bench_dir + "/reference.json"));
  References refs;
  const auto parse_hex = [](const util::Json& v) {
    return std::stoull(v.as_string(), nullptr, 16);
  };
  for (const auto& [key, value] : j.at("store_rows_fnv1a").as_object())
    refs.stores[key] = parse_hex(value);
  const util::Json& stream = j.at("serve_stream");
  refs.stream_seed = parse_hex(stream.at("seed"));
  for (const auto& [key, value] : stream.at("fnv1a").as_object())
    refs.streams[key] = parse_hex(value);
  for (const auto& [key, value] : stream.at("requests").as_object())
    refs.stream_requests[key] = static_cast<int>(value.as_int());
  return refs;
}

bool store_matches(const Options& o, const std::string& path,
                   std::uint64_t expected) {
  std::string bytes = read_file(path);
  if (o.corrupt_store && !bytes.empty()) bytes[bytes.size() * 2 / 3] ^= 1;
  const std::uint64_t got = store_row_digest(bytes);
  if (got != expected)
    note("store " + path + ": row digest " + core::hex_u64(got) +
         ", expected " + core::hex_u64(expected));
  return got == expected;
}

std::uint64_t check_reference_store(const Workload& w, const Grid& grid,
                                    const Options& o, const References& refs,
                                    Tally& tally) {
  const std::string path = o.work_dir + "/reference.jsonl";
  const std::uint64_t expected = refs.stores.at(w.grid + "/" + o.scale);
  timed_campaign(grid, grid.reference_salt, path, kThreads);
  const std::size_t cells =
      core::expand(load_campaign(grid, grid.reference_salt)).size();
  tally.add(static_cast<long long>(cells), store_matches(o, path, expected));
  return expected;
}

ResponseOracle::ResponseOracle(const std::string& store_bytes,
                               const std::vector<core::CampaignRow>& rows)
    : bytes_(store_bytes) {
  // Row lines start {"fp":"0x<16 hex>" — index them by that fingerprint.
  const std::string_view all(bytes_);
  std::size_t pos = all.find('\n');
  while (pos != std::string_view::npos && pos + 1 < all.size()) {
    const std::size_t begin = pos + 1;
    const std::size_t end = all.find('\n', begin);
    const std::string_view line = all.substr(
        begin, (end == std::string_view::npos ? all.size() : end) - begin);
    if (line.size() > 25 && line.substr(0, 9) == "{\"fp\":\"0x")
      lines_[std::stoull(std::string(line.substr(9, 16)), nullptr, 16)] = line;
    pos = end;
  }
  for (const ReportCombo& c : report_combos()) {
    std::string report;
    if (c.frontier) {
      report = core::render_frontier_report(
          core::detect_frontier(rows, c.group_by, "n", 0.5), c.group_by, "n",
          0.5, core::ReportFormat::Markdown);
    } else {
      const core::Metric metric = core::metric_from_string(c.metric);
      report = core::render_aggregate_report(
          core::aggregate_rows(rows, c.group_by, metric), c.group_by, metric,
          core::ReportFormat::Markdown);
    }
    expected_reports_.push_back("\"report\":" + util::Json(report).dump());
  }
}

std::vector<std::uint64_t> ResponseOracle::stored_fingerprints() const {
  std::vector<std::uint64_t> fps;
  fps.reserve(lines_.size());
  for (const auto& [fp, line] : lines_) fps.push_back(fp);
  std::sort(fps.begin(), fps.end());
  return fps;
}

bool ResponseOracle::check(const Request& request,
                           const std::string& response) const {
  if (response.find("\"ok\":true") == std::string::npos) return false;
  if (request.kind != RequestKind::Point)
    return response.find(expected_reports_[request.combo]) != std::string::npos;
  const auto it = lines_.find(request.fp);
  if ((it != lines_.end()) != request.stored) return false;
  if (!request.stored)
    return response.find("\"found\":false") != std::string::npos;
  // The row member is the dump's last key: the reply must end with the
  // stored line, byte for byte.
  const std::string tail = "\"row\":" + std::string(it->second) + "}";
  return response.size() >= tail.size() &&
         response.compare(response.size() - tail.size(), tail.size(),
                          tail) == 0;
}

std::string reference_report(const Options& o, const std::string& store) {
  const std::string out = o.work_dir + "/dring_report.out";
  std::remove(out.c_str());
  util::SpawnSpec spec;
  spec.argv = {o.report_tool, "--quiet", "--store", store,
               "--group-by", "algorithm,n", "--metric", "explored_round"};
  spec.output_path = out;
  util::Subprocess child = util::Subprocess::spawn(spec);
  if (child.exit_code_blocking() != 0) return "";
  return read_file(out);
}

std::string render_report(const std::string& store) {
  const std::vector<std::string> keys = {"algorithm", "n"};
  const core::ResultStore loaded = core::load_result_stores({store});
  return core::render_aggregate_report(
      core::aggregate_rows(loaded.rows, keys, core::Metric::ExploredRound),
      keys, core::Metric::ExploredRound, core::ReportFormat::Markdown);
}

void note(const std::string& message) {
  std::cerr << "perfbench: " << message << std::endl;
}

}  // namespace bench
